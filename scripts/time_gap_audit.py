"""Time the gap audit against its row-scan oracle; write BENCH_gap_audit.json.

    python3 scripts/time_gap_audit.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle (`row_scan_gap_audit`, every admissible pair of every row, O(kmax^3))
from `tests/conftest.py`.  For each kmax and beta, three calls are timed in
REPEATS rounds, with the timing and BLAS pool of `scripts/harness.py`:

- `audit_gaps`, the whole call (its `mode_spectrum` included);
- the oracle, on the Re omega of that spectrum;
- `mode_spectrum` alone, the part of the audit that is not the gap scan.

In every round the audit's min_ratio_k2, and the worst pair its AuditFailure
names when gamma is made unreachable, must equal the oracle's bit for bit.
"""

from __future__ import annotations

import harness  # first: the path and the BLAS pool, before numpy loads

import memwave.gap_analysis as ga
from conftest import audit_gap_ratio, row_scan_gap_audit
from memwave import BETA_MAX, KernelParams, mode_spectrum

KMAX = (128, 256, 384, 512)
BETAS = (0.0, 0.3, 0.7, BETA_MAX)
REPEATS = 3


def measure(kmax: int, beta: float) -> dict:
    """The audit, the oracle and the audit's spectrum at one kmax and beta."""
    params = KernelParams.limiting_regime(beta)
    omega = mode_spectrum(params, kmax)[1]
    record, values = harness.paired(
        {"audit": harness.timed(ga.audit_gaps, params, kmax),
         "oracle": harness.timed(row_scan_gap_audit, omega.real),
         "spectrum": harness.timed(mode_spectrum, params, kmax)}, REPEATS,
        lambda _, oracle: audit_gap_ratio(params, kmax) == oracle,
        f"gap audit at kmax {kmax}, beta {beta}")
    min_ratio_k2, worst = values["oracle"]
    return {"kmax": kmax, "beta": beta, "min_ratio_k2": min_ratio_k2, "worst": worst, **record}


def main() -> None:
    rows = []
    for kmax in KMAX:
        for beta in BETAS:
            rows.append(measure(kmax, beta))
            row = rows[-1]
            print(f"kmax {kmax} beta {beta:.4f}: audit {row['audit_cpu_s']:.4f} s "
                  f"(spectrum {row['spectrum_cpu_s']:.4f} s), oracle {row['oracle_cpu_s']:.3f} s",
                  flush=True)
    harness.write_bench("gap_audit", {
        "what": "CPU seconds of memwave.gap_analysis.audit_gaps (whole call), of "
                "tests/conftest.py::row_scan_gap_audit on its spectrum's Re omega, and of its "
                f"mode_spectrum alone, medians of {REPEATS} rounds.  In every round the audit's "
                "min_ratio_k2 and worst pair equal the oracle's bit for bit",
        "rows": rows,
    })


if __name__ == "__main__":
    main()
