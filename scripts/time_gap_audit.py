"""Time the gap audit against its row-scan oracle; write BENCH_gap_audit.json.

    python3 scripts/time_gap_audit.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle (`row_scan_gap_audit`, every admissible pair of every row, O(kmax^3))
from `tests/conftest.py`.  For each kmax and beta, three calls are timed in
CPU time (`time.process_time`, user + system of this process), REPEATS times
each, every sample kept with the median:

- `audit_gaps`, the whole call (its `mode_spectrum` included);
- `mode_spectrum` alone, the part of the audit that is not the gap scan;
- the oracle, on the Re omega of that spectrum.

Each row's `equal` flag says that the audit's min_ratio_k2 equals the
oracle's minimum bit for bit, and that the worst pair its AuditFailure names
when gamma is made unreachable equals the oracle's.  The BLAS pool is held
to one thread, set before numpy loads.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import memwave.gap_analysis as ga  # noqa: E402
from conftest import audit_gap_ratio, row_scan_gap_audit  # noqa: E402
from memwave import BETA_MAX, KernelParams, mode_spectrum  # noqa: E402

KMAX = (128, 256, 384, 512)
BETAS = (0.0, 0.3, 0.7, BETA_MAX)
REPEATS = 3


def cpu_seconds(fn, *args):
    """(CPU seconds of one call, its result)."""
    start = time.process_time()
    value = fn(*args)
    return time.process_time() - start, value


def measure(kmax: int, beta: float, repeats: int = REPEATS) -> dict:
    """Median CPU time of the audit, its spectrum and the oracle, with their samples."""
    params = KernelParams.limiting_regime(beta)
    samples = {"audit": [], "spectrum": [], "oracle": []}
    for _ in range(repeats):
        seconds, audit = cpu_seconds(ga.audit_gaps, params, kmax)
        samples["audit"].append(seconds)
        seconds, (_, omega, _) = cpu_seconds(mode_spectrum, params, kmax)
        samples["spectrum"].append(seconds)
        seconds, (min_ratio, worst) = cpu_seconds(row_scan_gap_audit, omega.real)
        samples["oracle"].append(seconds)
    equal = audit_gap_ratio(params, kmax) == (min_ratio, worst)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "kmax": kmax,
        "beta": beta,
        "min_ratio_k2": audit.min_ratio_k2,
        "worst": worst,
        "equal": equal,
        "audit_cpu_s": medians["audit"],
        "spectrum_cpu_s": medians["spectrum"],
        "oracle_cpu_s": medians["oracle"],
        "audit_samples_s": samples["audit"],
        "spectrum_samples_s": samples["spectrum"],
        "oracle_samples_s": samples["oracle"],
    }


def main() -> int:
    rows = []
    for kmax in KMAX:
        for beta in BETAS:
            rows.append(measure(kmax, beta))
            row = rows[-1]
            print(f"kmax {kmax} beta {beta:.4f}: audit {row['audit_cpu_s']:.4f} s "
                  f"(spectrum {row['spectrum_cpu_s']:.4f} s), oracle {row['oracle_cpu_s']:.3f} s, "
                  f"equal {row['equal']}", flush=True)
    report = {
        "what": "CPU seconds of memwave.gap_analysis.audit_gaps (whole call), of its "
                "mode_spectrum alone, and of tests/conftest.py::row_scan_gap_audit on that "
                f"spectrum's Re omega, median of {REPEATS}, one BLAS thread.  equal: the audit's "
                "min_ratio_k2 and worst pair equal the oracle's bit for bit",
        "host": {"machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
    }
    out = ROOT / "BENCH_gap_audit.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(row["equal"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
