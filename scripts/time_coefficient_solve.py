"""Time the closed-form coefficient solve against its LU oracle; write
BENCH_coefficient_solve.json.

    python3 scripts/time_coefficient_solve.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle (`lu_coefficients`, one complex 3x3 LU solve per mode by
`np.linalg.solve`) from `tests/conftest.py`.  Timing, BLAS pool and agreement
checks are those of `scripts/harness.py`; REPEATS rounds each.

For each kmax, `modes._solve_coefficients` and the oracle run on the same
spectrum (beta BETA) and N(0, 1) sine coefficients (seed SEED).  They must
agree as in the test suite: |C - C_lu| <= 2e-15 |C_lu| and
|R - R_lu| <= 2e-15 max(|a|, |b|).  Each row records the largest
|C - C_lu| / |C_lu| and |R - R_lu| / max(|a|, |b|).  Writing the `modes`
table is timed by `scripts/time_serialization.py`.
"""

from __future__ import annotations

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

from conftest import lu_coefficients
from memwave import KernelParams, mode_spectrum
from memwave.modes import _solve_coefficients

KMAX = (64, 192, 384, 512)
BETA = 0.3
SEED = 701
REPEATS = 7


def measure_solve(kmax: int) -> dict:
    """The closed form and the LU oracle at one kmax, and their largest disagreement."""
    lam, omega, r = mode_spectrum(KernelParams.limiting_regime(BETA), kmax)
    rng = np.random.default_rng(SEED)
    a, b = rng.normal(size=(kmax, kmax)), rng.normal(size=(kmax, kmax))
    args = (1j * omega, r, a, b, lam)
    data = np.maximum(np.abs(a), np.abs(b))

    def agree(closed_form, lu) -> bool:
        (C, R), (C_lu, R_lu) = closed_form, lu
        return bool(np.all(np.abs(C - C_lu) <= 2e-15 * np.abs(C_lu))
                    and np.all(np.abs(R - R_lu) <= 2e-15 * data))

    record, values = harness.paired(
        {"closed_form": harness.timed(_solve_coefficients, *args),
         "lu": harness.timed(lu_coefficients, *args)}, REPEATS, agree, f"solve at kmax {kmax}")
    (C, R), (C_lu, R_lu) = values["closed_form"], values["lu"]
    return {"kmax": kmax,
            "max_C_rel_diff": float(np.max(np.abs(C - C_lu) / np.abs(C_lu))),
            "max_R_diff_over_data": float(np.max(np.abs(R - R_lu) / data)), **record}


def main() -> None:
    rows = []
    for kmax in KMAX:
        rows.append(measure_solve(kmax))
        row = rows[-1]
        print(f"kmax {kmax}: closed form {row['closed_form_cpu_s'] * 1e3:.2f} ms, LU "
              f"{row['lu_cpu_s'] * 1e3:.2f} ms, {row['speedup']:.1f}x; max C rel diff "
              f"{row['max_C_rel_diff']:.1e}, max R diff {row['max_R_diff_over_data']:.1e}",
              flush=True)
    harness.write_bench("coefficient_solve", {
        "what": "CPU seconds of memwave.modes._solve_coefficients against "
                f"tests/conftest.py::lu_coefficients; medians of {REPEATS} paired rounds",
        "inputs": f"beta {BETA}, a, b ~ N(0, 1) sine coefficients, seed {SEED}",
        "solve": rows,
    })


if __name__ == "__main__":
    main()
