"""Time the closed-form coefficient solve against its LU oracle, and writing the
modes table joined against block by block; write BENCH_coefficient_solve.json.

    python3 scripts/time_coefficient_solve.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle (`lu_coefficients`, one complex 3x3 LU solve per mode by
`np.linalg.solve`) from `tests/conftest.py`.  Timing, BLAS pool and agreement
checks are those of `scripts/harness.py`; REPEATS rounds each.

- Solve.  For each kmax, `modes._solve_coefficients` and the oracle on the
  same spectrum (beta BETA) and N(0, 1) sine coefficients (seed SEED).  They
  must agree as in the test suite: |C - C_lu| <= 2e-15 |C_lu| and
  |R - R_lu| <= 2e-15 max(|a|, |b|).  Each row records the largest
  |C - C_lu| / |C_lu| and |R - R_lu| / max(|a|, |b|).
- Write.  The texts of the kmax-192 modes table (`cli._mode_table`, made
  once, untimed) written to a file in a temporary directory, as the writer
  did before (joined into one string, then written) and as `cli._write_output`
  does now (each text in turn).  Both files must be equal byte for byte.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

from conftest import lu_coefficients
from memwave import InitialData, KernelParams, expand, mode_spectrum
from memwave.cli import _mode_table, _write_output
from memwave.modes import _solve_coefficients

KMAX = (64, 192, 384, 512)
WRITE_KMAX = 192
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


def write_joined(texts: list, path: Path) -> None:
    """The former writer: one string of the whole output, then one write."""
    with open(path, "w", newline="") as handle:
        handle.write("".join(texts))


def measure_write() -> dict:
    """Writing the modes table joined and block by block."""
    rng = np.random.default_rng(SEED)
    data = InitialData(a=rng.normal(size=(WRITE_KMAX, WRITE_KMAX)),
                       b=rng.normal(size=(WRITE_KMAX, WRITE_KMAX)), kmax=WRITE_KMAX)
    e = expand(KernelParams.limiting_regime(BETA), data)
    texts = _mode_table({"C_re": e.C.real, "C_im": e.C.imag, "R": e.R, "re_omega": e.omega.real,
                         "im_omega": e.omega.imag, "r": e.r}, "json")
    with tempfile.TemporaryDirectory() as tmp:
        joined, blocks = Path(tmp) / "joined.json", Path(tmp) / "blocks.json"
        record, _ = harness.paired(
            {"blocks": harness.timed(_write_output, texts, str(blocks)),
             "joined": harness.timed(write_joined, texts, joined)}, REPEATS,
            lambda *_: joined.read_bytes() == blocks.read_bytes(), "the modes table files")
        size = blocks.stat().st_size
    return {"kmax": WRITE_KMAX, "bytes": size, "texts": len(texts), **record}


def main() -> None:
    rows = []
    for kmax in KMAX:
        rows.append(measure_solve(kmax))
        row = rows[-1]
        print(f"kmax {kmax}: closed form {row['closed_form_cpu_s'] * 1e3:.2f} ms, LU "
              f"{row['lu_cpu_s'] * 1e3:.2f} ms, {row['speedup']:.1f}x; max C rel diff "
              f"{row['max_C_rel_diff']:.1e}, max R diff {row['max_R_diff_over_data']:.1e}",
              flush=True)
    write = measure_write()
    print(f"modes kmax {WRITE_KMAX} table, {write['bytes'] / 1e6:.1f} MB in {write['texts']} "
          f"texts: joined {write['joined_cpu_s'] * 1e3:.1f} ms, block by block "
          f"{write['blocks_cpu_s'] * 1e3:.1f} ms", flush=True)
    harness.write_bench("coefficient_solve", {
        "what": "CPU seconds of memwave.modes._solve_coefficients against "
                "tests/conftest.py::lu_coefficients, and of writing the modes table block by "
                f"block against joined into one string; medians of {REPEATS} paired rounds",
        "inputs": f"beta {BETA}, a, b ~ N(0, 1) sine coefficients, seed {SEED}",
        "solve": rows,
        "write": write,
    })


if __name__ == "__main__":
    main()
