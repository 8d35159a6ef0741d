"""Time the closed-form coefficient solve against its LU oracle, and writing the
modes table joined against block by block; write BENCH_coefficient_solve.json.

    python3 scripts/time_coefficient_solve.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle (`lu_coefficients`, one complex 3x3 LU solve per mode by
`np.linalg.solve`) from `tests/conftest.py`.  Every time is CPU time
(`time.process_time`, user + system of this process), REPEATS samples kept
with their median.  The BLAS pool is held to one thread, set before numpy
loads.

- Solve.  For each kmax, `modes._solve_coefficients` and the oracle on the
  same spectrum (beta BETA) and N(0, 1) sine coefficients (seed SEED).  Each
  row records the largest |C - C_lu| / |C_lu| and |R - R_lu| / max(|a|, |b|).
- Write.  The texts of the kmax-192 modes table (`cli._mode_table`, made
  once, untimed) written to a file in a temporary directory, as the writer
  did before (joined into one string, then written) and as `cli._write_output`
  does now (each text in turn).  Both files must be equal byte for byte.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from conftest import lu_coefficients  # noqa: E402
from memwave import InitialData, KernelParams, expand, mode_spectrum  # noqa: E402
from memwave.cli import _mode_table, _write_output  # noqa: E402
from memwave.modes import _solve_coefficients  # noqa: E402

KMAX = (64, 192, 384, 512)
WRITE_KMAX = 192
BETA = 0.3
SEED = 701
REPEATS = 7


def cpu_seconds(fn, *args):
    """(CPU seconds of one call, its result)."""
    start = time.process_time()
    value = fn(*args)
    return time.process_time() - start, value


def measure_solve(kmax: int, repeats: int = REPEATS) -> dict:
    """Median CPU time of the closed form and the LU oracle at one kmax, and
    their largest disagreement."""
    lam, omega, r = mode_spectrum(KernelParams.limiting_regime(BETA), kmax)
    rng = np.random.default_rng(SEED)
    a, b = rng.normal(size=(kmax, kmax)), rng.normal(size=(kmax, kmax))
    args = (1j * omega, r, a, b, lam)
    samples = {"closed_form": [], "lu": []}
    for _ in range(repeats):
        seconds, (C, R) = cpu_seconds(_solve_coefficients, *args)
        samples["closed_form"].append(seconds)
        seconds, (C_lu, R_lu) = cpu_seconds(lu_coefficients, *args)
        samples["lu"].append(seconds)
    closed_form_s = statistics.median(samples["closed_form"])
    lu_s = statistics.median(samples["lu"])
    return {
        "kmax": kmax,
        "closed_form_cpu_s": closed_form_s,
        "lu_cpu_s": lu_s,
        "speedup": lu_s / closed_form_s,
        "max_C_rel_diff": float(np.max(np.abs(C - C_lu) / np.abs(C_lu))),
        "max_R_diff_over_data": float(np.max(np.abs(R - R_lu)
                                             / np.maximum(np.abs(a), np.abs(b)))),
        "closed_form_samples_s": samples["closed_form"],
        "lu_samples_s": samples["lu"],
    }


def write_joined(texts: list, path: Path) -> None:
    """The former writer: one string of the whole output, then one write."""
    with open(path, "w", newline="") as handle:
        handle.write("".join(texts))


def measure_write(repeats: int = REPEATS) -> dict:
    """Median CPU time of writing the modes table joined and block by block."""
    rng = np.random.default_rng(SEED)
    data = InitialData(a=rng.normal(size=(WRITE_KMAX, WRITE_KMAX)),
                       b=rng.normal(size=(WRITE_KMAX, WRITE_KMAX)), kmax=WRITE_KMAX)
    e = expand(KernelParams.limiting_regime(BETA), data)
    texts = _mode_table({"C_re": e.C.real, "C_im": e.C.imag, "R": e.R, "re_omega": e.omega.real,
                         "im_omega": e.omega.imag, "r": e.r}, "json")
    samples = {"joined": [], "blocks": []}
    with tempfile.TemporaryDirectory() as tmp:
        joined, blocks = Path(tmp) / "joined.json", Path(tmp) / "blocks.json"
        for _ in range(repeats):
            samples["joined"].append(cpu_seconds(write_joined, texts, joined)[0])
            samples["blocks"].append(cpu_seconds(_write_output, texts, str(blocks))[0])
        if joined.read_bytes() != blocks.read_bytes():
            raise SystemExit("the joined and the block-by-block files differ")
        size = blocks.stat().st_size
    joined_s = statistics.median(samples["joined"])
    blocks_s = statistics.median(samples["blocks"])
    return {"kmax": WRITE_KMAX, "bytes": size, "texts": len(texts),
            "joined_cpu_s": joined_s, "blocks_cpu_s": blocks_s,
            "joined_samples_s": samples["joined"], "blocks_samples_s": samples["blocks"]}


def main() -> int:
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
    report = {
        "what": "CPU seconds of memwave.modes._solve_coefficients against "
                "tests/conftest.py::lu_coefficients, and of writing the modes table joined "
                f"into one string against block by block; medians of {REPEATS}",
        "inputs": f"beta {BETA}, a, b ~ N(0, 1) sine coefficients, seed {SEED}",
        "host": {"machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "solve": rows,
        "write": write,
    }
    out = ROOT / "BENCH_coefficient_solve.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
