"""Time the CLI table writer against the reference writer; write BENCH_serialization.json.

    python3 scripts/time_serialization.py

Run from the root of a checkout; the program is imported from `src/` and the
reference writer (the recursive JSON walker the CLI used before its row
templates) from `tests/conftest.py`.  Only the serialization stage is timed:
the columns of each table are computed once, then each writer turns them into
text, in CPU time (`time.process_time`, user + system of this process).  The
tables are those of `modes` (beta 0.3, normal random sine coefficients, seed
701) and `spectrum --format json` and `--format csv` (beta 0.4, eta 0.6).
Each writer runs REPEATS times; the median is recorded with every sample, and
the two texts must be equal byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from conftest import reference_mode_table  # noqa: E402
from memwave import InitialData, KernelParams, expand, mode_spectrum  # noqa: E402
from memwave.cli import _mode_table  # noqa: E402
from memwave.spectrum import _vieta_residuals  # noqa: E402

KMAX = (64, 192, 512)
#: (table, format) pairs timed at every kmax.
TABLES = (("modes", "json"), ("spectrum", "json"), ("spectrum", "csv"))
REPEATS = 5
SEED = 701


def modes_columns(kmax: int) -> dict:
    """The columns `modes` writes, for random sine coefficients."""
    rng = np.random.default_rng(SEED)
    data = InitialData(a=rng.normal(size=(kmax, kmax)), b=rng.normal(size=(kmax, kmax)),
                       kmax=kmax)
    e = expand(KernelParams.limiting_regime(0.3), data)
    return {"C_re": e.C.real, "C_im": e.C.imag, "R": e.R, "re_omega": e.omega.real,
            "im_omega": e.omega.imag, "r": e.r}


def spectrum_columns(kmax: int) -> dict:
    """The columns `spectrum` writes."""
    params = KernelParams(beta=0.4, eta=0.6)
    lam, omega, r = mode_spectrum(params, kmax)
    residual = np.maximum.reduce(_vieta_residuals(
        1j * omega, -1j * omega.conj(), r.astype(complex), params, lam))
    return {"lambda": lam, "re_omega": omega.real, "im_omega": omega.imag, "r": r,
            "residual": residual}


def cpu_seconds(fn, *args):
    """(CPU seconds of one call, its result)."""
    start = time.process_time()
    value = fn(*args)
    return time.process_time() - start, value


def measure(table: str, fmt: str, kmax: int, repeats: int = REPEATS) -> dict:
    """Median CPU time of both writers on one table, their samples and the output size."""
    columns = (modes_columns if table == "modes" else spectrum_columns)(kmax)
    samples = {"cli": [], "reference": []}
    for _ in range(repeats):
        seconds, text = cpu_seconds(_mode_table, columns, fmt)
        samples["cli"].append(seconds)
        seconds, reference = cpu_seconds(reference_mode_table, columns, fmt)
        samples["reference"].append(seconds)
        if text != reference:
            raise SystemExit(f"{table} {fmt} kmax {kmax}: the writers disagree")
        del reference
    cli_s = statistics.median(samples["cli"])
    reference_s = statistics.median(samples["reference"])
    return {
        "table": table,
        "format": fmt,
        "kmax": kmax,
        "bytes": len(text),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "cli_cpu_s": cli_s,
        "reference_cpu_s": reference_s,
        "speedup": reference_s / cli_s,
        "cli_samples_s": samples["cli"],
        "reference_samples_s": samples["reference"],
    }


def main() -> int:
    rows = []
    for table, fmt in TABLES:
        for kmax in KMAX:
            rows.append(measure(table, fmt, kmax))
            row = rows[-1]
            print(f"{table} {fmt} kmax {kmax}: {row['bytes'] / 1e6:.1f} MB, CLI "
                  f"{row['cli_cpu_s']:.3f} s, reference {row['reference_cpu_s']:.3f} s, "
                  f"{row['speedup']:.1f}x", flush=True)
    report = {
        "what": "CPU seconds to write the modes table and the spectrum table as json and csv: "
                "memwave.cli._mode_table against tests/conftest.py::reference_mode_table, "
                f"median of {REPEATS}; both texts are byte-identical",
        "inputs": {"modes": f"beta 0.3, a, b ~ N(0, 1) sine coefficients, seed {SEED}",
                   "spectrum": "beta 0.4, eta 0.6"},
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "rows": rows,
    }
    out = ROOT / "BENCH_serialization.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
