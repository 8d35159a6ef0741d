"""Time the boundary-trace energy against its pairwise oracle; write BENCH_trace_energy.json.

    python3 scripts/time_trace_energy.py [--baseline REV]

Run from the root of a checkout; the program is imported from `src/` and the
oracle from `tests/conftest.py`.  For each row, one expansion (normal random
sine coefficients, seed 601) is timed at T = 50, the horizon of the `observe`
benchmark workload, in CPU time (`time.process_time`, user + system of every
thread of the process, so a BLAS product that spreads over threads costs
their sum).  The kernel runs in a fresh interpreter, as many times as its
row says (5, or 1 at kmax 512); the median is recorded with every sample.
The oracle runs as often, in this process.

With --baseline, the kernel of that git revision (exported with `git archive`
into a temporary directory) is timed the same way on the same inputs, for a
before/after comparison.

The BLAS pool is sized to the CPUs this process may run on, as in the
benchmark, before numpy loads; the thread count that OpenBLAS then reports is
recorded.  The kernel's matrix products are small enough to stay on one of
those threads.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)

#: (kmax, beta, repeats) per row.
ROWS = ((32, 0.01, 5), (64, 0.01, 5), (128, 0.01, 5), (128, 0.0, 5), (256, 0.01, 5),
        (512, 0.01, 1))
T, SEED = 50.0, 601


def expansion_for(kmax: int, beta: float):
    """The timed expansion, from whichever memwave is first on sys.path."""
    import numpy as np
    from memwave import InitialData, KernelParams, expand

    rng = np.random.default_rng(SEED)
    data = InitialData(a=rng.normal(size=(kmax, kmax)), b=rng.normal(size=(kmax, kmax)),
                       kmax=kmax)
    return expand(KernelParams.limiting_regime(beta), data)


def cpu_samples(fn, args, repeats: int) -> tuple:
    """(CPU seconds of each of `repeats` calls, the last result)."""
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        value = fn(*args)
        samples.append(time.process_time() - start)
    return samples, value


def worker(src: str, kmax: int, beta: float, repeats: int) -> None:
    """Time boundary_trace_energy of the memwave in `src`; print samples and value as JSON."""
    sys.path.insert(0, src)
    from memwave import boundary_trace_energy

    boundary_trace_energy(expansion_for(8, beta), T)  # warm up, untimed
    samples, value = cpu_samples(boundary_trace_energy, (expansion_for(kmax, beta), T), repeats)
    print(json.dumps({"samples": samples, "value": value}))


def time_kernel(src: Path, kmax: int, beta: float, repeats: int) -> dict:
    """Run `worker` in a fresh interpreter on the memwave in `src`."""
    result = subprocess.run(
        [sys.executable, __file__, "--worker", str(src), json.dumps([kmax, beta, repeats])],
        capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None if it is not found."""
    import numpy as np

    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        library = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, name):
                get = getattr(library, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def export(rev: str, into: Path) -> tuple:
    """Extract `src/` of git revision `rev` into `into`; return its commit and
    that src directory."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit, into / "src"


def measure(kmax: int, beta: float, repeats: int, baseline_src) -> dict:
    """Median CPU time of the kernel, the oracle and the baseline at one row, with samples."""
    from conftest import pairwise_trace_energy

    kernel = time_kernel(ROOT / "src", kmax, beta, repeats)
    oracle_samples, oracle = cpu_samples(pairwise_trace_energy,
                                         (expansion_for(kmax, beta), T), repeats)
    row = {
        "kmax": kmax,
        "beta": beta,
        "cpu_s": statistics.median(kernel["samples"]),
        "pairwise_cpu_s": statistics.median(oracle_samples),
        "relative_difference": abs(kernel["value"] - oracle) / oracle,
    }
    row["speedup_vs_pairwise"] = row["pairwise_cpu_s"] / row["cpu_s"]
    if baseline_src is not None:
        baseline = time_kernel(baseline_src, kmax, beta, repeats)
        row["baseline_cpu_s"] = statistics.median(baseline["samples"])
        row["speedup_vs_baseline"] = row["baseline_cpu_s"] / row["cpu_s"]
        row["baseline_relative_difference"] = abs(baseline["value"] - oracle) / oracle
        row["baseline_samples_s"] = baseline["samples"]
    row["samples_s"] = kernel["samples"]
    row["pairwise_samples_s"] = oracle_samples
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", metavar="REV",
                        help="also time boundary_trace_energy of this git revision")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker[0], *json.loads(args.worker[1]))
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        baseline, baseline_src = (export(args.baseline, Path(tmp)) if args.baseline
                                  else (None, None))
        for kmax, beta, repeats in ROWS:
            rows.append(measure(kmax, beta, repeats, baseline_src))
            row = rows[-1]
            against = (f", baseline {row['baseline_cpu_s']:.4f} s "
                       f"({row['speedup_vs_baseline']:.2f}x)" if baseline_src else "")
            print(f"kmax {kmax} beta {beta}: {row['cpu_s']:.4f} s{against}, pairwise "
                  f"{row['pairwise_cpu_s']:.4f} s, relative difference "
                  f"{row['relative_difference']:.1e}", flush=True)
    report = {
        "what": "CPU seconds of observability.boundary_trace_energy (tiled Cauchy-form "
                "kernel), of the pairwise oracle tests/conftest.py::pairwise_trace_energy "
                "and, when given, of the kernel of a baseline revision; medians of "
                "the samples listed",
        "inputs": {"T": T, "seed": SEED,
                   "data": "a, b ~ N(0, 1) sine coefficients, kmax x kmax"},
        "baseline": baseline,
        "host": {"cpus": CPUS, "blas_threads": blas_threads(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
    }
    out = ROOT / "BENCH_trace_energy.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
