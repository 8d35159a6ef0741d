"""Time the boundary-trace energy against its pairwise oracle; write BENCH_trace_energy.json.

    python3 scripts/time_trace_energy.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle from `tests/conftest.py`.  For each kmax, one expansion (beta 0.01,
normal random sine coefficients, seed 601) is timed at T = 50, the horizon of
the `observe` benchmark workload, in CPU time (`time.process_time`, user +
system of this process).  Each path runs REPEATS times; the median is
recorded with every sample.  The BLAS pool is sized to the CPUs this process
may run on, as in the benchmark; neither path calls BLAS.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402  (after the BLAS pool size is set)

from conftest import pairwise_trace_energy  # noqa: E402
from memwave import InitialData, KernelParams, boundary_trace_energy, expand  # noqa: E402

KMAX = (32, 64, 128, 256)
REPEATS = 5
BETA, T, SEED = 0.01, 50.0, 601


def cpu_seconds(fn, *args):
    """(CPU seconds of one call, its result)."""
    start = time.process_time()
    value = fn(*args)
    return time.process_time() - start, value


def measure(kmax: int, repeats: int = REPEATS) -> dict:
    """Median CPU time of both paths at one kmax, their samples and their agreement."""
    rng = np.random.default_rng(SEED)
    data = InitialData(a=rng.normal(size=(kmax, kmax)), b=rng.normal(size=(kmax, kmax)),
                       kmax=kmax)
    expansion = expand(KernelParams.limiting_regime(BETA), data)
    samples = {"gram": [], "pairwise": []}
    for _ in range(repeats):
        seconds, gram = cpu_seconds(boundary_trace_energy, expansion, T)
        samples["gram"].append(seconds)
        seconds, oracle = cpu_seconds(pairwise_trace_energy, expansion, T)
        samples["pairwise"].append(seconds)
    gram_s = statistics.median(samples["gram"])
    pairwise_s = statistics.median(samples["pairwise"])
    return {
        "kmax": kmax,
        "gram_cpu_s": gram_s,
        "pairwise_cpu_s": pairwise_s,
        "speedup": pairwise_s / gram_s,
        "relative_difference": abs(gram - oracle) / oracle,
        "gram_samples_s": samples["gram"],
        "pairwise_samples_s": samples["pairwise"],
    }


def main() -> int:
    rows = []
    for kmax in KMAX:
        rows.append(measure(kmax))
        row = rows[-1]
        print(f"kmax {kmax}: Gram {row['gram_cpu_s']:.4f} s, pairwise "
              f"{row['pairwise_cpu_s']:.4f} s, {row['speedup']:.1f}x, "
              f"relative difference {row['relative_difference']:.1e}", flush=True)
    report = {
        "what": "CPU seconds of observability.boundary_trace_energy (Gram kernel) and of "
                "the pairwise oracle tests/conftest.py::pairwise_trace_energy, "
                f"median of {REPEATS}",
        "inputs": {"beta": BETA, "T": T, "seed": SEED,
                   "data": "a, b ~ N(0, 1) sine coefficients, kmax x kmax"},
        "host": {"cpus": CPUS, "blas_threads": CPUS, "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
    }
    out = ROOT / "BENCH_trace_energy.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
