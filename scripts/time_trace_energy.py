"""Time the boundary-trace energy against its pairwise oracle; write BENCH_trace_energy.json.

    python3 scripts/time_trace_energy.py [--baseline REV]

Run from the root of a checkout; the program is imported from `src/` and the
oracle from `tests/conftest.py`.  For each row, one expansion (normal random
sine coefficients, seed 601) is timed at T = 50, the horizon of the `observe`
benchmark workload, in as many rounds as the row says (5, or 1 at kmax 512),
with the timing and BLAS pool of `scripts/harness.py`.  In each round the
kernel runs in a fresh interpreter under the process policy its CLI sets
(`cli._set_process_policy`, `cli._set_allocator_policy` before it, or none
before that), once untimed to warm up and once timed, and the oracle once in
this process; they must agree to 1e-12 relative, as in the test suite.

With --baseline, the kernel of that git revision (exported with `git archive`
into a temporary directory) is timed the same way on the same inputs, in the
same rounds, for a before/after comparison.  The kernel's matrix products are
small enough to stay on one BLAS thread even where the policy leaves the pool
alone.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

#: (kmax, beta, rounds) per row.
ROWS = ((32, 0.01, 5), (64, 0.01, 5), (128, 0.01, 5), (128, 0.0, 5), (256, 0.01, 5),
        (512, 0.01, 1))
T, SEED = 50.0, 601
SCRIPTS = str(Path(__file__).resolve().parent)

#: One timed boundary_trace_energy of `kernel_sample`, argv[1] the directory of
#: this script and argv[2] its arguments; prints [CPU seconds, value].
KERNEL_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from time_trace_energy import kernel_sample
print(json.dumps(kernel_sample(*json.loads(sys.argv[2]))))
"""


def expansion_for(kmax: int, beta: float):
    """The timed expansion, from whichever memwave is first on sys.path."""
    from memwave import InitialData, KernelParams, expand

    rng = np.random.default_rng(SEED)
    data = InitialData(a=rng.normal(size=(kmax, kmax)), b=rng.normal(size=(kmax, kmax)),
                       kmax=kmax)
    return expand(KernelParams.limiting_regime(beta), data)


def kernel_sample(src: str, kmax: int, beta: float) -> tuple:
    """(CPU seconds, value) of boundary_trace_energy of the memwave in `src`."""
    sys.path.insert(0, src)
    import memwave.cli as cli
    from memwave import boundary_trace_energy

    # as that revision's CLI runs ops
    getattr(cli, "_set_process_policy", getattr(cli, "_set_allocator_policy", lambda: None))()
    expansion = expansion_for(kmax, beta)
    boundary_trace_energy(expansion, T)  # warm up, untimed
    return harness.timed(boundary_trace_energy, expansion, T)()


def kernel(src: Path, kmax: int, beta: float):
    """A side of the sampler: one kernel sample in a fresh interpreter."""
    args = json.dumps([str(src), kmax, beta])
    return lambda: tuple(json.loads(harness.child(KERNEL_CHILD, SCRIPTS, args).stdout))


def export(rev: str, into: Path) -> tuple:
    """Extract `src/` of git revision `rev` into `into`; return its commit and
    that src directory."""
    git = ["git", "-C", str(harness.ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--short", rev],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run([*git, "archive", rev, "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit, into / "src"


def measure(kmax: int, beta: float, rounds: int, baseline_src) -> dict:
    """The kernel, the oracle and the baseline at one row."""
    from conftest import pairwise_trace_energy

    sides = {"kernel": kernel(harness.ROOT / "src", kmax, beta),
             "pairwise": harness.timed(pairwise_trace_energy, expansion_for(kmax, beta), T)}
    if baseline_src is not None:
        sides["baseline"] = kernel(baseline_src, kmax, beta)
    record, values = harness.paired(
        sides, rounds, lambda value, oracle: abs(value - oracle) <= 1e-12 * oracle,
        f"trace energy at kmax {kmax}, beta {beta}")
    oracle = values["pairwise"]
    row = {"kmax": kmax, "beta": beta,
           "relative_difference": abs(values["kernel"] - oracle) / oracle, **record}
    if baseline_src is not None:
        row["speedup_vs_baseline"] = statistics.median(
            b / a for a, b in zip(record["kernel_samples_s"], record["baseline_samples_s"]))
        row["baseline_relative_difference"] = abs(values["baseline"] - oracle) / oracle
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", metavar="REV",
                        help="also time boundary_trace_energy of this git revision")
    args = parser.parse_args()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        baseline, baseline_src = (export(args.baseline, Path(tmp)) if args.baseline
                                  else (None, None))
        for kmax, beta, rounds in ROWS:
            rows.append(measure(kmax, beta, rounds, baseline_src))
            row = rows[-1]
            against = (f", baseline {row['baseline_cpu_s']:.4f} s "
                       f"({row['speedup_vs_baseline']:.2f}x)" if baseline_src else "")
            print(f"kmax {kmax} beta {beta}: {row['kernel_cpu_s']:.4f} s{against}, pairwise "
                  f"{row['pairwise_cpu_s']:.4f} s, relative difference "
                  f"{row['relative_difference']:.1e}", flush=True)
    harness.write_bench("trace_energy", {
        "what": "CPU seconds of observability.boundary_trace_energy (tiled Cauchy-form "
                "kernel), of the pairwise oracle tests/conftest.py::pairwise_trace_energy "
                "and, when given, of the kernel of a baseline revision; medians of "
                "the rounds listed; speedup is pairwise over kernel",
        "inputs": {"T": T, "seed": SEED,
                   "data": "a, b ~ N(0, 1) sine coefficients, kmax x kmax"},
        "baseline": baseline,
        "rows": rows,
    })


if __name__ == "__main__":
    main()
