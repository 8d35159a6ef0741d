"""The timing harness of the `scripts/time_*.py` measurement scripts.

Importing it, before numpy loads, puts the checkout's `src/` and `tests/`
first on the path and sizes the BLAS pool to the CPUs this process may run
on, as the benchmark does (`bench/run.py::program_env`); fresh interpreters
started by `child` inherit both.  Every time is CPU time: `time.process_time`
(user + system of every thread of this process) for a call in this process,
the growth of RUSAGE_CHILDREN for a child, or what a child measured of its
own calls.

`paired` is the one sampler: it runs its sides in rounds, each round in a
rotated order, so that of two sides each runs first in every other round,
and it checks that the fast path agrees with its oracle in every round.  A
disagreement stops the script with exit status 1, before any BENCH file is
written.  `write_bench` writes `BENCH_<name>.json` with the host record.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

#: The environment of a child: this one's BLAS pool, and `src/` first on its path.
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

#: Appended to a child's code: its peak RSS in kB, VmHWM, as its last line of
#: output.  Its `ru_maxrss` would not do: on Linux that keeps the spawning
#: process's high-water mark across exec.
_VMHWM = "\nprint(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])\n"


class Disagreement(SystemExit):
    """A fast path and its oracle disagree: exit status 1, with the message."""


def bits_equal(a, b) -> bool:
    """Two float arrays equal bit for bit (None, from a reader that fell back, never is)."""
    return (a is not None and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def timed(fn: Callable, *args) -> Callable:
    """A side of `paired`: one call of `fn(*args)` in this process, as
    (CPU seconds, its result)."""
    def run():
        start = time.process_time()
        value = fn(*args)
        return time.process_time() - start, value
    return run


def paired(sides: dict, rounds: int, agree: Callable, what: str) -> tuple:
    """Run each side (a callable returning (CPU seconds, value)) once per round,
    `rounds` rounds, each round in the order of `sides` rotated by its index.

    `agree(first, second)` must hold for the values of the first two sides,
    the fast path and its oracle, in every round; otherwise Disagreement,
    naming `what`.  Returns the record {<side>_cpu_s: median, speedup: median
    over rounds of second / first, <first>_faster_in: rounds, rounds,
    <side>_samples_s: samples} and the last value of each side."""
    names = list(sides)
    samples = {name: [] for name in names}
    values = {}
    for i in range(rounds):
        for name in names[i % len(names):] + names[:i % len(names)]:
            seconds, values[name] = sides[name]()
            samples[name].append(seconds)
        if not agree(values[names[0]], values[names[1]]):
            raise Disagreement(f"{what}: {names[0]} and {names[1]} disagree in round {i}")
    ratios = [b / a for a, b in zip(samples[names[0]], samples[names[1]])]
    record = {f"{name}_cpu_s": statistics.median(samples[name]) for name in names}
    record.update({"speedup": statistics.median(ratios),
                   f"{names[0]}_faster_in": sum(r > 1.0 for r in ratios), "rounds": rounds})
    record.update({f"{name}_samples_s": samples[name] for name in names})
    return record, values


class Child(NamedTuple):
    stdout: str
    stderr: str
    cpu_s: float
    vmhwm_mb: float


def child(code: str, *args: str, flags: tuple = ()) -> Child:
    """Run `code` in a fresh interpreter (`python [flags] -c code args`) with the
    child environment; its output (less the VmHWM line), user + system CPU
    seconds and VmHWM in MB.  A child that fails stops the script."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run([sys.executable, *flags, "-c", code + _VMHWM, *args],
                            env=_CHILD_ENV, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if result.returncode != 0:
        raise SystemExit(f"a child failed with status {result.returncode}:\n{result.stderr}")
    out, _, hwm_kb = result.stdout.rstrip("\n").rpartition("\n")
    cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return Child(out, result.stderr, cpu_s, int(hwm_kb) / 1024.0)


def write_grid(path: Path, coeffs: np.ndarray) -> None:
    """The band-limited sample grid ((2 kmax + 1)^2) of the kmax x kmax sine
    coefficients `coeffs`, as `%.17g` CSV, as the benchmark writes its grids."""
    kmax = coeffs.shape[0]
    m = 2 * kmax + 1
    k = np.arange(1, kmax + 1, dtype=float)
    sines = np.sin(np.outer(k, np.pi / (m + 1) * np.arange(1, m + 1)))
    np.savetxt(path, sines.T @ coeffs @ sines, delimiter=",", fmt="%.17g")


def write_random_grid(kmax: int, path: Path, rng) -> None:
    """A grid of band-limited sine coefficients N(0, 1)/(k1^2 + k2^2)."""
    k = np.arange(1, kmax + 1, dtype=float)
    coeffs = rng.standard_normal((kmax, kmax)) / (k[:, None] ** 2 + k[None, :] ** 2)
    write_grid(path, coeffs)


def write_ops(directory: Path, rng) -> dict:
    """Three inputs of each benchmark op, `observe --kmax 64` and `modes --kmax
    192` with the flags of bench/workloads.py: argv lists, --output included."""
    ops = {"observe": [], "modes": []}
    for name, kmax in (("observe", 64), ("modes", 192)):
        for index in range(3):
            u0, u1 = directory / f"{name}{index}-u0.csv", directory / f"{name}{index}-u1.csv"
            write_random_grid(kmax, u0, rng)
            write_random_grid(kmax, u1, rng)
            flags = (["--T", "50.0", "--mu", "1.0", "--beta", repr(rng.uniform(0.005, 0.02))]
                     if name == "observe" else ["--beta", repr(rng.uniform(0.05, 1.1))])
            ops[name].append([name, "--kmax", str(kmax), *flags, "--u0", str(u0), "--u1", str(u1),
                              "--output", str(directory / "op.out")])
    return ops


def blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None if it is not found."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        library = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, name):
                get = getattr(library, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def host() -> dict:
    """The host record of every BENCH file."""
    return {"machine": platform.machine(), "cpus": CPUS, "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__}


def write_bench(name: str, report: dict) -> None:
    """Write `report` and the host record to BENCH_<name>.json at the root of the checkout."""
    out = ROOT / f"BENCH_{name}.json"
    out.write_text(json.dumps({**report, "host": host()}, indent=1) + "\n")
    print(f"wrote {out}")
