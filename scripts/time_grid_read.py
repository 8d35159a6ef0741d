"""Time the CLI's plain-grid reader against np.loadtxt, alone and inside observe and
modes ops, and a modes op's peak memory; write BENCH_grid_read.json.

    python3 scripts/time_grid_read.py

Run from the root of a checkout on Linux; the program is imported from `src/`.
Three measurements:

- Grids.  Band-limited sample grids of kmax 64, 192 and 512 (129^2, 385^2 and
  1025^2 numbers, sine coefficients N(0, 1)/(k1^2 + k2^2), seed 901), written
  with `%.17g` as the benchmark writes them.  One stage is timed alone: a CSV
  file in, a float64 matrix out, as `cli._read_grid` of the file's bytes and
  as `np.loadtxt(path, delimiter=",", ndmin=2)`, in CPU time
  (`time.process_time`).  The two run in pairs, in alternating order; the
  medians of each and of the per-pair ratios are recorded with every sample,
  and the two matrices must be equal bit for bit.
- Block sizes.  The benchmark's ops, `observe --kmax 64` and `modes --kmax
  192` on three inputs each, run in fresh interpreters as the benchmark runs
  them, with `np.loadtxt` and with the reader at each of BLOCKS bytes, the
  settings taking turns.  Recorded per setting: the median CPU time and minor
  page faults of the grid-loading stage (`cli._load_initial_data`: both
  grids and their sine coefficients) and the median CPU time of the whole
  op.  Inside such an op, unlike alone, large blocks can page-fault their
  temporaries afresh; this chose `cli._GRID_BLOCK`.
- Peak memory.  VmHWM from /proc/self/status of a fresh interpreter that runs
  one `modes --kmax 192` op on the 385^2 grids, with the reader and with
  `np.loadtxt` for every grid, median of HWM_SAMPLES each.  The benchmark's
  peak_rss_mb is `ru_maxrss`, which on Linux keeps the spawning process's
  high-water mark across exec, so it cannot show this.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

import memwave.cli as cli  # noqa: E402

KMAX = (64, 192, 512)
PAIRS = {64: 41, 192: 21, 512: 7}
BLOCKS = (1 << 15, 1 << 16, 3 << 15, 1 << 17, 3 << 16, 1 << 18, 1 << 19)
#: Rounds of the three inputs per interpreter, and interpreters per setting, of
#: the benchmark's observe and modes ops (as in bench/workloads.py).
OP_ROUNDS = {"observe": 15, "modes": 2}
OP_CHILDREN = 3
SEED = 901
HWM_KMAX = 192
HWM_SAMPLES = 5

#: One modes op (argv[2:] are its flags; argv[1] == "loadtxt" turns the reader
#: off), then the child's peak RSS in kB.
HWM_CHILD = """
import sys
import memwave.cli as cli
if sys.argv[1] == "loadtxt":
    cli._read_grid = lambda data: None
cli.parse_and_dispatch(sys.argv[2:])
print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])
"""


#: One warm-up op per input, then rounds of ops (argv[3] is their JSON list of
#: argv lists) with the reader off (argv[1] == "loadtxt") or at a block of
#: argv[1] bytes; prints (op CPU s, load-stage CPU s, load-stage minor page
#: faults) per op.
OP_CHILD = """
import json, resource, sys, time
import memwave.cli as cli
if sys.argv[1] == "loadtxt":
    cli._read_grid = lambda data: None
else:
    cli._GRID_BLOCK = int(sys.argv[1])
load, stage, ops = cli._load_initial_data, [], json.loads(sys.argv[3])
def timed_load(res, kmax):
    faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
    data = load(res, kmax)
    stage.append((time.process_time() - start,
                  resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return data
cli._load_initial_data = timed_load
for argv in ops:
    cli.parse_and_dispatch(argv)
samples = []
for argv in ops * int(sys.argv[2]):
    start = time.process_time()
    if cli.parse_and_dispatch(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
    samples.append((time.process_time() - start, *stage[-1]))
print(json.dumps(samples))
"""


def write_grid(kmax: int, path: Path, rng) -> None:
    """Samples of band-limited sine coefficients on the (2 kmax + 1)^2 grid, as `%.17g`."""
    k = np.arange(1, kmax + 1, dtype=float)
    coeffs = rng.standard_normal((kmax, kmax)) / (k[:, None] ** 2 + k[None, :] ** 2)
    m = 2 * kmax + 1
    sines = np.sin(np.outer(k, np.pi / (m + 1) * np.arange(1, m + 1)))
    np.savetxt(path, sines.T @ coeffs @ sines, delimiter=",", fmt="%.17g")


def read_with_reader(path: Path) -> np.ndarray:
    return cli._read_grid(path.read_bytes())


def read_with_loadtxt(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def cpu_seconds(fn, *args):
    """(CPU seconds of one call, its result)."""
    start = time.process_time()
    value = fn(*args)
    return time.process_time() - start, value


def paired(path: Path, pairs: int) -> dict:
    """Reader and loadtxt on one file, `pairs` times in alternating order."""
    samples = {"reader": [], "loadtxt": []}
    for i in range(pairs):
        order = ("reader", "loadtxt") if i % 2 == 0 else ("loadtxt", "reader")
        for name in order:
            seconds, grid = cpu_seconds(read_with_reader if name == "reader" else read_with_loadtxt,
                                        path)
            samples[name].append(seconds)
            if name == "reader" and grid is None:
                raise SystemExit(f"{path}: the reader fell back")
    ratios = [b / a for a, b in zip(samples["reader"], samples["loadtxt"])]
    return {"reader_cpu_s": statistics.median(samples["reader"]),
            "loadtxt_cpu_s": statistics.median(samples["loadtxt"]),
            "speedup": statistics.median(ratios),
            "reader_faster_in": sum(r > 1.0 for r in ratios),
            "pairs": pairs,
            "reader_samples_s": samples["reader"], "loadtxt_samples_s": samples["loadtxt"]}


def measure_grids(paths: dict) -> list:
    rows = []
    for kmax, path in paths.items():
        if read_with_reader(path).tobytes() != read_with_loadtxt(path).tobytes():
            raise SystemExit(f"kmax {kmax}: the reader and loadtxt disagree")
        row = {"kmax": kmax, "numbers": (2 * kmax + 1) ** 2, "bytes": path.stat().st_size,
               "block": cli._GRID_BLOCK, **paired(path, PAIRS[kmax])}
        rows.append(row)
        print(f"kmax {kmax}: reader {row['reader_cpu_s'] * 1e3:.1f} ms, loadtxt "
              f"{row['loadtxt_cpu_s'] * 1e3:.1f} ms, {row['speedup']:.2f}x "
              f"(faster in {row['reader_faster_in']}/{row['pairs']})", flush=True)
    return rows


def write_ops(directory: Path, rng) -> dict:
    """Three inputs of each benchmark op: argv lists, --output included."""
    ops = {"observe": [], "modes": []}
    for name, kmax in (("observe", 64), ("modes", 192)):
        for index in range(3):
            u0, u1 = directory / f"{name}{index}-u0.csv", directory / f"{name}{index}-u1.csv"
            write_grid(kmax, u0, rng)
            write_grid(kmax, u1, rng)
            flags = (["--T", "50.0", "--mu", "1.0", "--beta", repr(rng.uniform(0.005, 0.02))]
                     if name == "observe" else ["--beta", repr(rng.uniform(0.05, 1.1))])
            ops[name].append([name, "--kmax", str(kmax), *flags, "--u0", str(u0), "--u1", str(u1),
                              "--output", str(directory / "op.out")])
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_blocks(ops: dict) -> list:
    """Grid-loading stage and whole op, per reader setting, inside the benchmark's ops,
    each setting in fresh interpreters as the benchmark runs them."""
    settings = ("loadtxt", *BLOCKS)
    samples = {(name, setting): [] for name in ops for setting in settings}
    for _ in range(OP_CHILDREN):
        for name, argvs in ops.items():
            for setting in settings:
                out = subprocess.run([sys.executable, "-c", OP_CHILD, str(setting),
                                      str(OP_ROUNDS[name]), json.dumps(argvs)],
                                     env=child_env(), check=True, stdout=subprocess.PIPE,
                                     text=True).stdout
                samples[name, setting] += json.loads(out)
    rows = []
    for (name, setting), values in samples.items():
        op_s, load_s, faults = (statistics.median(column) for column in zip(*values))
        rows.append({"op": name, "block": setting, "op_cpu_s": op_s, "load_cpu_s": load_s,
                     "load_page_faults": faults, "ops": len(values)})
        print(f"{name} {setting}: load {load_s * 1e3:.1f} ms ({faults:.0f} faults), "
              f"op {op_s * 1e3:.1f} ms", flush=True)
    return rows


def measure_peak_memory(u0: Path, u1: Path, directory: Path) -> dict:
    """Median VmHWM (MB) of a fresh interpreter running one modes op, per grid reader."""
    env = child_env()
    op = ["modes", "--beta", "0.3", "--kmax", str(HWM_KMAX), "--u0", str(u0), "--u1", str(u1),
          "--output", str(directory / "modes.json")]
    peaks = {"reader": [], "loadtxt": []}
    for _ in range(HWM_SAMPLES):
        for name in peaks:
            out = subprocess.run([sys.executable, "-c", HWM_CHILD, name, *op], env=env, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
            peaks[name].append(int(out) / 1024.0)
    return {"kmax": HWM_KMAX, "reader_vmhwm_mb": statistics.median(peaks["reader"]),
            "loadtxt_vmhwm_mb": statistics.median(peaks["loadtxt"]),
            "reader_samples_mb": peaks["reader"], "loadtxt_samples_mb": peaks["loadtxt"]}


def main() -> int:
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        paths = {}
        for kmax in KMAX:
            paths[kmax] = directory / f"grid-{kmax}.csv"
            write_grid(kmax, paths[kmax], rng)
        u1 = directory / "u1.csv"
        write_grid(HWM_KMAX, u1, rng)
        memory = measure_peak_memory(paths[HWM_KMAX], u1, directory)
        print(f"modes kmax {HWM_KMAX} op: VmHWM {memory['reader_vmhwm_mb']:.1f} MB with the "
              f"reader, {memory['loadtxt_vmhwm_mb']:.1f} MB with loadtxt", flush=True)
        rows = measure_grids(paths)
        blocks = measure_blocks(write_ops(directory, rng))
    report = {
        "what": "CPU seconds to read a %.17g CSV grid into float64: memwave.cli._read_grid of "
                "the file's bytes against np.loadtxt(path, delimiter=',', ndmin=2), paired in "
                "alternating order, medians; speedup is the median of per-pair ratios.  "
                "blocks: median CPU s and minor page faults of cli._load_initial_data, and "
                "CPU s of the whole op, inside observe --kmax 64 and modes --kmax 192 ops "
                "interleaved over the settings.  peak_memory: VmHWM of a fresh interpreter "
                f"running one modes op, median of {HWM_SAMPLES}",
        "inputs": f"band-limited sine coefficients N(0, 1)/(k1^2 + k2^2), seed {SEED}",
        "host": {"machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
        "blocks": blocks,
        "peak_memory": memory,
    }
    out = ROOT / "BENCH_grid_read.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
