"""Time the CLI's plain-grid reader against np.loadtxt, alone and inside observe and
modes ops, and a modes op's peak memory; write BENCH_grid_read.json.

    python3 scripts/time_grid_read.py

Run from the root of a checkout on Linux; the program is imported from `src/`.
Three measurements:

- Grids.  Band-limited sample grids of kmax 64, 192 and 512 (129^2, 385^2 and
  1025^2 numbers, sine coefficients N(0, 1)/(k1^2 + k2^2), seed 901), written
  with `%.17g` as the benchmark writes them.  One stage is timed alone, under
  the CLI's process policy: a CSV file in, a float64 matrix out, as
  `cli._read_grid` of the file's bytes and as `np.loadtxt(path, delimiter=",",
  ndmin=2)`, in paired rounds; the two matrices must be equal bit for bit in
  every round.
- Block sizes.  The benchmark's ops, `observe --kmax 64` and `modes --kmax
  192` on three inputs each, run in fresh interpreters as the benchmark runs
  them, with `np.loadtxt` and with the reader at each of BLOCKS bytes, the
  settings taking turns in an order rotated by one for each interpreter.
  Recorded per setting: the median CPU time and minor page faults of the
  grid-loading stage (`cli._load_initial_data`: both grids and their sine
  coefficients) and the median CPU time of the whole op.  The ops run under
  the process policy `cli.parse_and_dispatch` sets, so a block's
  temporaries are faulted in once per process, not once per block; what is
  left to choose by is the cache.  This chose `cli._GRID_BLOCK`.
- Peak memory.  VmHWM of a fresh interpreter that runs one `modes --kmax
  192` op on the 385^2 grids, with the reader and with `np.loadtxt` for every
  grid, median of HWM_SAMPLES each.  The benchmark's peak_rss_mb is
  `ru_maxrss`, which on Linux keeps the spawning process's high-water mark
  across exec, so it cannot show this.

Timing, BLAS pool, children and grids are those of `scripts/harness.py`.
"""

from __future__ import annotations

import json
import statistics
import tempfile
from pathlib import Path

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

import memwave.cli as cli

KMAX = (64, 192, 512)
PAIRS = {64: 41, 192: 21, 512: 7}
BLOCKS = (1 << 15, 1 << 16, 3 << 15, 1 << 17, 3 << 16, 1 << 18, 1 << 19, 1 << 20)
#: Rounds of the three inputs per interpreter, and interpreters per setting, of
#: the benchmark's observe and modes ops (as in bench/workloads.py).
OP_ROUNDS = {"observe": 15, "modes": 2}
OP_CHILDREN = 6
SEED = 901
HWM_KMAX = 192
HWM_SAMPLES = 5

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


def measure_grids(paths: dict) -> list:
    rows = []
    for kmax, path in paths.items():
        record, _ = harness.paired(
            {"reader": harness.timed(lambda: cli._read_grid(path.read_bytes())),
             "loadtxt": harness.timed(lambda: np.loadtxt(path, delimiter=",", ndmin=2))},
            PAIRS[kmax], harness.bits_equal, f"grid at kmax {kmax}")
        row = {"kmax": kmax, "numbers": (2 * kmax + 1) ** 2, "bytes": path.stat().st_size,
               "block": cli._GRID_BLOCK, **record}
        rows.append(row)
        print(f"kmax {kmax}: reader {row['reader_cpu_s'] * 1e3:.1f} ms, loadtxt "
              f"{row['loadtxt_cpu_s'] * 1e3:.1f} ms, {row['speedup']:.2f}x "
              f"(faster in {row['reader_faster_in']}/{row['rounds']})", flush=True)
    return rows


def measure_blocks(ops: dict) -> list:
    """Grid-loading stage and whole op, per reader setting, inside the benchmark's ops,
    each setting in fresh interpreters as the benchmark runs them."""
    settings = ("loadtxt", *BLOCKS)
    samples = {(name, setting): [] for name in ops for setting in settings}
    for i in range(OP_CHILDREN):
        for name, argvs in ops.items():
            for setting in settings[i % len(settings):] + settings[:i % len(settings)]:
                out = harness.child(OP_CHILD, str(setting), str(OP_ROUNDS[name]),
                                    json.dumps(argvs)).stdout
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
    op = ["modes", "--beta", "0.3", "--kmax", str(HWM_KMAX), "--u0", str(u0), "--u1", str(u1),
          "--output", str(directory / "modes.json")]
    settings = {"reader": str(cli._GRID_BLOCK), "loadtxt": "loadtxt"}
    peaks = {name: [] for name in settings}
    for _ in range(HWM_SAMPLES):
        for name, setting in settings.items():  # the op once, as the warm-up of no rounds
            peaks[name].append(harness.child(OP_CHILD, setting, "0", json.dumps([op])).vmhwm_mb)
    return {"kmax": HWM_KMAX, "reader_vmhwm_mb": statistics.median(peaks["reader"]),
            "loadtxt_vmhwm_mb": statistics.median(peaks["loadtxt"]),
            "reader_samples_mb": peaks["reader"], "loadtxt_samples_mb": peaks["loadtxt"]}


def main() -> None:
    cli._set_process_policy()  # the grids alone are read as the CLI reads them
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        paths = {}
        for kmax in KMAX:
            paths[kmax] = directory / f"grid-{kmax}.csv"
            harness.write_random_grid(kmax, paths[kmax], rng)
        u1 = directory / "u1.csv"
        harness.write_random_grid(HWM_KMAX, u1, rng)
        memory = measure_peak_memory(paths[HWM_KMAX], u1, directory)
        print(f"modes kmax {HWM_KMAX} op: VmHWM {memory['reader_vmhwm_mb']:.1f} MB with the "
              f"reader, {memory['loadtxt_vmhwm_mb']:.1f} MB with loadtxt", flush=True)
        rows = measure_grids(paths)
        blocks = measure_blocks(harness.write_ops(directory, rng))
    harness.write_bench("grid_read", {
        "what": "CPU seconds to read a %.17g CSV grid into float64: memwave.cli._read_grid of "
                "the file's bytes against np.loadtxt(path, delimiter=',', ndmin=2), paired in "
                "alternating order, medians; speedup is the median of per-pair ratios.  "
                "blocks: median CPU s and minor page faults of cli._load_initial_data, and "
                "CPU s of the whole op, inside observe --kmax 64 and modes --kmax 192 ops "
                "interleaved over the settings.  peak_memory: VmHWM of a fresh interpreter "
                f"running one modes op, median of {HWM_SAMPLES}",
        "inputs": f"band-limited sine coefficients N(0, 1)/(k1^2 + k2^2), seed {SEED}",
        "rows": rows,
        "blocks": blocks,
        "peak_memory": memory,
    })


if __name__ == "__main__":
    main()
