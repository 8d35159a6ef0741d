"""Count the page faults and CPU time of the benchmark's ops with and without the
CLI's process policy; write BENCH_page_faults.json.

    python3 scripts/time_page_faults.py

Run from the root of a checkout on Linux with glibc; the program is imported
from `src/`.  The benchmark's ops, `observe --kmax 64` and `modes --kmax 192`
on three band-limited inputs each (`harness.write_ops`, seed 907), run in
fresh interpreters as the benchmark runs them: each input once, then ROUNDS
more rounds of the three.  Half of the interpreters run under the process
policy `cli.parse_and_dispatch` sets (`cli._set_process_policy`: the allocator
thresholds and one BLAS thread); the other half stub it out before their first
op and keep glibc's allocator defaults and the harness's BLAS pool.  The two
settings take turns, CHILDREN interpreters each.

Recorded per op and setting, as medians over the interpreters (the first op)
or over every op after the first round (the steady state): the minor page
faults (`ru_minflt`), user + system CPU seconds and system CPU seconds of an
op, and the interpreter's VmHWM.  The first op is what one command-line run
costs; the steady state is what each op of a long-lived worker costs.  The
outputs of the two settings must be byte-identical, op for op, or the script
exits 1 with no BENCH file written.

Timing, BLAS pool and children are those of `scripts/harness.py`.
"""

from __future__ import annotations

import json
import statistics
import tempfile
from pathlib import Path

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

#: Rounds after the first, and interpreters per op and setting.
ROUNDS = {"observe": 10, "modes": 3}
CHILDREN = 5
SEED = 907
SETTINGS = ("policy", "no_policy")

#: Runs the ops of argv[2] (a JSON list of argv lists) once, then argv[1] more
#: rounds, with the process policy stubbed out when argv[3] is "no_policy";
#: prints (CPU s, system CPU s, minor faults, sha256 of the output) per op.
OP_CHILD = """
import hashlib, json, resource, sys, time
import memwave.cli as cli
if sys.argv[3] == "no_policy":
    cli._set_process_policy = lambda: None
ops, samples = json.loads(sys.argv[2]), []
for argv in ops * (1 + int(sys.argv[1])):
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.process_time()
    if cli.parse_and_dispatch(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
    cpu, after = time.process_time() - start, resource.getrusage(resource.RUSAGE_SELF)
    with open(argv[argv.index("--output") + 1], "rb") as output:
        digest = hashlib.sha256(output.read()).hexdigest()
    samples.append((cpu, after.ru_stime - before.ru_stime,
                    after.ru_minflt - before.ru_minflt, digest))
print(json.dumps(samples))
"""


def summary(runs: list, inputs: int) -> dict:
    """Medians of the first op of each run and of every op after a run's first
    round; `runs` holds one list of (cpu, sys, faults, digest) samples per run."""
    record = {}
    for part, samples in (("first", [run[0] for run in runs]),
                          ("steady", [sample for run in runs for sample in run[inputs:]])):
        cpu, system, faults, _ = zip(*samples)
        record.update({f"{part}_op_faults": statistics.median(faults),
                       f"{part}_op_cpu_s": statistics.median(cpu),
                       f"{part}_op_sys_s": statistics.median(system)})
    return record


def measure(name: str, argvs: list) -> list:
    """One row per setting of the op `name` over its inputs `argvs`."""
    runs = {setting: [] for setting in SETTINGS}
    peaks = {setting: [] for setting in SETTINGS}
    for i in range(CHILDREN):
        for setting in SETTINGS[i % 2:] + SETTINGS[:i % 2]:
            child = harness.child(OP_CHILD, str(ROUNDS[name]), json.dumps(argvs), setting)
            runs[setting].append(json.loads(child.stdout))
            peaks[setting].append(child.vmhwm_mb)
        digests = [[sample[3] for sample in runs[setting][-1]] for setting in SETTINGS]
        if digests[0] != digests[1]:
            raise harness.Disagreement(f"{name}: the outputs of the two settings differ "
                                       f"in interpreter {i}")
    rows = []
    for setting in SETTINGS:
        rows.append({"op": name, "setting": setting, **summary(runs[setting], len(argvs)),
                     "vmhwm_mb": statistics.median(peaks[setting]),
                     "interpreters": CHILDREN,
                     "steady_ops": CHILDREN * ROUNDS[name] * len(argvs)})
        row = rows[-1]
        print(f"{name} {setting}: first op {row['first_op_faults']:.0f} faults "
              f"{row['first_op_cpu_s'] * 1e3:.1f} ms, steady {row['steady_op_faults']:.0f} "
              f"faults {row['steady_op_cpu_s'] * 1e3:.1f} ms "
              f"(system {row['steady_op_sys_s'] * 1e3:.1f} ms), "
              f"VmHWM {row['vmhwm_mb']:.1f} MB", flush=True)
    return rows


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ops = harness.write_ops(Path(tmp), np.random.default_rng(SEED))
        rows = [row for name, argvs in ops.items() for row in measure(name, argvs)]
    harness.write_bench("page_faults", {
        "what": "minor page faults, CPU s and system CPU s of one op, and VmHWM (MB) of its "
                "interpreter, for the benchmark's observe --kmax 64 and modes --kmax 192 ops "
                "in fresh interpreters, under the CLI's process policy (mallopt "
                "M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 128 MiB; one BLAS thread) and "
                "with none (glibc's defaults, the harness's BLAS pool); first_op: median "
                "over interpreters of the first op, steady_op: median over every op after "
                "the first round",
        "inputs": f"three band-limited inputs per op (harness.write_ops), seed {SEED}",
        "rounds": ROUNDS,
        "rows": rows,
    })


if __name__ == "__main__":
    main()
