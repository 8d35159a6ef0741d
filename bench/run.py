"""Run one workload of the memwave benchmark and print its metrics.

    python3 bench/run.py --workload observe --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
client runs a closed loop: each op is one in-process call to
`memwave.cli.parse_and_dispatch` in a fresh worker process, and the next op
starts only after the previous one is checked.  After one untimed warm-up
op, ops run until their summed wall time reaches --seconds.  Every output is
checked against values derived independently at set-up, and against the
first output of the same input (sha256); a non-zero exit, a wrong value or a
changed output is a failure.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, the
wall-clock ones left out of it (UNBOUNDED) and the failure ratio.  --trace 1
alternates untraced ops with ops traced by spans around every public memwave
function, and prints the per-layer metrics, including the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Set-up, inputs and checks stay outside the timed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 7

#: End-to-end metrics printed by every run but left out of BENCHMARK.json:
#: wall-clock figures, which on a shared host also count the time the host
#: runs other guests (see README.md), and their units.
UNBOUNDED = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_wall_s": "s"}

#: The traced modules, named as in the span names.
MODULES = ("cli", "spectrum", "gap_analysis", "ingham", "modes", "observability")


def program_env() -> dict:
    """Environment of every process that imports memwave: the checkout's
    `src` first on the path, and a BLAS pool no larger than the CPUs this
    process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cpus
    return env


def tail_latency(samples) -> tuple:
    """(value, percentile, samples beyond): the highest nearest-rank percentile
    with at least ten samples beyond it.  With ten samples or fewer none
    qualifies, and the lowest sample is returned."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


@dataclass
class Ledger:
    """Ops attempted and failed.  An op fails when it exits non-zero, when its
    output fails the check, or when it differs from the first output of the
    same input.  Outputs byte-identical to that first one share its verdict,
    so the check runs once per input."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def record(self, slot_index: int, status: int, output: Optional[bytes], check) -> bool:
        """Count one op; True when it succeeded."""
        self.attempted += 1
        if status != 0:
            reason = f"exit status {status}"
        elif output is None:
            reason = "no output written"
        else:
            digest = hashlib.sha256(output).hexdigest()
            if slot_index not in self.first:
                self.first[slot_index] = (digest, check(output))
            first_digest, reason = self.first[slot_index]
            if first_digest != digest:
                reason = "output differs from an earlier op on the same input"
        if reason:
            self.failures.append(f"op {self.attempted} (input {slot_index}): {reason}")
        return reason is None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


@dataclass(frozen=True)
class Op:
    wall: float
    cpu: float
    ok: bool
    out_bytes: int
    in_bytes: int
    traced: bool


class Worker:
    """The worker process (worker.py) and its line-per-request pipe."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def closed_loop(worker: Worker, slots, seconds: float, ledger: Ledger, workdir: Path,
                alternate_trace: bool = False) -> list:
    """Run ops, cycling through the pool, until their wall time sums to
    `seconds`; with `alternate_trace`, every second op is traced."""
    ops, busy = [], 0.0
    while busy < seconds or len(ops) < (2 if alternate_trace else 1):
        index = len(ops) % len(slots)
        slot, path = slots[index], workdir / "op.out"
        traced = alternate_trace and len(ops) % 2 == 1
        if alternate_trace:
            worker.request({"trace": traced})
        reply = worker.request({"op": slot.argv(path)})
        output = path.read_bytes() if path.exists() else None
        ok = ledger.record(index, reply["rc"], output, slot.check)
        path.unlink(missing_ok=True)
        ops.append(Op(reply["wall"], reply["cpu"], ok, len(output or b""), slot.in_bytes, traced))
        busy += reply["wall"]
    return ops


def import_seconds(env: dict, *flags: str) -> tuple:
    """A fresh interpreter that imports memwave.cli: its wall time, its user+sys
    CPU time, and its stderr."""
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *flags, "-c", "import memwave.cli"], cwd=ROOT,
                          env=env, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise RuntimeError(f"importing memwave.cli failed:\n{done.stderr}")
    cpu = cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
    return elapsed, cpu, done.stderr


def cumulative_import_seconds(env: dict) -> dict:
    """Per memwave module: cumulative import time from `python -X importtime`."""
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(memwave\.\S+)")
    runs = []
    for _ in range(3):
        stderr = import_seconds(env, "-X", "importtime")[2]
        runs.append({name: int(us) * 1e-6 for us, name in pattern.findall(stderr)})
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def end_to_end(worker: Worker, slots, seconds: float, ledger: Ledger, workdir: Path, env: dict) -> dict:
    # One checked, untimed op first, so lazy imports and the allocator settle.
    closed_loop(worker, slots[:1], 0.0, ledger, workdir)
    ops = closed_loop(worker, slots, seconds, ledger, workdir)
    peak = worker.request({"exit": True})["peak_rss_mb"]
    worker.proc.wait()  # reaped now, so its CPU time stays out of the set-up samples
    setup_wall, setup_cpu, _ = zip(*(import_seconds(env) for _ in range(SETUP_SAMPLES)))
    walls = [op.wall for op in ops]
    tail, percentile, beyond = tail_latency(walls)
    print(f"# {len(ops)} timed ops after 1 warm-up op; op_tail_s is p{percentile:.1f}, "
          f"{beyond} samples beyond it; setup_s is the median of {SETUP_SAMPLES}")
    print("# op latencies (s): " + " ".join(f"{wall:.4f}" for wall in walls))
    print("# op CPU times (s): " + " ".join(f"{op.cpu:.4f}" for op in ops))
    print("# setup CPU times (s): " + " ".join(f"{s:.4f}" for s in setup_cpu))
    print("# setup wall times (s): " + " ".join(f"{s:.4f}" for s in setup_wall))
    unbounded = {
        "ops_per_s": sum(op.ok for op in ops) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "setup_wall_s": statistics.median(setup_wall),
    }
    for name, value in unbounded.items():
        print(f"{name} = {value!r} {UNBOUNDED[name]}")
    return {
        "setup_s": statistics.median(setup_cpu),
        "cpu_per_op_s": sum(op.cpu for op in ops) / len(ops),
        "peak_rss_mb": peak,
    }


def layer_value(name: str, traced: list, installed: set, extra: dict) -> Optional[float]:
    """One per-layer metric as the median over traced ops; None when the
    function or module it names no longer exists."""
    if name in extra:
        return extra[name]
    head, _, stat = name.rpartition(".")
    if head in MODULES:
        if not any(span.startswith(head + ".") for span in installed):
            return None
        per_op = [sum(row["self_s"] for span, row in op["spans"].items()
                      if span.startswith(head + ".")) for op in traced]
        if stat == "share":
            per_op = [own / op["wall"] for own, op in zip(per_op, traced)]
        return statistics.median(per_op)
    if head not in installed:
        return None
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
    rows = [op["spans"].get(head, empty) for op in traced]
    if stat == "elements":
        return statistics.median(row["count"] for row in rows)
    if stat == "ns_per_element":
        return statistics.median(row["s"] / row["count"] * 1e9 if row["count"] else 0.0
                                 for row in rows)
    return statistics.median(row[stat] for row in rows)


def per_layer(worker: Worker, slots, seconds: float, ledger: Ledger, workdir: Path,
              env: dict, names: list, trace_path: Path) -> dict:
    installed = set(worker.request({"trace": False})["installed"])
    ops = closed_loop(worker, slots, seconds, ledger, workdir, alternate_trace=True)
    plain = [op for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    traced = worker.request({"exit": True})["traced_ops"]
    imports = cumulative_import_seconds(env)
    serialize = [op.out_bytes / row["spans"]["cli.json_dumps"]["s"] / 1e6
                 for op, row in zip(traced_ops, traced) if "cli.json_dumps" in row["spans"]]
    extra = {
        "trace.overhead": statistics.median(op.wall for op in traced_ops)
        / statistics.median(op.wall for op in plain) - 1.0,
        "cli.in_bytes": statistics.median(op.in_bytes for op in traced_ops),
        "cli.out_bytes": statistics.median(op.out_bytes for op in traced_ops),
        "cli.serialize_mb_per_s": statistics.median(serialize) if serialize else None,
    }
    extra.update({f"{module}.import_s": imports.get(f"memwave.{module}") for module in MODULES})
    print(f"# {len(plain)} untraced and {len(traced_ops)} traced ops; spans in {trace_path}")
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps({"installed": sorted(installed), "ops": traced}, indent=1))
    return {name: layer_value(name, traced, installed, extra) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "memwave" / "cli.py").is_file():
        print(f"error: no memwave package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = program_env()
    import_seconds(env)  # compiles the bytecode cache once, outside every sample

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    ledger = Ledger()
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            workdir = Path(tmp)
            slots = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
            with Worker(env) as worker:
                if args.trace:
                    trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
                    values = per_layer(worker, slots, args.seconds, ledger, workdir, env,
                                       [m["name"] for m in metrics], trace_path)
                else:
                    values = end_to_end(worker, slots, args.seconds, ledger, workdir, env)
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for reason in ledger.failures[:10]:
        print(f"# failed: {reason}")
    print(f"fail_ratio = {ledger.fail_ratio!r} 1 ({ledger.failed} of {ledger.attempted} ops)")
    report = {}
    for metric in metrics:
        value = values[metric["name"]]
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if value is None:
            report[metric["name"]]["absent"] = True
        print(f"{metric['name']} = {value!r} {metric['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
