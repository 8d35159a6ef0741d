"""Time the import of memwave.cli against bare Python and numpy; write BENCH_import.json.

    python3 scripts/time_import.py

Run from the root of a checkout on Linux; the program is imported from `src/`.
Each statement (`pass`, `import numpy`, `import memwave.cli`) runs in a fresh
interpreter, SAMPLES times, the three taking turns in a rotating order.  For
each one the script records:

- the user + system CPU seconds of the child (the growth of this process's
  RUSAGE_CHILDREN), as median and quartiles with every sample;
- its peak RSS, read as VmHWM from /proc/self/status at the end of the child.
  The child's `ru_maxrss` would not do: on Linux it keeps the spawning
  process's high-water mark across exec;
- the top-level packages in `sys.modules` after the statement;
- for `import memwave.cli`, the `-X importtime` cumulative microseconds of
  each `memwave.*` module, median over IMPORTTIME_RUNS runs, and of the
  largest other top-level packages.

The VmHWM read and the module listing add a few lines of Python to every
child, the same for all three statements.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = 21
IMPORTTIME_RUNS = 5
STATEMENTS = ("pass", "import numpy", "import memwave.cli")

#: Appended to each statement: peak RSS in kB, then the top-level packages.
PROBE = """
import sys
print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])
print(' '.join(sorted({m.partition('.')[0] for m in sys.modules if not m.startswith('_')})))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_once(statement: str) -> tuple:
    """(CPU seconds, peak RSS in MB, top-level packages) of one fresh interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run([sys.executable, "-c", statement + PROBE], env=child_env(),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    seconds = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    hwm_kb, packages = out.splitlines()
    return seconds, int(hwm_kb) / 1024.0, packages.split()


def importtime(statement: str, runs: int = IMPORTTIME_RUNS) -> dict:
    """Median `-X importtime` cumulative microseconds per module, over `runs` runs."""
    cumulative = {}
    for _ in range(runs):
        result = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                                env=child_env(), capture_output=True, text=True, check=True)
        for line in result.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = (field.strip() for field in line[len("import time:"):].split("|"))
                if cum.isdigit():
                    cumulative.setdefault(name, []).append(int(cum))
    return {name: statistics.median(us) for name, us in cumulative.items() if len(us) == runs}


def summary(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    cpu = {s: [] for s in STATEMENTS}
    rss = {s: [] for s in STATEMENTS}
    packages = {}
    for i in range(SAMPLES):
        for statement in STATEMENTS[i % 3:] + STATEMENTS[:i % 3]:
            seconds, peak_mb, loaded = run_once(statement)
            cpu[statement].append(seconds)
            rss[statement].append(peak_mb)
            packages[statement] = loaded
    times = importtime("import memwave.cli")
    memwave_us = {name: us for name, us in times.items() if name.split(".")[0] == "memwave"}
    top_us = {name: us for name, us in times.items() if "." not in name}
    rows = []
    for statement in STATEMENTS:
        row = {"statement": statement, "cpu_s": summary(cpu[statement]),
               "peak_rss_mb": statistics.median(rss[statement]),
               "packages": packages[statement], "cpu_samples_s": cpu[statement]}
        rows.append(row)
        print(f"{statement}: CPU {row['cpu_s']['median']:.3f} s "
              f"({row['cpu_s']['q1']:.3f}-{row['cpu_s']['q3']:.3f}), "
              f"peak RSS {row['peak_rss_mb']:.1f} MB, {len(row['packages'])} packages",
              flush=True)
    report = {
        "what": "user + system CPU seconds and peak RSS (VmHWM) of a fresh interpreter "
                f"running each statement, median and quartiles of {SAMPLES}; "
                "-X importtime cumulative microseconds of `import memwave.cli`, "
                f"median of {IMPORTTIME_RUNS}",
        "host": {"machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
        "importtime_memwave_us": dict(sorted(memwave_us.items())),
        "importtime_top_level_us": dict(sorted(top_us.items(), key=lambda kv: -kv[1])[:10]),
    }
    out = ROOT / "BENCH_import.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
