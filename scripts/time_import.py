"""Time the import of memwave.cli against bare Python and numpy; write BENCH_import.json.

    python3 scripts/time_import.py

Run from the root of a checkout on Linux; the program is imported from `src/`.
Each statement (`pass`, `import numpy`, `import memwave.cli`) runs in a fresh
interpreter, in SAMPLES rounds of the three in a rotating order, with the
children and BLAS pool of `scripts/harness.py`.  For each one the script
records:

- the user + system CPU seconds of the child, as median and quartiles with
  every sample;
- its peak RSS (VmHWM at the end of the child);
- the top-level packages in `sys.modules` after the statement;
- for `import memwave.cli`, the `-X importtime` cumulative microseconds of
  each `memwave.*` module, median over IMPORTTIME_RUNS runs, and of the
  largest other top-level packages.

The VmHWM read and the module listing add a few lines of Python to every
child, the same for all three statements.
"""

from __future__ import annotations

import statistics

import harness  # first: the path and the BLAS pool, before numpy loads

SAMPLES = 21
IMPORTTIME_RUNS = 5
STATEMENTS = ("pass", "import numpy", "import memwave.cli")

#: Appended to each statement: the top-level packages.
PACKAGES = """
import sys
print(' '.join(sorted({m.partition('.')[0] for m in sys.modules if not m.startswith('_')})))
"""


def importtime(statement: str, runs: int = IMPORTTIME_RUNS) -> dict:
    """Median `-X importtime` cumulative microseconds per module, over `runs` runs."""
    cumulative = {}
    for _ in range(runs):
        for line in harness.child(statement, flags=("-X", "importtime")).stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = (field.strip() for field in line[len("import time:"):].split("|"))
                if cum.isdigit():
                    cumulative.setdefault(name, []).append(int(cum))
    return {name: statistics.median(us) for name, us in cumulative.items() if len(us) == runs}


def summary(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    rss = {s: [] for s in STATEMENTS}

    def run(statement: str):
        """A side of the sampler: the statement in a fresh interpreter."""
        def side():
            child = harness.child(statement + PACKAGES)
            rss[statement].append(child.vmhwm_mb)
            return child.cpu_s, child.stdout.split()
        return side

    # no oracle: the statements compute nothing to compare
    record, packages = harness.paired({s: run(s) for s in STATEMENTS}, SAMPLES,
                                      lambda *_: True, "statements")
    times = importtime("import memwave.cli")
    memwave_us = {name: us for name, us in times.items() if name.split(".")[0] == "memwave"}
    top_us = {name: us for name, us in times.items() if "." not in name}
    rows = []
    for statement in STATEMENTS:
        cpu = record[f"{statement}_samples_s"]
        row = {"statement": statement, "cpu_s": summary(cpu),
               "peak_rss_mb": statistics.median(rss[statement]),
               "packages": packages[statement], "cpu_samples_s": cpu}
        rows.append(row)
        print(f"{statement}: CPU {row['cpu_s']['median']:.3f} s "
              f"({row['cpu_s']['q1']:.3f}-{row['cpu_s']['q3']:.3f}), "
              f"peak RSS {row['peak_rss_mb']:.1f} MB, {len(row['packages'])} packages",
              flush=True)
    harness.write_bench("import", {
        "what": "user + system CPU seconds and peak RSS (VmHWM) of a fresh interpreter "
                f"running each statement, median and quartiles of {SAMPLES}; "
                "-X importtime cumulative microseconds of `import memwave.cli`, "
                f"median of {IMPORTTIME_RUNS}",
        "rows": rows,
        "importtime_memwave_us": dict(sorted(memwave_us.items())),
        "importtime_top_level_us": dict(sorted(top_us.items(), key=lambda kv: -kv[1])[:10]),
    })


if __name__ == "__main__":
    main()
