"""Time the CLI table writer, its number speller and a modes op's peak memory; write
BENCH_serialization.json.

    python3 scripts/time_serialization.py

Run from the root of a checkout on Linux; the program is imported from `src/`
and the reference writer (the recursive JSON walker the CLI used before its
row templates) from `tests/conftest.py`.  Three measurements:

- Tables.  Only the serialization stage is timed: the columns of each table
  are computed once, then each writer turns them into text, in CPU time
  (`time.process_time`, user + system of this process).  The tables are those
  of `modes` (beta 0.3, normal random sine coefficients, seed 701) and
  `spectrum --format json` and `--format csv` (beta 0.4, eta 0.6).  Each writer
  runs REPEATS times; the median is recorded with every sample, and the two
  texts must be equal byte for byte.
- Speller.  CPU nanoseconds per number of `cli._spell` and of the `%` operator
  over the same 36 864 numbers (the C_re column of the kmax-192 modes table),
  median of REPEATS; the cells must equal the `%` texts.
- Peak memory.  VmHWM from /proc/self/status of a fresh interpreter that runs
  one `modes --kmax 192` op on sampled grids of the same coefficients, and of
  one that only imports memwave.cli, median of HWM_SAMPLES each.  A child's
  `ru_maxrss` would not do: on Linux it keeps the spawning process's
  high-water mark across exec.
"""

from __future__ import annotations

import hashlib
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from conftest import reference_mode_table  # noqa: E402
from memwave import InitialData, KernelParams, expand, mode_spectrum  # noqa: E402
from memwave.cli import _SPELLING, _mode_table, _spell  # noqa: E402
from memwave.spectrum import _vieta_residuals  # noqa: E402

KMAX = (64, 192, 512)
#: (table, format) pairs timed at every kmax.
TABLES = (("modes", "json"), ("spectrum", "json"), ("spectrum", "csv"))
REPEATS = 5
SEED = 701
HWM_KMAX = 192
HWM_SAMPLES = 5

#: One modes op (argv[1:] are its flags), then the child's peak RSS in kB.
HWM_CHILD = """
import sys
import memwave.cli
if sys.argv[1:]:
    memwave.cli.parse_and_dispatch(sys.argv[1:])
print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])
"""


def modes_data(kmax: int) -> InitialData:
    """Random sine coefficients of the modes input."""
    rng = np.random.default_rng(SEED)
    return InitialData(a=rng.normal(size=(kmax, kmax)), b=rng.normal(size=(kmax, kmax)),
                       kmax=kmax)


def modes_columns(kmax: int) -> dict:
    """The columns `modes` writes, for random sine coefficients."""
    data = modes_data(kmax)
    e = expand(KernelParams.limiting_regime(0.3), data)
    return {"C_re": e.C.real, "C_im": e.C.imag, "R": e.R, "re_omega": e.omega.real,
            "im_omega": e.omega.imag, "r": e.r}


def spectrum_columns(kmax: int) -> dict:
    """The columns `spectrum` writes."""
    params = KernelParams(beta=0.4, eta=0.6)
    lam, omega, r = mode_spectrum(params, kmax)
    residual = np.maximum.reduce(_vieta_residuals(
        1j * omega, -1j * omega.conj(), r.astype(complex), params, lam))
    return {"lambda": lam, "re_omega": omega.real, "im_omega": omega.imag, "r": r,
            "residual": residual}


def cpu_seconds(fn, *args):
    """(CPU seconds of one call, its result)."""
    start = time.process_time()
    value = fn(*args)
    return time.process_time() - start, value


def measure(table: str, fmt: str, kmax: int, repeats: int = REPEATS) -> dict:
    """Median CPU time of both writers on one table, their samples and the output size."""
    columns = (modes_columns if table == "modes" else spectrum_columns)(kmax)
    samples = {"cli": [], "reference": []}
    for _ in range(repeats):
        seconds, text = cpu_seconds(_mode_table, columns, fmt)
        samples["cli"].append(seconds)
        seconds, reference = cpu_seconds(reference_mode_table, columns, fmt)
        samples["reference"].append(seconds)
        if text != reference:
            raise SystemExit(f"{table} {fmt} kmax {kmax}: the writers disagree")
        del reference
    cli_s = statistics.median(samples["cli"])
    reference_s = statistics.median(samples["reference"])
    return {
        "table": table,
        "format": fmt,
        "kmax": kmax,
        "bytes": len(text),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "cli_cpu_s": cli_s,
        "reference_cpu_s": reference_s,
        "speedup": reference_s / cli_s,
        "cli_samples_s": samples["cli"],
        "reference_samples_s": samples["reference"],
    }


def measure_speller(repeats: int = REPEATS) -> dict:
    """CPU ns per number of `_spell` and of `%` over the C_re column of `modes`."""
    values = modes_columns(HWM_KMAX)["C_re"].ravel()
    samples = {"spell": [], "percent": []}
    _spell(values[:1])  # builds the speller's cached cell layouts
    for _ in range(repeats):
        seconds, cells = cpu_seconds(_spell, values)
        samples["spell"].append(seconds / len(values) * 1e9)
        seconds, texts = cpu_seconds(lambda: [_SPELLING % v for v in values.tolist()])
        samples["percent"].append(seconds / len(values) * 1e9)
        if cells.tobytes() != np.array(texts, dtype=f"S{cells.shape[1]}").tobytes():
            raise SystemExit("the speller and % disagree")
    spell_ns = statistics.median(samples["spell"])
    percent_ns = statistics.median(samples["percent"])
    return {"numbers": len(values), "distinct": len(np.unique(values)),
            "spell_ns_per_number": spell_ns, "percent_ns_per_number": percent_ns,
            "speedup": percent_ns / spell_ns, "spell_samples_ns": samples["spell"],
            "percent_samples_ns": samples["percent"]}


def modes_grids(kmax: int, directory: Path) -> list:
    """u0 and u1 sample grids ((2 kmax + 1)^2) of the modes coefficients, as CSV files."""
    data = modes_data(kmax)
    m = 2 * kmax + 1
    k = np.arange(1, kmax + 1)
    sines = np.sin(np.outer(k, np.pi / (m + 1) * np.arange(1, m + 1)))
    paths = [directory / "u0.csv", directory / "u1.csv"]
    for path, coeffs in zip(paths, (data.a, data.b)):
        np.savetxt(path, sines.T @ coeffs @ sines, delimiter=",", fmt="%.17g")
    return paths


def measure_peak_memory(samples: int = HWM_SAMPLES) -> dict:
    """Median VmHWM (MB) of a fresh interpreter running one modes op, and importing only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        u0, u1 = modes_grids(HWM_KMAX, Path(tmp))
        op = ["modes", "--beta", "0.3", "--kmax", str(HWM_KMAX), "--u0", str(u0), "--u1", str(u1),
              "--output", str(Path(tmp) / "modes.json")]
        peaks = {"op": [], "import": []}
        for _ in range(samples):
            for name, args in (("op", op), ("import", [])):
                out = subprocess.run([sys.executable, "-c", HWM_CHILD, *args], env=env, check=True,
                                     stdout=subprocess.PIPE, text=True).stdout
                peaks[name].append(int(out) / 1024.0)
    return {"kmax": HWM_KMAX, "modes_op_vmhwm_mb": statistics.median(peaks["op"]),
            "import_vmhwm_mb": statistics.median(peaks["import"]),
            "modes_op_samples_mb": peaks["op"], "import_samples_mb": peaks["import"]}


def main() -> int:
    speller = measure_speller()
    print(f"speller: {speller['spell_ns_per_number']:.0f} ns per number, % "
          f"{speller['percent_ns_per_number']:.0f} ns, {speller['speedup']:.1f}x", flush=True)
    memory = measure_peak_memory()
    print(f"modes kmax {HWM_KMAX} op: VmHWM {memory['modes_op_vmhwm_mb']:.1f} MB "
          f"(import only {memory['import_vmhwm_mb']:.1f} MB)", flush=True)
    rows = []
    for table, fmt in TABLES:
        for kmax in KMAX:
            rows.append(measure(table, fmt, kmax))
            row = rows[-1]
            print(f"{table} {fmt} kmax {kmax}: {row['bytes'] / 1e6:.1f} MB, CLI "
                  f"{row['cli_cpu_s']:.3f} s, reference {row['reference_cpu_s']:.3f} s, "
                  f"{row['speedup']:.1f}x", flush=True)
    report = {
        "what": "CPU seconds to write the modes table and the spectrum table as json and csv: "
                "memwave.cli._mode_table against tests/conftest.py::reference_mode_table, "
                f"median of {REPEATS}; both texts are byte-identical.  speller: CPU ns per "
                f"number of memwave.cli._spell and of %, median of {REPEATS}.  peak_memory: "
                f"VmHWM of a fresh interpreter, median of {HWM_SAMPLES}",
        "inputs": {"modes": f"beta 0.3, a, b ~ N(0, 1) sine coefficients, seed {SEED}",
                   "spectrum": "beta 0.4, eta 0.6"},
        "host": {"machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "rows": rows,
        "speller": speller,
        "peak_memory": memory,
    }
    out = ROOT / "BENCH_serialization.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
