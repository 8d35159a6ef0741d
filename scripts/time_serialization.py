"""Time the CLI table writer, its number speller and a modes op's peak memory; write
BENCH_serialization.json.

    python3 scripts/time_serialization.py

Run from the root of a checkout on Linux; the program is imported from `src/`
and the reference writer (the recursive JSON walker the CLI used before its
row templates) from `tests/conftest.py`.  Three measurements:

- Tables.  Only the serialization stage is timed: the columns of each table
  are computed once, then each writer turns them into text.  The tables are
  those of `modes` (beta 0.3, normal random sine coefficients, seed 701) and
  `spectrum --format json` and `--format csv` (beta 0.4, eta 0.6).  The CLI's
  writer returns the texts of its row blocks, which the CLI writes in turn;
  they are joined, untimed, and must equal the reference text byte for byte.
- Speller.  CPU nanoseconds per number of `cli._spell` and of the `%` operator
  over the same 36 864 numbers (the C_re column of the kmax-192 modes table);
  the cells must equal the `%` texts byte for byte.
- Peak memory.  VmHWM of a fresh interpreter that runs one `modes --kmax 192`
  op on sampled grids of the same coefficients, and of one that only imports
  memwave.cli, median of HWM_SAMPLES each.

Timing (REPEATS paired rounds), BLAS pool, children and grids are those of
`scripts/harness.py`.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
from pathlib import Path

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

from conftest import reference_mode_table
from memwave import InitialData, KernelParams, expand, mode_spectrum
from memwave.cli import _SPELLING, _mode_table, _spell
from memwave.spectrum import _vieta_residuals

KMAX = (64, 192, 512)
#: (table, format) pairs timed at every kmax.
TABLES = (("modes", "json"), ("spectrum", "json"), ("spectrum", "csv"))
REPEATS = 5
SEED = 701
HWM_KMAX = 192
HWM_SAMPLES = 5

#: One modes op (argv[1:] are its flags), or none.
HWM_CHILD = """
import sys
import memwave.cli
if sys.argv[1:]:
    memwave.cli.parse_and_dispatch(sys.argv[1:])
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


def measure(table: str, fmt: str, kmax: int) -> dict:
    """Both writers on one table, and the output size."""
    columns = (modes_columns if table == "modes" else spectrum_columns)(kmax)
    record, values = harness.paired(
        {"cli": harness.timed(_mode_table, columns, fmt),
         "reference": harness.timed(reference_mode_table, columns, fmt)}, REPEATS,
        lambda texts, reference: "".join(texts) == reference,
        f"{table} {fmt} table at kmax {kmax}")
    text = values["reference"]
    return {"table": table, "format": fmt, "kmax": kmax, "bytes": len(text),
            "sha256": hashlib.sha256(text.encode()).hexdigest(), **record}


def measure_speller() -> dict:
    """CPU ns per number of `_spell` and of `%` over the C_re column of `modes`."""
    values = modes_columns(HWM_KMAX)["C_re"].ravel()
    _spell(values[:1])  # builds the speller's cached cell layouts
    record, _ = harness.paired(
        {"spell": harness.timed(_spell, values),
         "percent": harness.timed(lambda: [_SPELLING % v for v in values.tolist()])}, REPEATS,
        lambda cells, texts: cells.tobytes() == np.array(texts, f"S{cells.shape[1]}").tobytes(),
        "the speller and %")
    return {"numbers": len(values), "distinct": len(np.unique(values)),
            "spell_ns_per_number": record["spell_cpu_s"] / len(values) * 1e9,
            "percent_ns_per_number": record["percent_cpu_s"] / len(values) * 1e9, **record}


def measure_peak_memory(samples: int = HWM_SAMPLES) -> dict:
    """Median VmHWM (MB) of a fresh interpreter running one modes op, and importing only."""
    data = modes_data(HWM_KMAX)
    with tempfile.TemporaryDirectory() as tmp:
        u0, u1 = Path(tmp) / "u0.csv", Path(tmp) / "u1.csv"
        harness.write_grid(u0, data.a)
        harness.write_grid(u1, data.b)
        op = ["modes", "--beta", "0.3", "--kmax", str(HWM_KMAX), "--u0", str(u0), "--u1", str(u1),
              "--output", str(Path(tmp) / "modes.json")]
        peaks = {"op": [], "import": []}
        for _ in range(samples):
            for name, args in (("op", op), ("import", [])):
                peaks[name].append(harness.child(HWM_CHILD, *args).vmhwm_mb)
    return {"kmax": HWM_KMAX, "modes_op_vmhwm_mb": statistics.median(peaks["op"]),
            "import_vmhwm_mb": statistics.median(peaks["import"]),
            "modes_op_samples_mb": peaks["op"], "import_samples_mb": peaks["import"]}


def main() -> None:
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
    harness.write_bench("serialization", {
        "what": "CPU seconds to write the modes table and the spectrum table as json and csv: "
                "memwave.cli._mode_table against tests/conftest.py::reference_mode_table, "
                f"medians of {REPEATS} paired rounds; both texts are byte-identical.  speller: "
                f"CPU ns per number of memwave.cli._spell and of %, medians of {REPEATS} "
                f"paired rounds.  peak_memory: VmHWM of a fresh interpreter, median of "
                f"{HWM_SAMPLES}",
        "inputs": {"modes": f"beta 0.3, a, b ~ N(0, 1) sine coefficients, seed {SEED}",
                   "spectrum": "beta 0.4, eta 0.6"},
        "rows": rows,
        "speller": speller,
        "peak_memory": memory,
    })


if __name__ == "__main__":
    main()
