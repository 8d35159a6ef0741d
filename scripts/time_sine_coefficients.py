"""Time the sine coefficients of a sample grid against the FFT route; write
BENCH_sine_coefficients.json.

    python3 scripts/time_sine_coefficients.py

Run from the root of a checkout; the program is imported from `src/` and the
oracle (`fft_sine_coefficients`, the DST-I by rfft of the odd extension,
equal bit for bit to `scipy.fft.dstn`) from `tests/conftest.py`.  Timing and
agreement checks are those of `scripts/harness.py`; ROUNDS rounds each.  The
process policy of the CLI is set first (`cli._set_process_policy`), so the
products run on one BLAS thread, as in a command-line op; the harness's pool
would otherwise split them.

For each kmax, an M x M grid of N(0, 1) samples (M = 2 kmax + 1, seed SEED)
goes through three sides in rotated order: `sine_coefficients` with its sine
table already made (as for the second grid of an op and every later op), the
FFT oracle, and `sine_coefficients` making its table afresh (the cache
cleared before each call: the first grid of a process).  The products must
lie within `sine_coefficient_bound` of the oracle in every round; each row
records the largest difference as a share of that bound.
"""

from __future__ import annotations

import harness  # first: the path and the BLAS pool, before numpy loads
import numpy as np

import memwave.cli as cli
from conftest import fft_sine_coefficients, sine_coefficient_bound
from memwave import sine_coefficients
from memwave.modes import _sine_table

KMAX = (64, 192, 256, 384, 512)
SEED = 931
ROUNDS = 15


def measure(kmax: int) -> dict:
    """The products, the FFT oracle and the products with a new table at one kmax."""
    m = 2 * kmax + 1
    values = np.random.default_rng(SEED).normal(size=(m, m))
    bound = sine_coefficient_bound(values, kmax)

    def new_table():
        _sine_table.cache_clear()
        return sine_coefficients(values, kmax)

    sine_coefficients(values, kmax)  # makes the table of the first side
    record, found = harness.paired(
        {"products": harness.timed(sine_coefficients, values, kmax),
         "fft": harness.timed(fft_sine_coefficients, values, kmax),
         "products_new_table": harness.timed(new_table)},
        ROUNDS, lambda products, fft: bool(np.all(np.abs(products - fft) <= bound)),
        f"sine coefficients at kmax {kmax}")
    share = float(np.max(np.abs(found["products"] - found["fft"]) / bound))
    return {"kmax": kmax, "m": m, "table_mb": kmax * m * 8 / 1e6,
            "max_difference_over_bound": share, **record}


def main() -> None:
    cli._set_process_policy()
    rows = []
    for kmax in KMAX:
        rows.append(measure(kmax))
        row = rows[-1]
        print(f"kmax {kmax}: products {row['products_cpu_s'] * 1e3:.2f} ms "
              f"({row['products_new_table_cpu_s'] * 1e3:.2f} ms with a new table), fft "
              f"{row['fft_cpu_s'] * 1e3:.2f} ms, {row['speedup']:.1f}x; largest difference "
              f"{row['max_difference_over_bound']:.1e} of the bound", flush=True)
    harness.write_bench("sine_coefficients", {
        "what": "CPU seconds of memwave.sine_coefficients (two BLAS products with a cached "
                "sine table; products_new_table: the table made afresh each call) against "
                "tests/conftest.py::fft_sine_coefficients, under the CLI's process policy "
                f"(one BLAS thread); medians of {ROUNDS} paired rounds; speedup is fft over "
                "products",
        "inputs": f"M x M grids of N(0, 1) samples, M = 2 kmax + 1, seed {SEED}",
        "rows": rows,
    })


if __name__ == "__main__":
    main()
