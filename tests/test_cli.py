"""Subcommand behavior, formats, config merging, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import platform
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memwave.cli as cli
from conftest import (reference_csv_table, reference_json_dumps, reference_mode_table,
                      sine_polynomial_on_grid)
from memwave import InitialData, KernelParams, Violation, expand, gap_constant, mode_spectrum
from memwave.cli import format_float, load_config, parse_and_dispatch
from memwave.errors import (
    AuditFailure,
    CertificationFailure,
    HypothesisError,
    InputError,
    MemwaveError,
    MonotonicityFailure,
    ParseError,
    ValidationError,
)
from memwave.spectrum import _vieta_residuals


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv, capsys):
    status = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_grids(tmp_path, m=13, kmax=None):
    x = np.pi / (m + 1) * np.arange(1, m + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u0 = np.sin(X) * np.sin(2 * Y) + 0.25 * np.sin(2 * X) * np.sin(Y)
    u1 = 0.5 * np.sin(X) * np.sin(Y)
    p0 = tmp_path / "u0.csv"
    p1 = tmp_path / "u1.csv"
    np.savetxt(p0, u0, delimiter=",")
    np.savetxt(p1, u1, delimiter=",")
    return str(p0), str(p1)


def write_family(tmp_path):
    family = {
        "omega_re": [3.0, 6.5], "omega_im": [0.05, 0.1],
        "r": [-0.1, -0.2], "C_re": [0.5, 0.25], "C_im": [0.0, 0.1],
        "R": [0.05, 0.02], "gamma": 3.0, "tau": 1, "theta": 1.0, "mu": 1.0,
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    return str(path)


class TestFormatFloat:
    def test_round_trip(self):
        for x in (math.pi, 1.0 / 3.0, 1e-300, -2.5e17):
            assert float(format_float(x)) == x

    def test_infinity(self):
        assert format_float(math.inf) == "Infinity"

    def test_nan_and_negative_infinity(self):
        assert format_float(math.nan) == "NaN"
        assert format_float(-math.nan) == "NaN"
        assert format_float(-math.inf) == "-Infinity"

    def test_negative_zero_keeps_its_sign(self):
        assert format_float(-0.0) == "-0"
        assert math.copysign(1.0, float(format_float(-0.0))) == -1.0

    def test_integers_in_full(self):
        for n in (0, 1, -3, 512, 2**53):
            assert format_float(n) == str(n)
        assert format_float(np.int64(36864)) == "36864"


def same_float(a, b):
    """Equal as binary64 values, the sign of zero included; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


#: Every float, with the edges a writer can get wrong drawn often.
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1.7976931348623157e308, -1e300, 1e17]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)

#: Every finite float, the edges drawn often.
FINITE_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, 1e308, -1e300, 1e17]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


class TestTableWriter:
    """The table writers against the reference writers, and value round trips."""

    @given(st.lists(st.tuples(FINITE_EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, st.integers(0, 5)),
                    min_size=1, max_size=30),
           st.lists(EDGE_FLOATS, min_size=1, max_size=4),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(rows=[(-0.0, math.nan, -0.0, 0), (5e-324, math.inf, 5e-324, 1),
                   (1e308, -math.inf, 1.7976931348623157e308, 2)], pool=[1.0], as_arrays=False)
    @example(rows=[(-0.0, 1.0, math.nan, 1), (5e-324, -0.0, 2.0, 0), (1e308, 3.0, 4.0, 1)],
             pool=[math.nan], as_arrays=True)
    @example(rows=[(1.0, 2.0, math.inf, 3), (-5e-324, -1e308, 0.5, 2)], pool=[0.1],
             as_arrays=True)
    @example(rows=[(1.0, -math.inf, 0.0, 4), (-1e308, 2.0, -0.0, 5)], pool=[-math.inf, 1e17],
             as_arrays=False)
    def test_tables_round_trip_exactly(self, rows, pool, as_arrays):
        # int64 k1, k2 columns beside an all-finite float column, two columns of
        # any floats and a column of many repeats, 0.0 next to -0.0, as Python
        # lists or as numpy arrays; plain columns are spelled row by row
        n = len(rows)
        pool = [0.0, -0.0, *pool]
        columns = {"k1": np.arange(n, dtype=np.int64) // 4 + 1,
                   "k2": np.arange(n, dtype=np.int64) % 4 + 1,
                   **{name: [row[i] for row in rows] for i, name in enumerate("fxy")},
                   "z": [pool[row[3] % len(pool)] for row in rows]}
        if as_arrays:
            columns = {name: np.asarray(column) for name, column in columns.items()}
        text = "".join(cli.json_dumps(columns, table=True))
        assert text == reference_json_dumps(
            [dict(zip(columns, row)) for row in zip(*columns.values())]) + "\n"
        csv = "".join(cli._csv(columns))
        assert csv == reference_csv_table(",".join(columns), zip(*columns.values()))
        # JSON numbers are read as floats: "-0" is negative zero, not the int 0
        records = json.loads(text, parse_int=float)
        csv_rows = [line.split(",") for line in csv.splitlines()]
        assert csv_rows[0] == ["k1", "k2", "f", "x", "y", "z"]
        for i in range(n):
            for j, name in enumerate(columns):
                want = columns[name][i]
                assert same_float(records[i][name], want)
                assert same_float(float(csv_rows[i + 1][j]), want)
            assert int(csv_rows[i + 1][0]) == i // 4 + 1 and int(csv_rows[i + 1][1]) == i % 4 + 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spectrum_matches_reference_writer_at_kmax_64(self, fmt, tmp_path, monkeypatch):
        spelled = spell_counter(monkeypatch)
        params = KernelParams(beta=0.4, eta=0.6)
        lam, omega, r = mode_spectrum(params, 64)
        residual = np.maximum.reduce(_vieta_residuals(
            1j * omega, -1j * omega.conj(), r.astype(complex), params, lam))
        columns = {"lambda": lam, "re_omega": omega.real, "im_omega": omega.imag,
                   "r": r, "residual": residual}
        out = tmp_path / "spectrum.out"
        assert parse_and_dispatch(["spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "64",
                                   "--format", fmt, "--output", str(out)]) == 0
        assert out.read_text() == reference_mode_table(columns, fmt)
        # k1 and k2 once each, and every other column once per distinct lambda
        assert sum(spelled) == 2 * 64 + 5 * DISTINCT_LAMBDA_64

    def test_modes_matches_reference_writer_at_kmax_64(self, tmp_path, monkeypatch):
        spelled = spell_counter(monkeypatch)
        rng = np.random.default_rng(64)
        grids = []
        for name in ("u0", "u1"):
            grids.append(rng.normal(size=(129, 129)))
            np.savetxt(tmp_path / f"{name}.csv", grids[-1], delimiter=",", fmt="%.17g")
        out = tmp_path / "modes.json"
        assert parse_and_dispatch(["modes", "--beta", "0.3", "--kmax", "64",
                                   "--u0", str(tmp_path / "u0.csv"),
                                   "--u1", str(tmp_path / "u1.csv"), "--output", str(out)]) == 0
        e = expand(KernelParams.limiting_regime(0.3), InitialData.from_samples(*grids, 64))
        columns = {"C_re": e.C.real, "C_im": e.C.imag, "R": e.R, "re_omega": e.omega.real,
                   "im_omega": e.omega.imag, "r": e.r}
        assert out.read_text() == reference_mode_table(columns, "json")
        # the coefficients row by row, the exponents once per distinct lambda
        assert sum(spelled) == 2 * 64 + 3 * 64**2 + 3 * DISTINCT_LAMBDA_64


#: Distinct eigenvalues k1^2 + k2^2 with k1, k2 <= 64.
DISTINCT_LAMBDA_64 = 1581


def spell_counter(monkeypatch):
    """Patch `cli._spell` to record how many numbers each call spells."""
    counts, spell = [], cli._spell

    def counted(values, *args):
        counts.append(len(values))
        return spell(values, *args)

    monkeypatch.setattr(cli, "_spell", counted)
    return counts


def spelling_cells(texts):
    """The cells `_spell` must return for these texts: NUL-padded to the longest."""
    texts = list(texts)
    width = max(map(len, texts))
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def assert_spelled(values):
    """`_spell` equals `_SPELLING % v` (CSV) and `format_float` (JSON) byte for byte,
    each cell padded to the longest."""
    values = np.asarray(values, dtype=np.float64)
    for spell in (cli._SPELLING.__mod__, format_float):
        got, want = cli._spell(values, spell), spelling_cells(map(spell, values.tolist()))
        assert got.shape == want.shape
        bad = np.flatnonzero((got != want).any(axis=1))
        assert not bad.size, [(values[i], bytes(got[i]), bytes(want[i])) for i in bad[:5]]


def tie_dyadics(rng, per_k=4000):
    """Odd j * 2**-k whose exact decimal has 18 significant digits, the last a 5:
    a tie at the 17th digit, for k from 2 to 24, both signs."""
    out = []
    for k in range(2, 25):
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        j = rng.integers(low // 2, high // 2, size=per_k) * 2 + 1
        out.append(np.ldexp(j.astype(np.float64), -k))
    x = np.concatenate(out)
    return np.concatenate([x, -x])


class TestSpeller:
    """The vectorised speller of table numbers against the `%` operator, at scale."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(15)
        assert_spelled(rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64))

    def test_dyadic_rationals(self):
        rng = np.random.default_rng(16)
        ties = tie_dyadics(rng)
        for x in ties[::97].tolist():  # the cases are exact 17th-digit ties
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        j = rng.integers(1, 2**53, size=10**5).astype(np.float64)
        assert_spelled(np.concatenate([ties, np.ldexp(j, rng.integers(-120, 60, size=j.size))]))

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
        x = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        assert_spelled(np.concatenate([x, -x]))

    def test_integers_up_to_2_63(self):
        rng = np.random.default_rng(17)
        powers = 2.0 ** np.arange(64)
        x = np.concatenate([np.arange(-1000, 10**5), np.floor(2.0 ** rng.uniform(0, 63, 10**5)),
                            powers, powers - 1, powers + 1,
                            rng.integers(0, 2**63, size=10**4).astype(np.float64)])
        assert_spelled(x)

    def test_zeros_subnormals_and_the_non_finite(self):
        rng = np.random.default_rng(18)
        edges = [1e-11, 1e17, 2.2250738585072014e-308, 1e308]
        x = [0.0, -0.0, 5e-324, 1e308, math.nan, -math.nan, math.inf, -math.inf, *edges,
             *np.nextafter(edges, 0.0), *np.nextafter(edges, np.inf)]
        subnormals = rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64)
        assert_spelled(np.concatenate([x, np.negative(x), subnormals, -subnormals]))


def loadtxt_bytes(data):
    """The oracle of the grid reader: `np.loadtxt` of the same bytes."""
    return np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2)


def grid_bytes(tokens, cols):
    """A grid of the tokens, `cols` to a line."""
    return "".join(",".join(tokens[i:i + cols]) + "\n" for i in range(0, len(tokens), cols)).encode()


def assert_read_like_loadtxt(data):
    """`_read_grid` reads the bytes as `np.loadtxt` does, bit for bit."""
    got, want = cli._read_grid(data), loadtxt_bytes(data)
    assert got is not None
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64).ravel() != want.view(np.uint64).ravel())
    tokens = data.replace(b"\n", b",").split(b",")
    assert not bad.size, [(tokens[i], got.flat[i], want.flat[i]) for i in bad[:5]]


def finite_bit_patterns(rng, size):
    x = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)]


def halfway_decimals(rng, per_exponent=2000):
    """Decimals of at most 19 digits exactly halfway between adjacent doubles:
    (2m + 1) * 2**(e - 1) for m in [2**52, 2**53), e from -2 to 10."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for e in range(-2, 11):
            for m in rng.integers(2**52, 2**53, size=per_exponent).tolist():
                out.append(Decimal(2 * m + 1) * Decimal(2) ** (e - 1))
    return out


#: Files outside the plain grammar: `_read_grid` leaves them to `np.loadtxt`.
FALLBACK_GRIDS = {
    "crlf": b"1,2\r\n3,4\r\n",
    "spaces": b"1, 2\n3, 4\n",
    "comment": b"# grid\n1,2\n3,4\n",
    "blank line": b"1,2\n\n3,4\n",
    "ragged": b"1,2\n3\n",
    "empty field": b"1,,2\n3,4,5\n",
    "bom": b"\xef\xbb\xbf1, 2\n3, 4\n",  # dropped, then read as "spaces"
    "non-utf-8": b"1,2\n3,\xe9\n",
    "nan": b"1,nan\n3,4\n",
    "inf": b"1,-inf\n3,4\n",
    "25 digits": b"1,2\n3,1234567890123456789012345\n",
    "25 digits, point": b"1,2\n3,0.123456789012345678901234\n",
    "4-digit exponent": b"1,2\n3,1e0005\n",
    "hex": b"1,2\n3,0x10\n",
    "underscore": b"1,2\n3,1_000\n",
    "two points": b"1,2\n3,1.2.3\n",
    "sign inside": b"1,2\n3,1-2\n",
    "bare exponent": b"1,2\n3,1e\n",
    "two exponents": b"1,2\n3,1e5e3\n",
    "two exponent signs": b"1,2\n3,2e+-3\n",
    "no digits": b"1,2\n3,-.e5\n",
    "blank": b"\n",
}


class TestGridReader:
    """The plain-grid reader against `np.loadtxt`, at scale."""

    @pytest.mark.parametrize("spelling", ["%.17g", "repr", "%.15g", "%.18e"])
    def test_random_bit_patterns(self, spelling):
        rng = np.random.default_rng(["%.17g", "repr", "%.15g", "%.18e"].index(spelling))
        x = finite_bit_patterns(rng, 10**6 + 1000)[:10**6]
        spell = repr if spelling == "repr" else spelling.__mod__
        assert_read_like_loadtxt(grid_bytes([spell(v) for v in x.tolist()], 1000))

    def test_realistic_magnitudes(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(2 * 10**5) * 10.0 ** rng.integers(-12, 12, size=2 * 10**5)
        for spell in ("%.17g".__mod__, repr, "%.15g".__mod__, "%.6g".__mod__, "%.16e".__mod__):
            assert_read_like_loadtxt(grid_bytes([spell(v) for v in x.tolist()], 400))

    def test_halfway_decimals(self):
        ties = halfway_decimals(np.random.default_rng(21))
        for tie in ties[::101]:
            assert len(tie.normalize().as_tuple().digits) <= 19
            low = Decimal(float(tie))
            assert abs(tie - low) * 2 == Decimal(math.ulp(float(tie)))
        texts = [f"{tie:f}" for tie in ties] + [f"{tie:e}" for tie in ties]
        texts += ["-" + text for text in texts[:len(texts) // 2]]
        assert_read_like_loadtxt(grid_bytes(texts, 100))

    def test_mantissas_of_20_to_24_digits(self):
        rng = np.random.default_rng(22)
        texts = []
        for digits in rng.integers(20, 25, size=20000).tolist():
            mantissa = "".join(map(str, rng.integers(0, 10, size=digits)))
            point = int(rng.integers(0, digits + 1))
            exponent = int(rng.integers(-330, 300))
            texts.append(f"{mantissa[:point]}.{mantissa[point:]}e{exponent}".replace(".e", "e"))
        assert_read_like_loadtxt(grid_bytes(texts, 100))

    def test_edges_of_the_range(self):
        rng = np.random.default_rng(23)
        subnormals = rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64)
        texts = [*map(repr, subnormals.tolist()), *map("%.17g".__mod__, subnormals.tolist()),
                 "4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
                 "2.2250738585072011e-308", "2.2250738585072014e-308", "1e308",
                 "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
                 "2e308", "1e-400", "9999999999999999999e-343", "1e-342", "1e308", "1e309"]
        texts += ["-" + text for text in texts]
        assert_read_like_loadtxt(grid_bytes(texts, len(texts) // 2))

    @pytest.mark.parametrize("data", [
        b"-0,+0,0.000,-0e5,-.0\n+1.5,1E5,1e+5,1e-005,-1E-5\n",
        b".5,5.,-.5,+5.,0.5\n00012.5000,0.000123,-0000.5,007,1.e3\n",
        b"1,2,3",
        b"7",
        b"1\n2\n3\n",
        b"0.1,0.2,0.3\n",
        b"123456789012345678901234,1.00000000000000000000000,12345678901234567890.123\n",
        b"9007199254740993,9007199254740995,18014398509481986,18014398509481990\n",
    ], ids=["signs-zeros-exponents", "points-leading-zeros", "one-row-no-newline",
            "one-number-no-newline", "one-column", "one-row", "24-digits", "integer-ties"])
    def test_plain_spellings(self, data):
        assert_read_like_loadtxt(data)

    @pytest.mark.parametrize("token", [b"1.5", b"-2.25e-3", b"+3", b".5", b"7.",
                                       b"0.00012345678901234567"])
    def test_every_byte_inserted_or_substituted(self, token):
        # every byte but a digit is a mark, and a mark out of place is rejected
        # by the mark checks alone: no byte reaches the arithmetic unread
        outcomes = set()
        for byte in map(bytes, zip(range(256))):
            for cut in (0, 1):  # inserted, substituted
                for i in range(len(token) + 1 - cut):
                    data = b"1," + token[:i] + byte + token[i + cut:] + b"\n3,4\n"
                    read = cli._read_grid(data) is not None
                    if read:
                        assert_read_like_loadtxt(data)
                    outcomes.add(read)
        assert outcomes == {False, True}

    def test_golden_grids_and_blocks(self, monkeypatch):
        golden = Path(__file__).resolve().parent / "golden"
        for name in ("u0.csv", "u1.csv"):
            assert_read_like_loadtxt((golden / name).read_bytes())
        # a line longer than a block is a block of its own
        monkeypatch.setattr(cli, "_GRID_BLOCK", 64)
        assert_read_like_loadtxt(grid_bytes(["%.17g" % v for v in np.linspace(-1, 1, 300)], 30))

    @pytest.mark.parametrize("name", FALLBACK_GRIDS)
    def test_other_files_fall_back_to_loadtxt(self, name, tmp_path, monkeypatch, capsys):
        data = FALLBACK_GRIDS[name]
        assert cli._read_grid(data) is None
        path = tmp_path / "grid.csv"
        path.write_bytes(data)
        seen = []

        def capture(grid, kmax):
            seen.append(grid)
            raise InputError("captured")

        monkeypatch.setattr(cli, "sine_coefficients", capture)
        status, _, err = run(["modes", "--beta", "0.1", "--kmax", "1", "--u0", str(path),
                              "--u1", str(path)], capsys)
        assert status == 2
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns of an empty file
                want = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
        except ValueError as exc:
            assert err == f"error: u0: malformed CSV grid in {path}: {exc}\n"
            return
        if not want.size:
            assert err == f"error: u0: no numbers in {path}\n"
        elif not np.isfinite(want).all():
            assert err.startswith("error: u0: sample ") and "is not finite" in err
        else:
            assert seen[0].view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("data", [b"1.5,-2e-3\n3,4\n", b"1.5, -2e-3\n3, 4\n"],
                             ids=["plain", "falls back"])
    def test_byte_order_mark_is_dropped(self, data, tmp_path, monkeypatch, capsys):
        # spreadsheet programs write a UTF-8 byte order mark first
        seen, loadtxt_calls = [], []
        loadtxt = np.loadtxt

        def capture(grid, kmax):
            seen.append(grid)
            raise InputError("captured")

        def counted_loadtxt(*args, **kwargs):
            loadtxt_calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(cli, "sine_coefficients", capture)
        monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
        for name, content in (("bom.csv", b"\xef\xbb\xbf" + data), ("plain.csv", data)):
            path = tmp_path / name
            path.write_bytes(content)
            status, _, err = run(["modes", "--beta", "0.1", "--kmax", "1", "--u0", str(path),
                                  "--u1", str(path)], capsys)
            assert (status, err) == (2, "error: captured\n")
        with_mark, without = seen
        assert with_mark.view(np.uint64).tolist() == without.view(np.uint64).tolist()
        assert with_mark.tolist() == [[1.5, -2e-3], [3.0, 4.0]]
        assert bool(loadtxt_calls) == (b" " in data)

    def test_powers_of_5_made_on_first_use(self):
        code = ("import memwave.cli as cli; made = cli._pow5_128.cache_info().currsize; "
                "cli._read_grid(b'1.5,2e-3\\n'); print(made, cli._pow5_128.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": SRC},
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0", "3"]  # q from -3 to -1


class TestSpectrumCommand:
    def test_memoryless_csv(self, capsys):
        status, out, _ = run(
            ["spectrum", "--beta", "0", "--eta", "0", "--kmax", "2", "--format", "csv"],
            capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k1,k2,lambda,re_omega,im_omega,r,residual"
        assert len(lines) == 5
        re_omega = [float(line.split(",")[3]) for line in lines[1:]]
        expected = [math.sqrt(2.0), math.sqrt(5.0), math.sqrt(5.0), math.sqrt(8.0)]
        assert np.allclose(re_omega, expected, rtol=0, atol=1e-15)

    def test_json_format(self, capsys):
        status, out, _ = run(
            ["spectrum", "--beta", "0.3", "--eta", "0.45", "--kmax", "3",
             "--format", "json"], capsys)
        assert status == 0
        records = json.loads(out)
        assert len(records) == 9
        assert set(records[0]) == {"k1", "k2", "lambda", "re_omega", "im_omega",
                                   "r", "residual"}
        assert all(rec["residual"] < 1e-12 for rec in records)

    def test_missing_flag_exits_2(self, capsys):
        status, _, err = run(["spectrum", "--beta", "0", "--kmax", "2"], capsys)
        assert status == 2
        assert "eta" in err
        assert "\n" not in err.strip()

    def test_invalid_regime_exits_2(self, capsys):
        status, _, err = run(
            ["spectrum", "--beta", "1", "--eta", "1", "--kmax", "2"], capsys)
        assert status == 2
        assert "eta" in err

    def test_unknown_format_is_one_line_from_flag_or_file(self, tmp_path, capsys):
        conf = tmp_path / "format.conf"
        conf.write_text("format = xml\n")
        argv = ["spectrum", "--beta", "0", "--eta", "0", "--kmax", "2"]
        for extra in (["--format", "xml"], ["--config", str(conf)]):
            status, out, err = run(argv + extra, capsys)
            assert (status, out) == (2, "")
            assert err == "error: format: must be one of ['csv', 'json'], got 'xml'\n"


class TestGapsCommand:
    def test_audit_json(self, capsys):
        status, out, _ = run(["gaps", "--beta", "0.3", "--kmax", "16"], capsys)
        assert status == 0
        audit = json.loads(out)
        assert audit["min_ratio_k2"] >= gap_constant(0.3).gamma
        assert audit["gamma"] == pytest.approx(gap_constant(0.3).gamma, abs=0)

    @pytest.mark.parametrize("argv, config", [
        (["--gamma-table"], None), (["--steps", "4"], None),
        ([], "gamma_table = yes\n"), ([], "steps = 4\n"),
    ], ids=["gamma-table-flag", "steps-flag", "gamma_table-key", "steps-key"])
    def test_removed_table_flags_exit_2(self, argv, config, tmp_path, capsys):
        # gaps writes the audit only (the beta -> gamma table is the beta and
        # gamma columns of `thresholds`): no table switch or step count
        if config is not None:
            conf = tmp_path / "table.conf"
            conf.write_text(config)
            argv = ["--config", str(conf)]
        status, out, err = run(["gaps", "--beta", "0.3", "--kmax", "4", *argv], capsys)
        assert (status, out) == (2, "")
        if config is not None:
            assert err == f"error: {config.partition(' ')[0]}: unknown configuration key\n"
        else:  # argparse's usage line, then its one error line
            assert err.startswith("usage:")
            assert err.splitlines()[1:] == [f"memwave: error: unrecognized arguments: "
                                            f"{' '.join(argv)}"]

    def test_beta_out_of_range(self, capsys):
        status, _, err = run(["gaps", "--beta", "2.0", "--kmax", "8"], capsys)
        assert status == 2

    def test_kmax_below_2_is_the_audits_own_bound(self, capsys):
        # kmax has one bound for every subcommand; the audit states its own
        status, out, err = run(["gaps", "--beta", "0.3", "--kmax", "1"], capsys)
        assert (status, out, err) == (2, "", "error: kmax must be >= 2, got 1\n")


class TestInghamCheckCommand:
    def test_report(self, tmp_path, capsys):
        path = write_family(tmp_path)
        status, out, _ = run(["ingham-check", "--family", path, "--T", "4"], capsys)
        assert status == 0
        report = json.loads(out)
        assert set(report) == {"lhs", "rhs", "S", "margin", "violations"}
        assert report["violations"] == []
        assert report["margin"] >= -1e-9 * (1.0 + abs(report["rhs"]))

    def test_violations_reported(self, tmp_path, capsys):
        family = {
            "omega_re": [3.0, 3.0], "omega_im": [0.0, 0.0], "r": [0.0, 0.0],
            "C_re": [0.5, 0.5], "C_im": [0.0, 0.0], "R": [0.0, 0.0],
            "gamma": 3.0, "tau": 1, "theta": 1.0, "mu": 1.0,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(family))
        status, out, _ = run(["ingham-check", "--family", str(path), "--T", "4"], capsys)
        assert status == 0
        report = json.loads(out)
        assert any("separation" in v for v in report["violations"])

    def test_missing_family_file(self, tmp_path, capsys):
        status, _, err = run(
            ["ingham-check", "--family", str(tmp_path / "none.json"), "--T", "4"],
            capsys)
        assert status == 2

    def test_failed_bound_exits_1_after_the_report(self, tmp_path, capsys, monkeypatch):
        # the golden family satisfies every hypothesis and has rhs > 0: an
        # energy of 0 fails the bound, certified only after the report is written
        import memwave.ingham as ingham

        monkeypatch.setattr(ingham, "energy_integral", lambda family, T: 0.0)
        family = Path(__file__).resolve().parent / "golden" / "family.json"
        output = tmp_path / "report.json"
        status, _, err = run(["ingham-check", "--family", str(family), "--T", "4",
                              "--output", str(output)], capsys)
        assert status == 1
        report = json.loads(output.read_text())
        assert report["violations"] == [] and report["lhs"] == 0.0 and report["rhs"] > 0.0
        assert err == (f"assertion failure: energy lower bound failed: lhs=0.0 < "
                       f"rhs={report['rhs']!r} [datum: (0.0, {report['rhs']!r})]\n")

    @pytest.mark.parametrize("field,value,horizon,message", [
        ("r", [100.0, -0.2], "10", "lhs=nan is not finite: the energy overflows"),
        ("omega_im", [-100.0, 0.1], "10", "rhs=-inf is not finite: the bound overflows"),
        ("C_re", [1e200, 0.25], "10", "rhs=nan is not finite: the bound overflows"),
        ("gamma", 1e-200, "4", "rhs=-inf is not finite: the bound overflows"),
    ], ids=["lhs-r", "rhs-omega_im", "rhs-C_re", "rhs-gamma"])
    def test_overflow_is_one_line_exit_2(self, tmp_path, capsys, recwarn, field, value, horizon,
                                         message):
        # finite family data whose energy or bound overflows float64 at a valid
        # horizon: the message blames the family's numbers, not T
        family = json.loads((Path(__file__).resolve().parent / "golden" / "family.json").read_text())
        family[field] = value
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family))
        status, out, err = run(["ingham-check", "--family", str(path), "--T", horizon], capsys)
        assert status == 2 and out == ""
        assert err == (f"error: {message} with this family's numbers "
                       f"at T={float(horizon)}\n")
        assert len(recwarn) == 0


class TestModesCommand:
    def test_coefficients_match_library(self, tmp_path, capsys):
        from memwave import InitialData, KernelParams, expand

        u0, u1 = write_grids(tmp_path)
        out = tmp_path / "coeffs.json"
        status, _, _ = run(
            ["modes", "--beta", "0.1", "--kmax", "3", "--u0", u0, "--u1", u1,
             "--output", str(out)], capsys)
        assert status == 0
        records = json.loads(out.read_text())
        assert len(records) == 9
        data = InitialData.from_samples(np.loadtxt(u0, delimiter=","),
                                        np.loadtxt(u1, delimiter=","), 3)
        expansion = expand(KernelParams.limiting_regime(0.1), data)
        for rec in records:
            k1, k2 = rec["k1"], rec["k2"]
            assert rec["C_re"] == expansion.C[k1 - 1, k2 - 1].real
            assert rec["C_im"] == expansion.C[k1 - 1, k2 - 1].imag
            assert rec["R"] == expansion.R[k1 - 1, k2 - 1]

    def test_grid_too_coarse_exits_2(self, tmp_path, capsys):
        u0, u1 = write_grids(tmp_path, m=5)
        status, _, err = run(
            ["modes", "--beta", "0.1", "--kmax", "4", "--u0", u0, "--u1", u1],
            capsys)
        assert status == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", ["u0", "u1"])
    def test_empty_grid_file_names_flag_and_path(self, flag, tmp_path, capsys):
        # numpy warns of an empty file; the run must instead say which file it is
        grids = dict(zip(("u0", "u1"), write_grids(tmp_path)))
        grids[flag] = str(tmp_path / "empty.csv")
        open(grids[flag], "w").close()
        for argv in (["modes", "--beta", "0.1", "--kmax", "3"],
                     ["observe", "--beta", "0.1", "--T", "50", "--kmax", "3", "--mu", "1"]):
            status, out, err = run(argv + ["--u0", grids["u0"], "--u1", grids["u1"]], capsys)
            assert status == 2 and not out
            assert err == f"error: {flag}: no numbers in {grids[flag]}\n"


def write_grids_with(tmp_path, flag, row, col, token, m=5):
    """write_grids on an m x m grid, with one sample of the `flag` grid spelled
    `token`, or every sample of its row when `col` is None."""
    grids = dict(zip(("u0", "u1"), write_grids(tmp_path, m=m)))
    lines = Path(grids[flag]).read_text().splitlines()
    cells = lines[row].split(",")
    for i in range(len(cells)) if col is None else [col]:
        cells[i] = token
    lines[row] = ",".join(cells)
    Path(grids[flag]).write_text("\n".join(lines) + "\n")
    return grids


BOTH_COMMANDS = (["modes", "--beta", "0.1", "--kmax", "2"],
                 ["observe", "--beta", "0.1", "--T", "50", "--kmax", "2", "--mu", "1"])


class TestGridSamples:
    """Samples that break the arithmetic are input errors naming the flag and file."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["u0", "u1"])
    def test_non_finite_sample_named_by_row_and_column(self, flag, token, tmp_path, capsys):
        grids = write_grids_with(tmp_path, flag, 2, 3, token)
        for argv in BOTH_COMMANDS:
            status, out, err = run(argv + ["--u0", grids["u0"], "--u1", grids["u1"]], capsys)
            assert status == 2 and not out
            assert err == (f"error: {flag}: sample {float(token)} at row 3, column 4 of "
                           f"{grids[flag]} is not finite\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", ["u0", "u1"])
    def test_overflowing_coefficients_name_flag_and_path(self, flag, tmp_path, capsys):
        # a row of 1e308 sums past the largest double in the first product
        grids = write_grids_with(tmp_path, flag, 1, None, "1e308")
        for argv in BOTH_COMMANDS:
            status, out, err = run(argv + ["--u0", grids["u0"], "--u1", grids["u1"]], capsys)
            assert status == 2 and not out
            assert err == f"error: {flag}: the sine coefficients of {grids[flag]} overflow\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", ["u0", "u1"])
    def test_one_sample_of_1e308_has_finite_coefficients(self, flag, tmp_path, capsys):
        # no partial sum of the products passes the largest double: modes
        # succeeds, and observe stops where its two sides, quadratic in the
        # data, overflow
        grids = write_grids_with(tmp_path, flag, 1, 1, "1e308")
        modes, observe = (argv + ["--u0", grids["u0"], "--u1", grids["u1"]]
                          for argv in BOTH_COMMANDS)
        status, out, err = run(modes, capsys)
        assert (status, err) == (0, "")
        records = json.loads(out)
        assert len(records) == 4
        assert all(math.isfinite(value) for record in records for value in record.values())
        status, out, err = run(observe, capsys)
        assert status == 2 and not out
        assert err.startswith("error: initial data: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag", ["u0", "u1"])
    def test_huge_samples_exit_2(self, flag, tmp_path, capsys):
        # both sides of the inequality overflow float64: bad input, not a failed check
        argv = ["observe", "--beta", "0.01", "--T", "50", "--kmax", "2", "--mu", "1"]
        for token in ("1e156", "1e200", "1e300"):
            grids = write_grids_with(tmp_path, flag, 1, 1, token)
            out = tmp_path / "report.json"
            status, _, err = run(argv + ["--u0", grids["u0"], "--u1", grids["u1"],
                                         "--output", str(out)], capsys)
            assert status == 2, token
            assert err.startswith("error: initial data: ") and err.count("\n") == 1
            assert not out.exists()
        grids = write_grids_with(tmp_path, flag, 1, 1, "1e150")
        status, _, err = run(argv + ["--u0", grids["u0"], "--u1", grids["u1"]], capsys)
        assert status == 0 and not err


class TestObserveCommand:
    def test_report_fields(self, tmp_path, capsys):
        u0, u1 = write_grids(tmp_path)
        report_path = tmp_path / "report.json"
        status, _, _ = run(
            ["observe", "--beta", "0.01", "--T", "50", "--kmax", "3",
             "--mu", "1", "--u0", u0, "--u1", u1, "--output", str(report_path)],
            capsys)
        assert status == 0
        report = json.loads(report_path.read_text())
        expected_keys = {"beta", "T", "kmax", "theta", "mu", "gamma", "S", "c0",
                         "T0", "beta0", "lhs", "rhs_sum", "margin", "verdict",
                         "below_threshold", "infeasible"}
        assert set(report) == expected_keys
        assert report["verdict"] is True

    def test_infeasible_beta_reported_with_inf(self, tmp_path, capsys):
        u0, u1 = write_grids(tmp_path)
        out_path = tmp_path / "report.json"
        status, _, _ = run(
            ["observe", "--beta", "0.5", "--T", "50", "--kmax", "3",
             "--mu", "1", "--u0", u0, "--u1", u1, "--output", str(out_path)],
            capsys)
        assert status == 0
        report = json.loads(out_path.read_text())
        assert report["infeasible"] is True
        assert report["verdict"] is False
        assert report["T0"] == math.inf  # serialized as Infinity

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy is glibc's mallopt")
    def test_steady_state_op_faults_in_no_fresh_pages(self, tmp_path):
        # glibc's default policy unmaps or trims each temporary of 128 KiB and
        # more when it is freed, for the next op to fault it in afresh.  The ops
        # run in a fresh interpreter: glibc raises its thresholds with what a
        # process has freed, which in this one could hide the faults.
        rng = np.random.default_rng(23)
        k = np.arange(1, 65.0)
        argv = ["observe", "--beta", "0.01", "--T", "50", "--mu", "1", "--kmax", "64",
                "--output", str(tmp_path / "report.json")]
        for name in ("u0", "u1"):
            coeffs = rng.standard_normal((64, 64)) / (k[:, None] ** 2 + k**2)
            np.savetxt(tmp_path / f"{name}.csv", sine_polynomial_on_grid(coeffs, 129),
                       delimiter=",", fmt="%.17g")
            argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        code = """
import json, resource, sys
from memwave.cli import parse_and_dispatch
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert parse_and_dispatch(sys.argv[1:]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""
        result = subprocess.run([sys.executable, "-c", code, *argv], env={"PYTHONPATH": SRC},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        faults = json.loads(result.stdout)
        assert faults[1] < 100, faults


class TestFiniteReport:
    """A report float that is not finite fails the run, unless it is an infeasible T0."""

    ARGS = ["observe", "--beta", "0.01", "--T", "50", "--kmax", "3", "--mu", "1"]

    def run_with_report(self, changes, tmp_path, capsys, monkeypatch):
        real = cli.verify_observability

        def patched(config, data):
            return dataclasses.replace(real(config, data), **changes)

        monkeypatch.setattr(cli, "verify_observability", patched)
        u0, u1 = write_grids(tmp_path)
        out = tmp_path / "report.json"
        status, _, err = run(self.ARGS + ["--u0", u0, "--u1", u1, "--output", str(out)],
                             capsys)
        return status, err, out

    def test_nan_value_is_audit_failure(self, tmp_path, capsys, monkeypatch):
        status, err, out = self.run_with_report({"lhs": math.nan}, tmp_path, capsys,
                                                monkeypatch)
        assert status == 1
        assert err.startswith("assertion failure: report value lhs=nan is not finite")
        assert not out.exists()

    def test_non_finite_side_of_modest_data_is_audit_failure(self, tmp_path, capsys,
                                                             monkeypatch):
        # data of modest scale: a non-finite side is a fault, not an input error
        import memwave.observability as observability
        monkeypatch.setattr(observability, "boundary_trace_energy", lambda expansion, T: math.nan)
        u0, u1 = write_grids(tmp_path)
        out = tmp_path / "report.json"
        status, _, err = run(self.ARGS + ["--u0", u0, "--u1", u1, "--output", str(out)], capsys)
        assert status == 1
        assert err.startswith("assertion failure: report value lhs=nan is not finite")
        assert not out.exists()

    def test_infinite_T0_needs_infeasible(self, tmp_path, capsys, monkeypatch):
        status, err, out = self.run_with_report({"T0": math.inf, "infeasible": False},
                                                tmp_path, capsys, monkeypatch)
        assert status == 1
        assert "report value T0=inf is not finite" in err
        assert not out.exists()
        status, _, out = self.run_with_report({"T0": math.inf, "infeasible": True},
                                              tmp_path, capsys, monkeypatch)
        assert status == 0
        assert json.loads(out.read_text())["T0"] == math.inf


class TestThresholdsCommand:
    def test_table(self, capsys, monkeypatch):
        spelled = spell_counter(monkeypatch)
        status, out, _ = run(["thresholds", "--mu", "1", "--beta-steps", "3"], capsys)
        assert status == 0
        # beta, gamma and T0 row by row; the constants S and beta0_global once
        assert spelled == [4, 4, 1, 4, 1]
        lines = out.strip().split("\n")
        assert lines[0] == "beta,gamma,S,T0,beta0_global"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(45.341723575401045, abs=1e-6)
        last = lines[-1].split(",")
        assert last[3] == "inf"

    def test_beta0_bisected_once_per_table(self, capsys, monkeypatch):
        # beta0 depends on mu and theta only: 34 bisection steps, not 34 a row
        import memwave.observability as observability

        calls = []
        real = observability.gap_constant
        monkeypatch.setattr(observability, "gap_constant", lambda b: calls.append(b) or real(b))
        status, out, _ = run(["thresholds", "--mu", "1", "--beta-steps", "64"], capsys)
        assert status == 0 and len(out.splitlines()) == 66
        assert len(calls) == 34 + 65
        assert len({line.split(",")[4] for line in out.splitlines()[1:]}) == 1


def concrete_errors():
    """Every subclass of MemwaveError below the two exit-code bases."""
    found, stack = set(), [MemwaveError]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            found.add(sub)
    return sorted(found - {InputError, CertificationFailure}, key=lambda c: c.__name__)


#: Constructor arguments of the errors whose signature is not (message,).
ERROR_ARGS = {
    AuditFailure: ("forced failure", (3, 4)),
    MonotonicityFailure: ("forced failure", 0.5),
    HypothesisError: ([Violation("window", (), "forced failure")],),
    ParseError: ("forced failure", 7),
    ValidationError: ("field", "forced failure"),
}


class TestExitCodes:
    def test_assertion_failure_exits_1(self, capsys, monkeypatch):
        # the exit status follows the error's base: 1 for a failed certified
        # check (with the datum), 2 for rejected input; every concrete error
        # has exactly one of the two bases
        import memwave.cli as cli

        classes = concrete_errors()
        assert len(classes) >= 17
        for cls in classes:
            bases = [b for b in (InputError, CertificationFailure) if issubclass(cls, b)]
            assert len(bases) == 1, cls
            error = cls(*ERROR_ARGS.get(cls, ("forced failure",)))

            def boom(params, kmax, error=error):
                raise error

            monkeypatch.setattr(cli, "audit_gaps", boom)
            status, _, err = run(["gaps", "--beta", "0.1", "--kmax", "4"], capsys)
            assert status == (1 if bases[0] is CertificationFailure else 2), cls
            assert "forced failure" in err and "\n" not in err.strip(), cls
            if cls is AuditFailure:
                assert "(3, 4)" in err

    def test_other_exceptions_propagate(self, capsys, monkeypatch):
        # an exception outside the hierarchy is a bug, not an exit status
        import memwave.cli as cli

        def boom(params, kmax):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(cli, "audit_gaps", boom)
        with pytest.raises(ZeroDivisionError):
            parse_and_dispatch(["gaps", "--beta", "0.1", "--kmax", "4"])

    def test_no_subcommand_exits_2(self, capsys):
        status, _, err = run([], capsys)
        assert status == 2


class TestRejectedNumbers:
    OBSERVE = ["observe", "--beta", "0.01", "--T", "50", "--kmax", "3", "--mu", "1"]

    @pytest.mark.parametrize("argv, field", [
        (OBSERVE + ["--T", "inf"], "t"),
        (OBSERVE + ["--T=-inf"], "t"),
        (OBSERVE + ["--T", "nan"], "t"),
        (OBSERVE + ["--mu", "inf"], "mu"),
        (OBSERVE + ["--mu", "nan"], "mu"),
        (OBSERVE + ["--theta", "inf"], "theta"),
        (OBSERVE + ["--beta", "nan"], "beta"),
        (["thresholds", "--mu", "nan", "--beta-steps", "2"], "mu"),
        (["thresholds", "--mu", "inf", "--beta-steps", "2"], "mu"),
        (["thresholds", "--mu", "1", "--theta", "nan", "--beta-steps", "2"], "theta"),
        (["spectrum", "--beta", "0", "--eta", "inf", "--kmax", "2"], "eta"),
        (["ingham-check", "--family", "{family}", "--T", "inf"], "t"),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v[:1] + v[-2:]))
    def test_non_finite_exits_2(self, argv, field, tmp_path, capsys):
        u0, u1 = write_grids(tmp_path)
        out = tmp_path / "out"
        argv = [a.format(family=write_family(tmp_path)) for a in argv]
        if argv[0] == "observe":
            argv += ["--u0", u0, "--u1", u1]
        status, _, err = run(argv + ["--output", str(out)], capsys)
        assert status == 2
        assert err.startswith(f"error: {field}: must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["1e-300", "1e-160", "1e300"])
    def test_horizon_breaking_arithmetic_exits_2(self, horizon, tmp_path, capsys):
        # T^2 underflows to 0 (division by zero), c0 or the bound's right side
        # overflows, or T^2 overflows and c0 collapses to 0
        u0, u1 = write_grids(tmp_path)
        for argv in (
            ["observe", "--beta", "0.01", "--T", horizon, "--kmax", "3", "--mu", "1",
             "--u0", u0, "--u1", u1],
            ["ingham-check", "--family", write_family(tmp_path), "--T", horizon],
        ):
            out = tmp_path / "out"
            status, _, err = run(argv + ["--output", str(out)], capsys)
            assert status == 2, argv[0]
            assert err.startswith("error: ") and "T" in err
            assert not out.exists()

    def test_family_entries_must_be_finite(self, tmp_path, capsys):
        # json reads NaN, strings, booleans and nulls; the family must not reach
        # the arithmetic with them, nor float() read a string or a bool as a
        # number, nor numpy a null as NaN
        for key, value, message in (
            ("omega_re", [3.0, math.nan], "omegas must be finite"),
            ("gamma", "0.9", "gamma must hold numbers, got '0.9'"),
            ("C_re", ["1.0", True], "C_re must hold numbers, got '1.0'"),
            ("r", [1.0, True], "r must hold numbers, got True"),
            ("C_re", [None, None], "C_re must hold numbers, got None"),
            ("gamma", None, "gamma must hold numbers, got None"),
        ):
            family = json.loads(open(write_family(tmp_path)).read())
            family[key] = value
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(family))
            out = tmp_path / "out"
            status, _, err = run(["ingham-check", "--family", str(path), "--T", "4",
                                  "--output", str(out)], capsys)
            assert status == 2, key
            assert err.startswith(f"error: family: {message}")
            assert not out.exists()

    def test_huge_mu_exits_2(self, tmp_path, capsys):
        # 4 + 3*S overflows: the error names mu, not T
        u0, u1 = write_grids(tmp_path)
        for argv in (
            ["thresholds", "--mu", "1e308", "--beta-steps", "2"],
            ["observe", "--beta", "0.01", "--T", "50", "--kmax", "3", "--mu", "1e308",
             "--u0", u0, "--u1", u1],
        ):
            out = tmp_path / "out"
            status, _, err = run(argv + ["--output", str(out)], capsys)
            assert status == 2, argv[0]
            assert err.startswith("error: mu=") and "T=" not in err
            assert not out.exists()

    @pytest.mark.parametrize("eta", ["1e78", "1e102", "1e200"])
    def test_huge_eta_exits_2(self, eta, tmp_path, capsys):
        # the Phi radicand overflows to inf (and eta**3 itself from 5.6e102 on):
        # no NaN table, no OverflowError
        out = tmp_path / "out"
        status, _, err = run(["spectrum", "--beta", "0.5", "--eta", eta, "--kmax", "2",
                              "--output", str(out)], capsys)
        assert status == 2
        assert err.startswith(f"error: eta={float(eta)!r} ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_family_gamma_must_be_positive(self, tmp_path, capsys):
        family = json.loads(open(write_family(tmp_path)).read())
        family["gamma"] = 0.0
        path = tmp_path / "gamma0.json"
        path.write_text(json.dumps(family))
        status, _, err = run(["ingham-check", "--family", str(path), "--T", "4"], capsys)
        assert status == 2
        assert "gamma" in err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("beta = 0.2\nkmax = 8\n")
        status, out, _ = run(
            ["gaps", "--config", str(conf), "--beta", "0.3"], capsys)
        assert status == 0
        audit = json.loads(out)
        assert audit["beta"] == 0.3
        assert audit["kmax"] == 8

    def test_empty_file_plus_flags(self, tmp_path, capsys):
        conf = tmp_path / "empty.conf"
        conf.write_text("")
        status, out, _ = run(
            ["gaps", "--config", str(conf), "--beta", "0.1", "--kmax", "4"], capsys)
        assert status == 0

    def test_invalid_value_names_field(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("beta = 5\nkmax = 4\n")
        status, _, err = run(["gaps", "--config", str(conf)], capsys)
        assert status == 2
        assert "beta" in err

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # as some editors write it; grids drop it too
        outs = []
        for name, head in (("bom.conf", b"\xef\xbb\xbf"), ("plain.conf", b"")):
            conf = tmp_path / name
            conf.write_bytes(head + b"beta = 0.2\nkmax = 4\n")
            status, out, err = run(["gaps", "--config", str(conf)], capsys)
            assert (status, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_parse_error_reports_line(self, tmp_path):
        conf = tmp_path / "malformed.conf"
        conf.write_text("# comment\nbeta 0.2\n")
        with pytest.raises(ParseError) as err:
            load_config(str(conf))
        assert err.value.line == 2

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "unknown.conf"
        conf.write_text("betta = 0.2\n")
        with pytest.raises(ValidationError) as err:
            load_config(str(conf))
        assert err.value.field == "betta"

    def test_known_keys_are_the_flag_destinations(self):
        from memwave.cli import _KNOWN_KEYS

        assert _KNOWN_KEYS == {
            "beta", "eta", "kmax", "format",
            "family", "t", "u0", "u1", "mu", "theta", "beta_steps",
            "output",
        }

    @pytest.mark.parametrize("subcommand, alias", [("modes", "emit"), ("observe", "report")])
    def test_removed_output_aliases_rejected(self, subcommand, alias, tmp_path, capsys):
        # --output is the one destination; the old per-subcommand aliases are
        # neither flags nor config keys
        conf = tmp_path / "alias.conf"
        conf.write_text(f"{alias} = out.json\n")
        status, _, err = run([subcommand, "--config", str(conf)], capsys)
        assert status == 2
        assert f"{alias}: unknown configuration key" in err
        status, _, err = run([subcommand, f"--{alias}", str(tmp_path / "x")], capsys)
        assert status == 2
        assert f"--{alias}" in err

    def test_subcommand_key_rejected(self, tmp_path, capsys):
        # the subcommand comes from the command line; a file cannot switch it
        conf = tmp_path / "switch.conf"
        conf.write_text("subcommand = thresholds\nbeta = 0.2\nkmax = 4\n")
        status, out, err = run(["gaps", "--config", str(conf)], capsys)
        assert status == 2
        assert out == ""
        assert "subcommand" in err

    def test_comments_and_hyphens(self, tmp_path, capsys):
        conf = tmp_path / "ok.conf"
        conf.write_text("# table\nbeta-steps = 2  # inline\nmu = 1\n")
        status, out, _ = run(["thresholds", "--config", str(conf)], capsys)
        assert status == 0
        assert len(out.strip().split("\n")) == 4


GOLDEN_FAMILY = Path(__file__).resolve().parent / "golden" / "family.json"


def write_golden_family(tmp_path, **changes):
    """The golden family file with `changes`, its path."""
    family = {**json.loads(GOLDEN_FAMILY.read_text()), **changes}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    return str(path)


class TestFileBoundary:
    """Input files are read, and --output is written, through one boundary: a
    file that cannot be used is bad input (exit 2, one line naming the flag)."""

    THRESHOLDS = ["thresholds", "--mu", "1", "--beta-steps", "2"]

    @pytest.mark.parametrize("where, reason", [("missing/x.csv", "No such file or directory"),
                                               ("", "Is a directory")])
    def test_unwritable_output_exits_2(self, where, reason, tmp_path, capsys):
        path = str(tmp_path / where)
        status, out, err = run(self.THRESHOLDS + ["--output", path], capsys)
        assert (status, out) == (2, "")
        assert err == f"error: output: cannot write {path}: {reason}\n"

    def test_full_stdout_exits_2(self):
        # the whole of stderr is the one line: no traceback, no "Exception ignored" at exit
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "memwave.cli", *self.THRESHOLDS],
                                    env={"PYTHONPATH": SRC}, stdout=full, stderr=subprocess.PIPE,
                                    text=True, timeout=60)
        assert result.returncode == 2
        assert result.stderr == "error: output: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("argv", [["--help"], ["modes", "--help"]])
    def test_help_to_full_stdout_exits_2(self, argv):
        # argparse ignores a failed write of its help text; the flush shows it
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "memwave.cli", *argv],
                                    env={"PYTHONPATH": SRC}, stdout=full, stderr=subprocess.PIPE,
                                    text=True, timeout=60)
        assert result.returncode == 2
        assert result.stderr == "error: output: cannot write stdout: No space left on device\n"

    def test_closed_stdout_pipe_exits_2(self):
        # a reader that stops after its first read, as `| head -c 10` does
        argv = ["spectrum", "--beta", "0.3", "--eta", "0.45", "--kmax", "400", "--format", "csv"]
        child = subprocess.Popen([sys.executable, "-m", "memwave.cli", *argv],
                                 env={"PYTHONPATH": SRC}, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        assert child.stdout.read(10) == "k1,k2,lamb"
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err == "error: output: cannot write stdout: Broken pipe\n"

    def test_empty_output_exits_2(self, tmp_path, capsys):
        # an empty path is bad input, not stdout: from the flag or from a config
        conf = tmp_path / "empty.conf"
        conf.write_text("output =\n")
        for extra in (["--output", ""], ["--config", str(conf)]):
            status, out, err = run(["thresholds", "--mu", "1", "--beta-steps", "1", *extra],
                                   capsys)
            assert (status, out, err) == (2, "", "error: output: must not be empty\n")

    def test_empty_config_path_exits_2(self, capsys):
        status, out, err = run(self.THRESHOLDS + ["--config", ""], capsys)
        assert (status, out) == (2, "")
        assert err == "error: config: cannot read : No such file or directory\n"

    @pytest.mark.parametrize("key", ["output", "family"])
    def test_nul_byte_path_from_config_exits_2(self, key, tmp_path, capsys):
        conf = tmp_path / "nul.conf"
        conf.write_text(f"{key} = a\0b\n")
        argv = self.THRESHOLDS if key == "output" else ["ingham-check", "--T", "4"]
        status, _, err = run(argv + ["--config", str(conf)], capsys)
        assert status == 2
        assert err.startswith(f"error: {key}: cannot ") and err.endswith(": embedded null byte\n")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(b"mu = 1\nbeta_steps = 2 # \xff\n")
        status, out, err = run(["thresholds", "--config", str(conf)], capsys)
        assert (status, out) == (2, "")
        assert err == (f"error: config: not UTF-8 text in {conf}: 'utf-8' codec can't decode "
                       f"byte 0xff in position 24: invalid start byte\n")

    def test_non_utf8_family_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(GOLDEN_FAMILY.read_bytes().replace(b"{", b"{\xff", 1))
        status, out, err = run(["ingham-check", "--family", str(path), "--T", "4"], capsys)
        assert (status, out) == (2, "")
        assert err == (f"error: family: malformed JSON in {path}: 'utf-8' codec can't decode "
                       f"byte 0xff in position 1: invalid start byte\n")

    def test_deeply_nested_family_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        status, out, err = run(["ingham-check", "--family", str(path), "--T", "4"], capsys)
        assert (status, out) == (2, "")
        assert err.startswith(f"error: family: malformed JSON in {path}: maximum recursion depth")

    @pytest.mark.parametrize("top", [5, [1.0], "family", None])
    def test_family_top_level_must_be_an_object(self, top, tmp_path, capsys):
        path = tmp_path / "top.json"
        path.write_text(json.dumps(top))
        status, out, err = run(["ingham-check", "--family", str(path), "--T", "4"], capsys)
        assert (status, out) == (2, "")
        assert err == f"error: family: the top level of {path} is not a JSON object\n"

    @pytest.mark.parametrize("tau, shown", [(1e400, "inf"), (math.nan, "nan"), (1.5, "1.5"),
                                            (True, "True"), ("3", "'3'"), (None, "None")])
    def test_family_tau_must_be_a_finite_integer(self, tau, shown, tmp_path, capsys):
        path = write_golden_family(tmp_path, tau=tau)
        status, out, err = run(["ingham-check", "--family", path, "--T", "4"], capsys)
        assert (status, out) == (2, "")
        assert err == f"error: family: tau must be a finite integer, got {shown}\n"

    def test_family_nested_arrays_exit_2(self, tmp_path, capsys):
        family = json.loads(GOLDEN_FAMILY.read_text())
        arrays = ("omega_re", "omega_im", "r", "C_re", "C_im", "R")
        path = write_golden_family(tmp_path, **{key: [family[key]] for key in arrays})
        status, out, err = run(["ingham-check", "--family", path, "--T", "4"], capsys)
        assert (status, out) == (2, "")
        assert err == "error: family: omegas must be a 1-D array, got shape (1, 2)\n"


class TestDeterminism:
    COMMANDS = (
        ["spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "6", "--format", "csv"],
        ["spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "4", "--format", "json"],
        ["gaps", "--beta", "0.3", "--kmax", "12"],
        ["thresholds", "--mu", "1", "--beta-steps", "8"],
        ["thresholds", "--mu", "1", "--beta-steps", "16"],
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_repeated_runs_byte_identical(self, argv, tmp_path, capsys):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert parse_and_dispatch(argv + ["--output", str(out_a)]) == 0
        assert parse_and_dispatch(argv + ["--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


#: Flag values of the fuzz that parse and are in range; {tmp} stands for a
#: fresh directory that is also the working directory.  The golden grids are
#: 13 x 13, enough for kmax 6; kmax stays at most 8 and a step count at most 64.
GRIDS = [str(GOLDEN_FAMILY.parent / "u0.csv"), str(GOLDEN_FAMILY.parent / "u1.csv")]
GOOD = {"--beta": ["0", "0.01", "0.3", "1"], "--eta": ["0", "0.45", "2"],
        "--kmax": ["1", "2", "3", "6", "8"], "--format": ["csv", "json"],
        "--beta-steps": ["1", "8", "64"], "--T": ["4", "20", "50"],
        "--mu": [None, "0.5", "1", "1e300"], "--theta": [None, "0.75", "1", "1e300"],
        "--family": ["{tmp}/family.json"], "--u0": GRIDS, "--u1": GRIDS,
        "--output": [None, "{tmp}/out"]}
#: Values that do not parse, are out of range or not finite, or only just
#: pass; and paths of a file in a missing directory, a directory, a file that
#: is not a grid and a path with a NUL byte.
TRICKY = ["", "nan", "-inf", "1e400", "0", "-1", "abc", "0x10", "1e-300", "1e300", "0.5", "2"]
PATHS = ["{tmp}/missing/x", "{tmp}", "{tmp}/family.json", "a\0b"]
#: The flags of each subcommand.
FUZZ_FLAGS = {
    "spectrum": ("--beta", "--eta", "--kmax", "--format"),
    "gaps": ("--beta", "--kmax"),
    "ingham-check": ("--family", "--T"),
    "modes": ("--beta", "--kmax", "--u0", "--u1"),
    "observe": ("--beta", "--T", "--kmax", "--mu", "--theta", "--u0", "--u1"),
    "thresholds": ("--mu", "--theta", "--beta-steps"),
}
#: Config lines that are not flag values.
JUNK = ["# note\n", "junk\n", "= 1\n", "betta = 1\n", "subcommand = gaps\n", "mu = 1\xff\n"]
#: Family entries of the fuzz: JSON values of every kind, flat, nested and huge.
FAMILY_VALUES = [5, 0, -1, 1.5, 1e-200, 1e300, math.inf, math.nan, "abc", None, True, [],
                 [1.0], [3.0, 6.5, 9.0], [[3.0, 6.5]], {"a": 1}, 10**400]
FAMILY_KEYS = ["omega_re", "omega_im", "r", "C_re", "C_im", "R", "gamma", "tau", "theta", "mu"]


@st.composite
def cli_runs(draw):
    """(argv, config file bytes or None, family file bytes) of one fuzzed run.

    At most one input is at fault: one flag, the config file or the family
    file; every other flag is good, so a run gets as far as its fault."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command] + ("--output",)
    fault = draw(st.sampled_from([None, "config", "family", *flags]))
    argv, config = [command], ""
    for flag in flags:
        if flag != fault:
            value = draw(st.sampled_from(GOOD[flag]))
        elif flag in ("--family", "--u0", "--u1", "--output"):
            value = draw(st.sampled_from(PATHS + [None]))
        else:
            value = draw(st.sampled_from(TRICKY + [None]))
        if value is None:
            continue
        if draw(st.booleans()):  # from the config file
            config += f"{flag.lstrip('-')} = {value}\n"
        else:
            argv.append(f"{flag}={value}")
    if fault == "config":
        config += draw(st.sampled_from(JUNK))
    family = json.loads(GOLDEN_FAMILY.read_text())
    if fault == "family":
        changes = st.dictionaries(st.sampled_from(FAMILY_KEYS), st.sampled_from(FAMILY_VALUES),
                                  min_size=1, max_size=2)
        family = draw(changes.map(lambda c: {**family, **c}) | st.sampled_from(FAMILY_VALUES))
    family = json.dumps(family).encode()
    if fault == "family" and draw(st.booleans()):
        family = b"\xff" + family
    return argv, config.encode("latin-1") or None, family


def family_bytes(**changes):
    return json.dumps({**json.loads(GOLDEN_FAMILY.read_text()), **changes}).encode()


INGHAM_CHECK = ["ingham-check", "--T=4", "--family={tmp}/family.json"]


class TestFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(cli_runs())
    @example((["thresholds", "--mu=1", "--beta-steps=2", "--output={tmp}/missing/x"], None,
              family_bytes()))
    @example((INGHAM_CHECK, None, b"5"))
    @example((INGHAM_CHECK, None, family_bytes(gamma=1e-200)))  # T*gamma^2 underflows
    @example((INGHAM_CHECK, None, family_bytes(theta=1e300)))  # n**theta overflows
    @example((INGHAM_CHECK, None, family_bytes(omega_im=math.inf)))  # inf * 1j
    def test_every_run_exits_0_1_or_2(self, case):
        # bad input exits 2 with one line on stderr (argparse prints its usage
        # too), a failed certificate 1; no input raises an exception
        argv, config, family = case
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            Path(tmp, "family.json").write_bytes(family)
            if config is not None:
                Path(tmp, "run.conf").write_bytes(config.replace(b"{tmp}", tmp.encode()))
                argv = argv + ["--config", "run.conf"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                status = parse_and_dispatch([arg.replace("{tmp}", tmp) for arg in argv])
        err = err.getvalue()
        assert status in (0, 1, 2), err
        assert not caught, [str(w.message) for w in caught]  # a warning goes to stderr
        assert (status == 0) == (err == ""), err
        if status and not err.startswith("usage:"):
            assert err.count("\n") == 1, err
