"""Subcommand behavior, formats, config merging, exit codes, determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memwave.cli as cli
from conftest import reference_csv_table, reference_json_dumps, reference_mode_table
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

    @given(st.lists(st.tuples(FINITE_EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS),
                    min_size=1, max_size=30),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    @example([(-0.0, math.nan, -0.0), (5e-324, math.inf, 5e-324),
              (1e308, -math.inf, 1.7976931348623157e308)], False)
    @example([(-0.0, 1.0, math.nan), (5e-324, -0.0, 2.0), (1e308, 3.0, 4.0)], True)
    @example([(1.0, 2.0, math.inf), (-5e-324, -1e308, 0.5)], True)
    @example([(1.0, -math.inf, 0.0), (-1e308, 2.0, -0.0)], False)
    def test_tables_round_trip_exactly(self, rows, as_arrays):
        # int64 k1, k2 columns beside an all-finite float column and two columns
        # of any floats, as Python lists or as numpy arrays; the writers decide
        # each column's spelling by whether it is all finite
        n = len(rows)
        columns = {"k1": np.arange(n, dtype=np.int64) // 4 + 1,
                   "k2": np.arange(n, dtype=np.int64) % 4 + 1,
                   **{name: [row[i] for row in rows] for i, name in enumerate("fxy")}}
        if as_arrays:
            columns = {name: np.asarray(column) for name, column in columns.items()}
        text = cli.json_dumps(columns, table=True)
        assert text == reference_json_dumps(
            [dict(zip(columns, row)) for row in zip(*columns.values())]) + "\n"
        csv = cli._csv(columns)
        assert csv == reference_csv_table(",".join(columns), zip(*columns.values()))
        # JSON numbers are read as floats: "-0" is negative zero, not the int 0
        records = json.loads(text, parse_int=float)
        csv_rows = [line.split(",") for line in csv.splitlines()]
        assert csv_rows[0] == ["k1", "k2", "f", "x", "y"]
        for i in range(n):
            for j, name in enumerate(columns):
                want = columns[name][i]
                assert same_float(records[i][name], want)
                assert same_float(float(csv_rows[i + 1][j]), want)
            assert int(csv_rows[i + 1][0]) == i // 4 + 1 and int(csv_rows[i + 1][1]) == i % 4 + 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spectrum_matches_reference_writer_at_kmax_64(self, fmt, tmp_path):
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

    def test_modes_matches_reference_writer_at_kmax_64(self, tmp_path):
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


class TestGapsCommand:
    def test_audit_json(self, capsys):
        status, out, _ = run(["gaps", "--beta", "0.3", "--kmax", "16"], capsys)
        assert status == 0
        audit = json.loads(out)
        assert audit["min_ratio_k2"] >= gap_constant(0.3).gamma
        assert audit["gamma"] == pytest.approx(gap_constant(0.3).gamma, abs=0)

    def test_gamma_table(self, capsys):
        status, out, _ = run(["gaps", "--gamma-table", "--steps", "4"], capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,gamma"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_beta_out_of_range(self, capsys):
        status, _, err = run(["gaps", "--beta", "2.0", "--kmax", "8"], capsys)
        assert status == 2


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
    def test_table(self, capsys):
        status, out, _ = run(["thresholds", "--mu", "1", "--beta-steps", "3"], capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,gamma,S,T0,beta0_global"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(45.341723575401045, abs=1e-6)
        last = lines[-1].split(",")
        assert last[3] == "inf"


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
        # json reads NaN; the family must not reach the arithmetic with it
        family = json.loads(open(write_family(tmp_path)).read())
        family["omega_re"] = [3.0, math.nan]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(family))
        out = tmp_path / "out"
        status, _, err = run(["ingham-check", "--family", str(path), "--T", "4",
                              "--output", str(out)], capsys)
        assert status == 2
        assert err.startswith("error: family: omegas must be finite")
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
            "beta", "eta", "kmax", "format", "steps", "gamma_table",
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


class TestDeterminism:
    COMMANDS = (
        ["spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "6", "--format", "csv"],
        ["spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "4", "--format", "json"],
        ["gaps", "--beta", "0.3", "--kmax", "12"],
        ["gaps", "--gamma-table", "--steps", "16"],
        ["thresholds", "--mu", "1", "--beta-steps", "8"],
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_repeated_runs_byte_identical(self, argv, tmp_path, capsys):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert parse_and_dispatch(argv + ["--output", str(out_a)]) == 0
        assert parse_and_dispatch(argv + ["--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
