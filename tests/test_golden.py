"""Byte-exact CLI outputs at small sizes, compared with committed golden files.

Every subcommand writes its output with --output into a temp directory; the
bytes must equal `tests/golden/<case>.out`.  The inputs (sampled grids and
exponent families) live beside the outputs, so a reordered key, a changed
column or a different last digit shows up as a failure here.

To capture the files again from a trusted checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import memwave.cli as cli
from conftest import coefficient_errors
from memwave import sine_coefficients
from memwave.cli import parse_and_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"

_GRIDS = ("--u0", "{dir}/u0.csv", "--u1", "{dir}/u1.csv")

#: case name -> CLI arguments, with {dir} standing for the golden directory.
CASES = {
    "spectrum_limiting_csv": ("spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "6"),
    "spectrum_general_csv": ("spectrum", "--beta", "0.3", "--eta", "1.0", "--kmax", "5",
                             "--format", "csv"),
    "spectrum_json": ("spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "4",
                      "--format", "json"),
    "gaps_audit": ("gaps", "--beta", "0.3", "--kmax", "12"),
    "thresholds": ("thresholds", "--mu", "1", "--beta-steps", "8"),
    "thresholds_theta": ("thresholds", "--mu", "0.5", "--theta", "0.75", "--beta-steps", "5"),
    "ingham_check": ("ingham-check", "--family", "{dir}/family.json", "--T", "4"),
    "ingham_check_violations": ("ingham-check", "--family", "{dir}/family_violating.json",
                                "--T", "4"),
    "modes": ("modes", "--beta", "0.1", "--kmax", "4", *_GRIDS),
    "observe": ("observe", "--beta", "0.01", "--T", "50", "--kmax", "4", "--mu", "1", *_GRIDS),
    "observe_empirical_mu": ("observe", "--beta", "0.05", "--T", "20", "--kmax", "4",
                             "--theta", "0.75", *_GRIDS),
    "observe_infeasible": ("observe", "--beta", "0.5", "--T", "50", "--kmax", "3",
                           "--mu", "1", *_GRIDS),
}


def _run_case(name: str, output: Path) -> int:
    argv = [arg.format(dir=GOLDEN) for arg in CASES[name]]
    return parse_and_dispatch(argv + ["--output", str(output)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, tmp_path, capsys):
    output = tmp_path / f"{name}.out"
    assert _run_case(name, output) == 0
    assert capsys.readouterr().err == ""
    assert output.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("rejected", [("modes", "--kmax"), ("spectrum", "--format", "xml"),
                                      ("--no-such-flag",), ("thresholds", "--mu", "1", "x")])
def test_one_parser_serves_every_call(rejected, tmp_path, capsys, monkeypatch):
    # the module's parser is built once; a call that argparse rejects (exit 2)
    # leaves it as it was for the next call
    monkeypatch.setattr(cli, "_build_parser", None)
    assert parse_and_dispatch(list(rejected)) == 2
    capsys.readouterr()
    for name in ("spectrum_json", "modes", "gaps_audit", "thresholds_theta"):
        output = tmp_path / f"{name}.out"
        assert _run_case(name, output) == 0
        assert capsys.readouterr().err == ""
        assert output.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def test_gamma_table_is_the_beta_and_gamma_columns_of_thresholds(tmp_path, capsys):
    # the beta -> gamma table is the first two columns of a `thresholds` table,
    # byte for byte
    output = tmp_path / "thresholds.out"
    assert parse_and_dispatch(["thresholds", "--mu", "1", "--beta-steps", "16",
                               "--output", str(output)]) == 0
    assert capsys.readouterr().err == ""
    columns = b"".join(b",".join(line.split(b",")[:2]) + b"\n"
                       for line in output.read_bytes().splitlines())
    assert columns == (GOLDEN / "gamma_table.out").read_bytes()


def _exact_energy(family, T):
    """integral_0^T F(t)^2 dt of a family file's signal, to 50 digits: the
    pairwise sum of closed-form integrals in mpmath, the numbers of the file
    read as the CLI reads them (binary64)."""
    with mpmath.workdps(50):
        z, s = [], []
        for re, im, r, c_re, c_im, R in zip(*(family[key] for key in (
                "omega_re", "omega_im", "r", "C_re", "C_im", "R"))):
            omega, C = mpmath.mpc(re, im), mpmath.mpc(c_re, c_im)
            z += [C, mpmath.conj(C), mpmath.mpf(R)]
            s += [1j * omega, -1j * mpmath.conj(omega), mpmath.mpf(r)]
        total = 0
        for z_a, s_a in zip(z, s):
            for z_b, s_b in zip(z, s):
                e = s_a + mpmath.conj(s_b)
                integral = T if e == 0 else mpmath.expm1(e * T) / e
                total += z_a * mpmath.conj(z_b) * integral
        return total.real


@pytest.mark.parametrize("name", ["ingham_check", "ingham_check_violations"])
def test_ingham_check_energy_within_half_an_ulp(name):
    # the goldens' lhs is the exact energy correctly rounded, or nearly: within
    # half an ulp of its 50-digit value
    args = CASES[name]
    family = json.loads(Path(args[args.index("--family") + 1].format(dir=GOLDEN)).read_text())
    lhs = json.loads((GOLDEN / f"{name}.out").read_text())["lhs"]
    exact = _exact_energy(family, float(args[args.index("--T") + 1]))
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(lhs) - exact) <= mpmath.mpf(math.ulp(lhs)) / 2


def test_modes_golden_matches_50_digit_solve():
    # each mode's C within 1e-15 of itself, and the small, cancelling R within
    # 1e-15 of the data max(|a|, |b|), of the 50-digit solve of the same
    # system: the golden's roots and the grids' sine coefficients taken exactly
    args = CASES["modes"]
    kmax = int(args[args.index("--kmax") + 1])
    a, b = (sine_coefficients(np.loadtxt(GOLDEN / f"{name}.csv", delimiter=",", ndmin=2), kmax)
            for name in ("u0", "u1"))
    records = json.loads((GOLDEN / "modes.out").read_text())
    column = {key: np.array([rec[key] for rec in records]).reshape(kmax, kmax)
              for key in records[0]}
    k1, k2 = column["k1"], column["k2"]
    z1 = 1j * (column["re_omega"] + 1j * column["im_omega"])
    c_error, r_error = coefficient_errors(column["C_re"] + 1j * column["C_im"], column["R"],
                                          z1, column["r"], a, b, k1 * k1 + k2 * k2)
    assert c_error <= 1e-15 and r_error <= 1e-15


if __name__ == "__main__":
    for case in sorted(CASES):
        if _run_case(case, GOLDEN / f"{case}.out") != 0:
            raise SystemExit(f"case {case} failed")
