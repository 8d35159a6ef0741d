"""Byte-exact CLI outputs at small sizes, compared with committed golden files.

Every subcommand writes its output with --output into a temp directory; the
bytes must equal `tests/golden/<case>.out`.  The inputs (sampled grids and
exponent families) live beside the outputs, so a reordered key, a changed
column or a different last digit shows up as a failure here.

To capture the files again from a trusted checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

import memwave.cli as cli
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
    "gaps_gamma_table": ("gaps", "--gamma-table", "--steps", "16"),
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
    for name in ("spectrum_json", "modes", "gaps_gamma_table", "thresholds_theta"):
        output = tmp_path / f"{name}.out"
        assert _run_case(name, output) == 0
        assert capsys.readouterr().err == ""
        assert output.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        if _run_case(case, GOLDEN / f"{case}.out") != 0:
            raise SystemExit(f"case {case} failed")
