"""Command-line front end.

Subcommands
-----------
spectrum      per-mode roots table (csv or json)
gaps          gap audit as JSON, or a beta -> gamma table as CSV
ingham-check  energy lower bound report for a family file
modes         recover per-mode coefficients from sampled initial data
observe       full observability report as JSON
thresholds    beta, gamma, S, T0 table as CSV

Every subcommand writes to --output (stdout when absent) and reads --config, a
flat `key = value` file (# comments) whose keys are flag names (not the
subcommand); command-line flags override file values.

An output is a flat JSON report (gaps, observe, ingham-check) or a table of
numbers.  Every number is spelled `"%.17g" % v`: integers in full, floats
round-trip exact, repeated runs byte-identical.  Non-finite numbers are
NaN/Infinity/-Infinity in JSON and nan/inf/-inf in CSV.  A report float must be
finite, except T0 = Infinity when infeasible; otherwise the run exits 1.

Exit status follows the error type: 0 on success, 2 for an `errors.InputError`
(bad input; one-line diagnostic on stderr), 1 for an `errors.CertificationFailure`
(a certified check failed; offending datum printed); any other exception is a
bug and propagates.  Rejected as input: non-finite numbers (`inf`, `nan`) in
flags or family files, a horizon T whose square is 0 or infinite, or that makes
c0 or the bound non-finite, and a mu whose load 4*(4 + 3*S) or T0 overflows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import partialmethod
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import (
    AuditFailure,
    CertificationFailure,
    InputError,
    ParseError,
    ValidationError,
)
from .gap_analysis import audit_gaps, gap_constant
from .ingham import ExponentFamily, check_hypotheses, energy_lower_bound
from .modes import InitialData, expand
from .observability import constant_S, thresholds, verify_observability, ObservabilityConfig
from .spectrum import BETA_MAX, KernelParams, _vieta_residuals, mode_spectrum

__all__ = ["load_config", "parse_and_dispatch", "main"]

_KMAX_LIMIT = 512


# ---------------------------------------------------------------------------
# deterministic serialization: one spelling rule, one row template per table

#: The spelling of every number, 17 significant digits: integers below 2**53 in
#: full, floats round-trip exact; the non-finite are nan, inf and -inf.
_SPELLING = "%.17g"

#: JSON names of the non-finite numbers; CSV keeps the spelling's own.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def format_float(x) -> str:
    """A number as JSON spells it: `_SPELLING`, but NaN, Infinity and -Infinity."""
    text = _SPELLING % x
    return _JSON_NON_FINITE.get(text, text)


def _record(specs: Dict[str, str], indent: str) -> str:
    """Template of one JSON record at `indent`: a `"name": spec` line per name."""
    lines = ",\n".join(f"{indent}  {json.dumps(name)}: {spec}" for name, spec in specs.items())
    return f"{indent}{{\n{lines}\n{indent}}}"


def _json_column(column) -> tuple:
    """(conversion spec, cells) of one JSON table column.

    An all-finite column keeps its numbers and puts `_SPELLING` in the record
    template, so the template spells them; any other column is `%s` over the
    `format_float` texts of its numbers.
    """
    column = np.asarray(column)
    if np.isfinite(column).all():
        return _SPELLING, column.tolist()
    return "%s", list(map(format_float, column.tolist()))


def _report_value(value) -> str:
    """A report cell: a number, or by name a bool, a string or a list of strings."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        items = ",\n".join(f"    {json.dumps(item)}" for item in value)
        return f"[\n{items}\n  ]" if value else "[]"
    return format_float(value)


def json_dumps(fields: Dict[str, object], table: bool = False) -> str:
    """The writer of every JSON output, in key order, through one record template.

    A report maps each name to one value, spelled by `_report_value`.  A table
    maps each name to a column of numbers (a sequence or an array) and is
    written as an array with one record per row: an all-finite column is
    spelled by its `_SPELLING` line in the template, any other one cell by cell
    by `format_float`.
    """
    if not table:
        return _record(dict.fromkeys(fields, "%s"), "") % tuple(
            map(_report_value, fields.values())) + "\n"
    specs, columns = {}, []
    for name, column in fields.items():
        specs[name], cells = _json_column(column)
        columns.append(cells)
    records = map(_record(specs, "  ").__mod__, zip(*columns))
    return "[\n" + ",\n".join(records) + "\n]\n"


def _csv(columns: Dict[str, Sequence]) -> str:
    """CSV table: a header of the column names, then one line per row from a
    `_SPELLING,...` template, whose nan, inf and -inf are CSV's own spelling."""
    template = ",".join([_SPELLING] * len(columns)) + "\n"
    rows = zip(*(np.asarray(column).tolist() for column in columns.values()))
    return ",".join(columns) + "\n" + "".join(map(template.__mod__, rows))


def _mode_table(columns: Dict[str, np.ndarray], fmt: str) -> str:
    """Per-mode table as csv or json: one row per (k1, k2), k2 varying fastest.

    `columns` maps column names to (kmax, kmax) arrays indexed [k1-1, k2-1];
    the k1 and k2 columns are prepended.
    """
    kmax = len(next(iter(columns.values())))
    k1, k2 = np.indices((kmax, kmax)) + 1
    table = {name: a.ravel() for name, a in {"k1": k1, "k2": k2, **columns}.items()}
    return _csv(table) if fmt == "csv" else json_dumps(table, table=True)


def _write_report(payload: Dict[str, object], path: Optional[str]) -> None:
    """Write a report whose floats are all finite, but T0 = Infinity when infeasible;
    otherwise raise AuditFailure naming the first key that breaks this."""
    for name, value in payload.items():
        allowed = name == "T0" and value == math.inf and payload.get("infeasible") is True
        if isinstance(value, float) and not math.isfinite(value) and not allowed:
            raise AuditFailure(f"report value {name}={value} is not finite",
                               datum=(name, value))
    _write_output(json_dumps(payload), path)


def _write_output(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config file and flag merging


def load_config(path: str) -> Dict[str, str]:
    """Parse a flat `key = value` config file into its parameter map.

    Keys are case-insensitive with hyphens and underscores interchangeable.
    Raises ParseError with the line number for malformed lines and
    ValidationError for unknown keys.
    """
    try:
        with open(path, "r") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValidationError("config", f"cannot read {path}: {exc.strerror}")
    parameters: Dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if key not in _KNOWN_KEYS:
            raise ValidationError(key, "unknown configuration key")
        parameters[key] = value
    return parameters


class _Resolver:
    """Merge command-line flags over config-file values with typed validation."""

    def __init__(self, args: argparse.Namespace, file_params: Dict[str, str]):
        self._args = vars(args)
        self._file = file_params

    def _raw(self, name: str):
        cli_value = self._args.get(name)
        if cli_value is not None:
            return cli_value, True
        return self._file.get(name), False

    def _number(self, name, parse, kind, required=False, default=None,
                minimum=None, maximum=None, exclusive_min=None):
        """Parse one numeric value, then require it finite and within the limits."""
        raw, _ = self._raw(name)
        if raw is None:
            if required:
                raise ValidationError(name, "required value missing")
            if default is None:
                return None
            raw = default
        try:
            value = parse(raw)
        except (TypeError, ValueError):
            raise ValidationError(name, f"not {kind}: {raw!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(name, f"must be finite, got {value}")
        if minimum is not None and value < minimum:
            raise ValidationError(name, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValidationError(name, f"must be <= {maximum}, got {value}")
        if exclusive_min is not None and value <= exclusive_min:
            raise ValidationError(name, f"must be > {exclusive_min}, got {value}")
        return value

    get_float = partialmethod(_number, parse=float, kind="a number")
    get_int = partialmethod(_number, parse=lambda raw: int(str(raw), 10), kind="an integer")

    def get_str(self, name, required=False, default=None) -> Optional[str]:
        raw, _ = self._raw(name)
        if raw is None:
            if required:
                raise ValidationError(name, "required value missing")
            return default
        return str(raw)

    def get_choice(self, name, choices, default=None) -> str:
        value = self.get_str(name, default=default)
        if value not in choices:
            raise ValidationError(name, f"must be one of {sorted(choices)}, got {value!r}")
        return value

    def get_flag(self, name) -> bool:
        raw, from_cli = self._raw(name)
        if raw is None:
            return False
        if from_cli:
            return bool(raw)
        text = str(raw).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off", ""):
            return False
        raise ValidationError(name, f"not a boolean: {raw!r}")


# ---------------------------------------------------------------------------
# subcommand runners


def _load_initial_data(res: _Resolver, kmax: int) -> InitialData:
    """Initial data from the CSV sample grids named by the u0 and u1 flags."""
    grids = []
    for name in ("u0", "u1"):
        path = res.get_str(name, required=True)
        try:
            grids.append(np.loadtxt(path, delimiter=",", ndmin=2))
        except OSError as exc:
            raise ValidationError(name, f"cannot read {path}: {exc.strerror}")
        except ValueError as exc:
            raise ValidationError(name, f"malformed CSV grid in {path}: {exc}")
    return InitialData.from_samples(*grids, kmax)


def _run_spectrum(res: _Resolver, output: Optional[str]) -> None:
    beta = res.get_float("beta", required=True, minimum=0.0, maximum=BETA_MAX)
    eta = res.get_float("eta", required=True, minimum=0.0)
    kmax = res.get_int("kmax", required=True, minimum=1, maximum=_KMAX_LIMIT)
    fmt = res.get_choice("format", {"csv", "json"}, default="csv")
    params = KernelParams(beta=beta, eta=eta)
    lam, omega, r = mode_spectrum(params, kmax)
    residual = np.maximum.reduce(_vieta_residuals(
        1j * omega, -1j * omega.conj(), r.astype(complex), params, lam))
    columns = {"lambda": lam, "re_omega": omega.real, "im_omega": omega.imag,
               "r": r, "residual": residual}
    _write_output(_mode_table(columns, fmt), output)


def _run_gaps(res: _Resolver, output: Optional[str]) -> None:
    if res.get_flag("gamma_table"):
        steps = res.get_int("steps", required=True, minimum=1)
        betas = np.linspace(0.0, BETA_MAX, steps + 1).tolist()
        _write_output(_csv({"beta": betas, "gamma": [gap_constant(b).gamma for b in betas]}),
                      output)
        return
    beta = res.get_float("beta", required=True, minimum=0.0, maximum=BETA_MAX)
    kmax = res.get_int("kmax", required=True, minimum=2, maximum=_KMAX_LIMIT)
    audit = audit_gaps(KernelParams.limiting_regime(beta), kmax)
    _write_report(asdict(audit), output)


def _load_family(path: str) -> ExponentFamily:
    try:
        with open(path, "r") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError("family", f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ValidationError("family", f"malformed JSON in {path}: {exc}")
    required = ["omega_re", "omega_im", "r", "C_re", "C_im", "R",
                "gamma", "tau", "theta", "mu"]
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValidationError("family", f"missing keys: {', '.join(missing)}")
    try:
        omegas = np.asarray(raw["omega_re"], dtype=float) + 1j * np.asarray(
            raw["omega_im"], dtype=float)
        family = ExponentFamily(
            omegas=omegas,
            rs=np.asarray(raw["r"], dtype=float),
            Cs=np.asarray(raw["C_re"], dtype=float) + 1j * np.asarray(
                raw["C_im"], dtype=float),
            Rs=np.asarray(raw["R"], dtype=float),
            gamma=float(raw["gamma"]),
            tau=int(raw["tau"]),
            theta=float(raw["theta"]),
            mu=float(raw["mu"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError("family", str(exc))
    return family


def _run_ingham_check(res: _Resolver, output: Optional[str]) -> None:
    family_path = res.get_str("family", required=True)
    horizon = res.get_float("t", required=True, exclusive_min=0.0)
    family = _load_family(family_path)
    violations = check_hypotheses(family, horizon)
    report = energy_lower_bound(family, horizon, check=False)
    _write_report({**asdict(report), "violations": [str(v) for v in violations]}, output)
    if not violations and report.margin < -1e-9 * (1.0 + abs(report.rhs)):
        raise AuditFailure(
            f"energy lower bound failed: lhs={report.lhs} < rhs={report.rhs}",
            datum=(report.lhs, report.rhs),
        )


def _run_modes(res: _Resolver, output: Optional[str]) -> None:
    beta = res.get_float("beta", required=True, minimum=0.0, maximum=BETA_MAX)
    kmax = res.get_int("kmax", required=True, minimum=1, maximum=_KMAX_LIMIT)
    expansion = expand(KernelParams.limiting_regime(beta), _load_initial_data(res, kmax))
    columns = {"C_re": expansion.C.real, "C_im": expansion.C.imag, "R": expansion.R,
               "re_omega": expansion.omega.real, "im_omega": expansion.omega.imag,
               "r": expansion.r}
    _write_output(_mode_table(columns, "json"), output)


def _run_observe(res: _Resolver, output: Optional[str]) -> None:
    beta = res.get_float("beta", required=True, minimum=0.0, maximum=BETA_MAX)
    horizon = res.get_float("t", required=True, exclusive_min=0.0)
    kmax = res.get_int("kmax", required=True, minimum=1, maximum=_KMAX_LIMIT)
    mu = res.get_float("mu", exclusive_min=0.0)
    theta = res.get_float("theta", default=1.0, exclusive_min=0.5)
    data = _load_initial_data(res, kmax)
    config = ObservabilityConfig(beta=beta, T=horizon, kmax=kmax, mu=mu, theta=theta)
    report = verify_observability(config, data)
    _write_report(asdict(report), output)


def _run_thresholds(res: _Resolver, output: Optional[str]) -> None:
    mu = res.get_float("mu", required=True, exclusive_min=0.0)
    theta = res.get_float("theta", default=1.0, exclusive_min=0.5)
    steps = res.get_int("beta_steps", required=True, minimum=1)
    S = constant_S(mu, theta)
    betas = np.linspace(0.0, BETA_MAX, steps + 1).tolist()
    beta0, t0 = zip(*(thresholds(b, mu, theta) for b in betas))
    columns = {"beta": betas, "gamma": [gap_constant(b).gamma for b in betas],
               "S": [S] * len(betas), "T0": t0, "beta0_global": beta0}
    _write_output(_csv(columns), output)


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write output to this path")
    common.add_argument("--config", default=None,
                        help="key = value config file; flags override file values")

    parser = argparse.ArgumentParser(
        prog="memwave",
        description="Spectrum, gap and boundary-observability diagnostics for "
                    "the memory wave equation on the unit-pi square.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("spectrum", parents=[common],
                       help="per-mode characteristic roots table")
    p.add_argument("--beta", default=None)
    p.add_argument("--eta", default=None)
    p.add_argument("--kmax", default=None)
    p.add_argument("--format", default=None, choices=("csv", "json"))

    p = sub.add_parser("gaps", parents=[common], help="gap audit or gamma table")
    p.add_argument("--beta", default=None)
    p.add_argument("--kmax", default=None)
    p.add_argument("--gamma-table", dest="gamma_table", action="store_true",
                   default=None, help="emit a beta,gamma CSV table instead")
    p.add_argument("--steps", default=None)

    p = sub.add_parser("ingham-check", parents=[common],
                       help="energy lower bound for a family file")
    p.add_argument("--family", default=None)
    p.add_argument("--T", dest="t", default=None)

    p = sub.add_parser("modes", parents=[common],
                       help="recover per-mode coefficients from sampled data")
    p.add_argument("--beta", default=None)
    p.add_argument("--kmax", default=None)
    p.add_argument("--u0", default=None)
    p.add_argument("--u1", default=None)

    p = sub.add_parser("observe", parents=[common],
                       help="boundary observability report")
    p.add_argument("--beta", default=None)
    p.add_argument("--T", dest="t", default=None)
    p.add_argument("--kmax", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--u0", default=None)
    p.add_argument("--u1", default=None)

    p = sub.add_parser("thresholds", parents=[common],
                       help="beta,gamma,S,T0 table")
    p.add_argument("--mu", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--beta-steps", dest="beta_steps", default=None)

    return parser


def _config_keys(parser: argparse.ArgumentParser) -> frozenset:
    """Config-file keys: the destinations of every flag of every subcommand.

    The subcommand itself is chosen on the command line only, so it is not a key.
    """
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for p in (parser, *subparsers.choices.values())
             for action in p._actions}
    return frozenset(dests - {"config", "help", "subcommand"})


#: The one parser of the process; argparse keeps no state between parses.
_PARSER = _build_parser()
_KNOWN_KEYS = _config_keys(_PARSER)
_RUNNERS = {"spectrum": _run_spectrum, "gaps": _run_gaps, "ingham-check": _run_ingham_check,
            "modes": _run_modes, "observe": _run_observe, "thresholds": _run_thresholds}


def parse_and_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return 2

    try:
        res = _Resolver(args, load_config(args.config) if args.config else {})
        output = res.get_str("output")

        _RUNNERS[args.subcommand](res, output)
        return 0
    except CertificationFailure as exc:
        datum = getattr(exc, "datum", None)
        suffix = f" [datum: {datum}]" if datum is not None else ""
        message = f"assertion failure: {exc}{suffix}".replace("\n", " ")
        print(message, file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}".replace("\n", " "), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
