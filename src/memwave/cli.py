"""Command-line front end.

Subcommands
-----------
spectrum      per-mode roots table (csv or json)
gaps          gap audit as JSON
ingham-check  energy lower bound report for a family file
modes         recover per-mode coefficients from sampled initial data
observe       full observability report as JSON
thresholds    beta, gamma, S, T0 table as CSV (the beta -> gamma table)

Every subcommand writes to --output (stdout when absent) and reads --config, a
flat `key = value` file (# comments) whose keys are flag names (not the
subcommand); command-line flags override file values.  Each flag's spelling,
type, bounds and help are declared once, in `_FLAGS`; `_COMMANDS` names the
flags of each subcommand.

An output is a flat JSON report (gaps, observe, ingham-check) or a table of
numbers.  Every number is spelled `"%.17g" % v`: integers in full, floats
round-trip exact, repeated runs byte-identical.  Non-finite numbers are
NaN/Infinity/-Infinity in JSON and nan/inf/-inf in CSV.  A report float must be
finite, except T0 = Infinity when infeasible; otherwise the run exits 1.
Tables are spelled by numpy: each column's distinct numbers once where the
column is given as (values, index) (the per-mode tables' k1 and k2, and their
columns that depend on a mode only through its eigenvalue), the others row by
row, with 1e-11 < |v| < 1e17 by exact integer arithmetic (`_spell`) and the
rest (zeros, subnormals, other magnitudes, the non-finite) by the `%`
operator, then the rows are laid out as byte matrices; the text is the same as
`%` row by row.

Sample grids are read by `_read_grid`, the speller's inverse, when plain:
lines of comma-separated numbers [+-]?d*(.d*)?([eE][+-]?d{1,3})? of 1 to 24
significand digits, the same count on every line, the final newline optional:
every byte not a digit is a mark, a sign, point, exponent marker or separator
in its place.  The result equals `np.loadtxt(path, delimiter=",", ndmin=2)`
bit for bit; any other file (spaces, CR, comments, blank lines, ragged rows,
empty fields, nan/inf, non-ASCII bytes, longer numbers) goes to `np.loadtxt`.
A leading UTF-8 byte order mark is dropped first.

Exit status follows the error type: 0 on success, 2 for an `errors.InputError`
(bad input; one-line diagnostic on stderr), 1 for an `errors.CertificationFailure`
(a certified check failed; offending datum printed); any other exception is a
bug and propagates.  Rejected as input: non-finite numbers (`inf`, `nan`) in
flags or family files, a horizon T whose square is 0 or infinite, or that makes
c0 non-finite, a family whose bound or energy overflows, a mu whose load
4*(4 + 3*S) or T0 overflows, an eta that overflows the closed-form roots, a
sample-grid file with no numbers, a non-finite sample (flag, file, row and
column named), a grid whose sine coefficients overflow, initial data whose
observe inequality overflows, an input file that cannot be read or an --output
(or stdout) that cannot be written, an empty string value (an empty --output
path, say), a config or family file that is not UTF-8, and a family file whose
top level is not an object, whose tau is not a finite integer, whose arrays
are not flat lists or whose numbers are JSON strings or booleans.
"""

from __future__ import annotations

import argparse
import codecs
import ctypes
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from functools import cache
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

if int(np.__version__.split(".")[0]) >= 2:
    from numpy._core import _multiarray_umath
else:  # numpy 1.26's numpy._core holds Python shims, not the extension
    from numpy.core import _multiarray_umath

from .errors import (
    AuditFailure,
    CertificationFailure,
    InputError,
    ParseError,
    ValidationError,
)
from .gap_analysis import audit_gaps
from .ingham import ExponentFamily, _certify_bound, check_hypotheses, energy_lower_bound
from .modes import InitialData, expand, sine_coefficients
from .observability import ObservabilityConfig, _thresholds, constant_S, verify_observability
from .spectrum import BETA_MAX, KernelParams, _lattice, _vieta_residuals, mode_spectrum

__all__ = ["load_config", "parse_and_dispatch", "main"]


# ---------------------------------------------------------------------------
# deterministic serialization: one spelling rule, tables spelled by numpy

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


# Table numbers are spelled with integer arithmetic on arrays.  A double
# x = m * 2**q with decimal exponent E = floor(log10|x|) has the 17 digits
# round(|x| * 10**k) = round(m * 5**k * 2**(q + k)), k = 16 - E: an exact
# 128-bit product, rounded half-even.  5**k fits in a uint64 for k <= 27, so
# this covers 1e-11 < |x| < 1e17 (the double 1e-11 lies below 10**-11); every
# other number goes through `_SPELLING % x`, or `format_float` in JSON.

#: Bytes of a table cell: the longest spelling is "-2.2250738585072014e-308".
_CELL = 24
_DIGITS = 17
#: Decimal exponents of the exact range; 17 only by rounding's carry.
_E_MIN, _E_MAX = -11, 17
_POW5 = np.array([5**k for k in range(16 - _E_MIN + 1)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
#: A cell is gathered from a source row: the last 16 digits as four 4-digit
#: groups, the leading digit, these characters, then NUL (32 bytes in all).
_CHARS = "-+.e0123456789"
_SOURCE = _DIGITS + len(_CHARS) + 1
#: Each 4-digit group as four ASCII bytes in one uint32, and its trailing zeros.
_GROUP_ASCII = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_GROUP_ZEROS = sum(np.arange(10**4) % 10**i == 0 for i in range(1, 5))


def _layout(exponent: int, negative: int, digits: int) -> list:
    """Source columns of the cell of a number with decimal exponent `exponent`,
    sign `negative` and `digits` significant digits, laid out as `%g` does:
    fixed for -4 <= exponent < 17, trailing zeros dropped, else d.ddde±XX."""
    char = {c: _DIGITS + i for i, c in enumerate(_CHARS)}.__getitem__
    order = [16, *range(16)]  # digit columns, leading digit first
    cell = [char("-")] if negative else []
    if 0 <= exponent < _DIGITS:
        fraction = order[exponent + 1:digits]
        cell += order[:exponent + 1] + ([char("."), *fraction] if fraction else [])
    elif -4 <= exponent < 0:
        cell += [char("0"), char(".")] + [char("0")] * (-exponent - 1) + order[:digits]
    else:
        cell += order[:1] + ([char("."), *order[1:digits]] if digits > 1 else [])
        cell += map(char, "e%+03d" % exponent)
    return cell + [_SOURCE - 1] * (_CELL - len(cell))


@cache
def _layouts() -> tuple:
    """Cell layouts by ((exponent - _E_MIN) * 2 + negative) * _DIGITS + digits - 1,
    and the length of each cell; built on the first table, as reports need none."""
    layouts = np.array([_layout(e, negative, digits) for e in range(_E_MIN, _E_MAX + 1)
                        for negative in (0, 1) for digits in range(1, _DIGITS + 1)], np.intp)
    return layouts, np.count_nonzero(layouts != _SOURCE - 1, axis=1)


def _mul128(a, b) -> tuple:
    """(high, low) uint64 words of the 128-bit products a * b of uint64 arrays,
    from 32-bit limbs: the one wide product of the speller and the grid reader."""
    a_hi, a_lo, b_hi, b_lo = a >> 32, a & _LOW32, b >> 32, b & _LOW32
    low = a_lo * b_lo
    middle = a_lo * b_hi
    middle += low >> 32
    cross = a_hi * b_lo
    cross += middle & _LOW32
    high = a_hi * b_hi
    high += middle >> 32
    high += cross >> 32
    low &= _LOW32
    low |= cross << 32
    return high, low


def _scaled(m, q, exponent) -> tuple:
    """floor(m * 2**q * 10**(16 - exponent)) of uint64 m < 2**53, and its round
    and sticky bits: the 128-bit product m * 5**k, shifted."""
    k = 16 - exponent
    hi, lo = _mul128(m, _POW5[k])
    shift = -(q + k)
    right = np.maximum(shift, 1).astype(np.uint64)
    scaled = (hi << (64 - right)) | (lo >> right)
    half = np.uint64(1) << (right - 1)
    round_bit, sticky = (lo & half) != 0, (lo & (half - 1)) != 0
    left = shift <= 0  # small k on a large x: an exact left shift
    if left.any():
        scaled[left] = lo[left] << (-shift[left]).astype(np.uint64)
        round_bit &= ~left
    return scaled, round_bit, sticky


def _exact_cells(x: np.ndarray) -> tuple:
    """Cells of doubles with 1e-11 < |x| < 1e17, each `_SPELLING % x`, and the
    length of the longest."""
    bits = x.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    q = (bits >> 52 & np.uint64(0x7FF)).astype(np.int64) - 1075
    exponent = np.clip(np.floor(np.log10(np.abs(x))).astype(np.int64), _E_MIN, 16)
    scaled, round_bit, sticky = _scaled(m, q, exponent)
    # log10 may be one off; the truncated digits must lie in [1e16, 1e17)
    low, high = scaled < 10**16, scaled >= 10**17
    fix = low | high
    if fix.any():
        exponent += high.astype(np.int64) - low
        scaled[fix], round_bit[fix], sticky[fix] = _scaled(m[fix], q[fix], exponent[fix])
    scaled += round_bit & (sticky | (scaled & 1).astype(bool))
    carry = scaled == 10**17
    scaled[carry] = 10**16
    exponent += carry
    # `//` by a constant takes numpy's libdivide path, which `np.divmod` misses
    high8 = scaled // np.uint64(10**8)
    low8 = (scaled - high8 * np.uint64(10**8)).astype(np.uint32)
    high8 = high8.astype(np.uint32)
    lead = high8 // np.uint32(10**8)
    high8 -= lead * np.uint32(10**8)
    groups = []
    for word in (high8, low8):
        top = word // np.uint32(10**4)
        groups += [top, word - top * np.uint32(10**4)]
    source = np.empty((len(x), _SOURCE), np.uint8)
    words = source.view(np.uint32)
    for i, group in enumerate(groups):
        words[:, i] = _GROUP_ASCII[group]
    source[:, 16] = lead + ord("0")
    source[:, _DIGITS:] = np.frombuffer(_CHARS.encode() + b"\0", np.uint8)
    digits = np.ones(len(x), np.int64)
    for i, group in enumerate(groups):
        digits = np.where(group != 0, 4 * i + 5 - _GROUP_ZEROS[group], digits)
    layout = ((exponent - _E_MIN) * 2 + (bits >> 63).astype(np.int64)) * _DIGITS + digits - 1
    layouts, lengths = _layouts()
    cells = layouts[layout]
    cells += np.arange(0, source.size, _SOURCE)[:, None]
    return source.ravel()[cells], int(lengths[layout].max())


#: Numbers per call of `_exact_cells`, and rows per byte matrix of `_table`.
_BLOCK_ROWS = 4096


def _spell(values, spell=_SPELLING.__mod__) -> np.ndarray:
    """(n, w) uint8 cells of float64 `values`, each `_SPELLING % v` byte for byte,
    NUL-padded to the longest spelling w, whose length comes from the cells'
    layouts.  `spell` spells the numbers outside the exact range: zeros,
    subnormals, |v| <= 1e-11, |v| >= 1e17 and the non-finite."""
    x = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(x)
    exact = (magnitude > 1e-11) & (magnitude < 1e17)
    cells = np.zeros((len(x), _CELL), np.uint8)
    width = 0
    index = np.flatnonzero(exact)
    for start in range(0, len(index), _BLOCK_ROWS):
        chunk = index[start:start + _BLOCK_ROWS]
        cells[chunk], longest = _exact_cells(x[chunk])
        width = max(width, longest)
    other = ~exact
    if other.any():
        texts = [spell(v) for v in x[other].tolist()]
        cells[other] = np.array(texts, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
        width = max(width, max(map(len, texts)))
    return cells[:, :width]


def _records(matrix: np.ndarray) -> np.ndarray:
    """The rows of a uint8 matrix (its rows contiguous) as one fixed-width
    record each, a view: copying a record is one copy of its bytes."""
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


def _table(columns: Dict[str, object], heads: Sequence[str], tail: str, end: str,
           spell) -> List[str]:
    """Texts of a table's row blocks.  A row is heads[0], the row's number of
    the first column, heads[1], ..., then `tail`, or `end` after the last row.

    A column is a list or array of numbers, one per row, or a pair (values,
    index) whose row i holds values[index[i]].  `_spell` spells each number
    given once, as cells as wide as the column's longest, so a pair's values
    are spelled once however often rows repeat them.  A block of rows is one
    uint8 matrix of fragments and NUL-padded cells, each cell copied in as one
    fixed-width record, whose text is the matrix without its NULs.
    """
    row, cells, n = "", [], 0
    for head, column in zip(heads, columns.values()):
        values, index = column if isinstance(column, tuple) else (column, None)
        spelled = _spell(values, spell)
        n = len(spelled) if index is None else len(index)
        row += head
        cells.append((len(row), spelled, index))
        row += "\0" * spelled.shape[1]
    if not n:
        return []
    width = max(len(tail), len(end))
    row += tail.ljust(width, "\0")
    block = np.empty((min(n, _BLOCK_ROWS), len(row)), np.uint8)
    block[:] = np.frombuffer(row.encode(), np.uint8)
    slots = [(_records(block[:, offset:offset + spelled.shape[1]]), _records(spelled), index)
             for offset, spelled, index in cells]
    text = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(n, start + _BLOCK_ROWS)
        for slot, records, index in slots:
            chosen = slice(start, stop) if index is None else index[start:stop]
            slot[:stop - start] = records[chosen]
        rows = block[:stop - start]
        if stop == n:
            rows[-1, -width:] = np.frombuffer(end.ljust(width, "\0").encode(), np.uint8)
        text.append(rows.tobytes().replace(b"\0", b"").decode("ascii"))
    return text


def _report_value(value) -> str:
    """A report cell: a number, or by name a bool or a list of strings."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        items = ",\n".join(f"    {json.dumps(item)}" for item in value)
        return f"[\n{items}\n  ]" if value else "[]"
    return format_float(value)


def json_dumps(fields: Dict[str, object], table: bool = False) -> List[str]:
    """The writer of every JSON output, in key order: the texts of the output,
    to be written in turn.

    A report maps each name to one value, spelled by `_report_value` into one
    record template, one text.  A table maps each name to a column of `_table`
    (a list or array of numbers, one per row, or a pair (values, index)) and
    is written as an array with one record per row, a text per block of rows
    of `_table`; its non-finite numbers are NaN, Infinity and -Infinity.
    """
    if not table:
        return [_record(dict.fromkeys(fields, "%s"), "") % tuple(
            map(_report_value, fields.values())) + "\n"]
    *heads, tail = _record(dict.fromkeys(fields, "%s"), "  ").split("%s")
    blocks = _table(fields, heads, tail + ",\n", tail + "\n]\n", format_float)
    return ["[\n", *blocks] if blocks else ["[]\n"]


def _csv(columns: Dict[str, object]) -> List[str]:
    """CSV table as texts to be written in turn: a header of the column names,
    then the blocks of comma-separated lines, one line per row; nan, inf and
    -inf are the spelling's own."""
    heads = ["", *[","] * (len(columns) - 1)]
    return [",".join(columns) + "\n", *_table(columns, heads, "\n", "\n", _SPELLING.__mod__)]


def _mode_table(kmax: int, by_mode: Dict[str, np.ndarray], by_lambda: Dict[str, np.ndarray],
                fmt: str) -> List[str]:
    """Per-mode table as csv or json texts: one row per (k1, k2), k2 varying
    fastest, with the columns k1, k2, then `by_mode`, then `by_lambda`.

    `by_mode` maps names to (kmax, kmax) arrays indexed [k1-1, k2-1], spelled
    row by row; `by_lambda` maps names to arrays over the distinct eigenvalues
    of `spectrum._lattice`, each value spelled once and written at every mode
    of its eigenvalue, as are the kmax values of k1 and of k2.
    """
    index = _lattice(kmax)[1]
    k, flat = np.arange(1, kmax + 1), np.arange(kmax * kmax)
    table = {"k1": (k, flat // kmax), "k2": (k, flat % kmax),
             **{name: a.ravel() for name, a in by_mode.items()},
             **{name: (a, index) for name, a in by_lambda.items()}}
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


def _write_output(texts: List[str], path: Optional[str]) -> None:
    """Write the texts in turn, never joined, to the file `path`, or to stdout
    when there is none; a file that cannot be written is an input error naming
    the output flag.  So is a stdout that cannot take them (a full disk, a
    closed pipe): it is flushed here, for the failure to show here."""
    try:
        if path is None:
            sys.stdout.writelines(texts)
            sys.stdout.flush()
            return
        with open(path, "w", newline="") as handle:
            handle.writelines(texts)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        where = "stdout" if path is None else path
        raise ValidationError("output", f"cannot write {where}: {getattr(exc, 'strerror', exc)}")


# ---------------------------------------------------------------------------
# exact grid reading, the inverse of the speller

# A plain grid is lines of comma-separated tokens [+-]?d*(.d*)?([eE][+-]?d{1,3})?
# with 1 to 24 significand digits, the same number on every line, and an
# optional final newline.  Every byte but an ASCII digit is a mark, found in
# a block of lines at once; a token's marks must be its signs, point, exponent
# marker and separator in their places, so the bytes between them are digits.
# Its significand digits, right-aligned in 24 bytes with the point taken out
# and '0's in front, are three uint64 words of eight ASCII digits, converted
# by SWAR arithmetic.  The significand w < 10**19 and decimal exponent q give
# the double nearest w * 10**q by the Eisel-Lemire step: the top word of the
# normalised w times a 128-bit truncation of 5**q, a second product only when
# the first cannot decide, round half-even only where a tie is possible (Lemire,
# "Number parsing at a gigabyte per second", 2021; Mushtak and Lemire, "Fast
# number parsing without fallback", 2023).  More than 19 significant digits, a
# subnormal or infinite result go through `float`, as in `np.loadtxt`.

_ASCII_ZEROS = np.uint64(0x3030303030303030)
#: Most significand digits and exponent digits of a token.
_SIGNIFICAND, _EXPONENT = 24, 3
#: Decimal exponents of the 5**q words; a 19-digit significand times 10**q is
#: subnormal below them and infinite above them.
_Q_MIN, _Q_MAX = -342, 308


def _significand_masks() -> np.ndarray:
    """Byte masks of the significand window's three words, by digits held * 25
    + column after the point (0 without one): in rows 0-2 the bytes before
    the point, which move one column on, and in rows 3-5 the digits' bytes."""
    held, after_point = np.divmod(np.arange((_SIGNIFICAND + 1) ** 2), _SIGNIFICAND + 1)
    column = np.arange(_SIGNIFICAND)
    keep = np.concatenate([column < after_point[:, None],
                           column >= _SIGNIFICAND - held[:, None]], axis=1)
    return np.where(keep, 0xFF, 0).astype(np.uint8).view("<u8").T.copy()


_SIGNIFICAND_MASKS = _significand_masks()


@cache
def _pow5_128(q: int) -> tuple:
    """(high, low) words of the top 128 bits of 5**q, or of 2**b // 5**-q + 1,
    normalised to [2**127, 2**128); made on first use, as most grids need few q."""
    if q >= 0:
        c = 5**q << 128 >> (5**q).bit_length()
    else:
        z = (5**-q).bit_length()
        c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5**-q + 1
        c >>= max(c.bit_length() - 128, 0)
    return c >> 64, c & (2**64 - 1)


def _nearest_doubles(w, q) -> tuple:
    """Bit patterns of the doubles nearest w * 10**q, uint64 1 <= w < 10**19 and
    _Q_MIN <= q <= _Q_MAX, and where they are normal and finite."""
    # leading zeros from the float64 exponent of w, one short where the
    # conversion rounds w up to a power of 2
    lz = (1086 - (w.astype(np.float64).view(np.uint64) >> 52)).astype(np.uint64)
    w = w << lz
    short = 1 - (w >> 63)
    w <<= short
    lz += short
    low = int(q.min())
    powers = np.array([_pow5_128(k) for k in range(low, int(q.max()) + 1)], np.uint64)
    row = q - low
    hi, lo = _mul128(w, powers[:, 0].take(row))
    near = np.flatnonzero(hi & 0x1FF == 0x1FF)
    if near.size:  # the truncated table may hide a carry into the kept bits
        cross = _mul128(w[near], powers[:, 1].take(row[near]))[0]
        lo[near] += cross
        hi[near] += lo[near] < cross
    upper = hi >> 63
    mantissa = hi >> (upper + 9)
    exponent = ((217706 * q) >> 16) + (upper - lz).view(np.int64) + 1086
    # a tie needs an exact product, so 5**|q| within 64 bits: -4 <= q <= 23
    tie = np.flatnonzero(lo <= 1)
    tie = tie[(q[tie] >= -4) & (q[tie] <= 23) & (mantissa[tie] & 3 == 1)
              & (mantissa[tie] << (upper[tie] + 9) == hi[tie])]
    mantissa[tie] -= 1
    mantissa += mantissa & 1
    mantissa >>= 1
    # the implicit bit adds one to the exponent field, a carry to 2**53 one more
    bits = ((exponent - 1) << 52).view(np.uint64) + mantissa
    return bits, (exponent > 0) & (bits < 0x7FF << 52)


#: Bytes of whole lines parsed at a time, about 24000 tokens: the fastest in
#: paired timings inside `observe` and `modes` ops (scripts/time_grid_read.py),
#: whose temporaries `_set_process_policy` keeps mapped from block to block.
_GRID_BLOCK = 1 << 19


def _read_grid(data: bytes) -> Optional[np.ndarray]:
    """The float64 matrix `np.loadtxt(path, delimiter=",", ndmin=2)` reads from
    the bytes of a plain grid, bit for bit; None for any other file."""
    if not data.endswith(b"\n"):
        data += b"\n"
    cols = data.count(b",", 0, data.index(b"\n")) + 1
    text = b"0" * _SIGNIFICAND + data  # every significand window lies inside it
    buf = np.frombuffer(text, np.uint8)
    windows = np.ndarray((len(text) - _SIGNIFICAND + 1,), f"V{_SIGNIFICAND}", text, strides=(1,))
    blocks = []
    start = _SIGNIFICAND
    while start < len(text):
        end = text.rfind(b"\n", start, start + _GRID_BLOCK) + 1 or text.index(b"\n", start) + 1
        values = _read_lines(text, buf, windows, start, end, cols)
        if values is None:
            return None
        blocks.append(values)
        start = end
    return np.concatenate(blocks).reshape(-1, cols)


def _read_lines(text: bytes, buf, windows, start: int, end: int, cols: int):
    """Values of the tokens of text[start:end], whole lines of `cols` tokens, or
    None when a token or line is outside the plain grammar; `buf` is the text
    as bytes and windows[i] its _SIGNIFICAND bytes from i."""
    chunk = buf[start:end]
    marks = np.flatnonzero(chunk - np.uint8(0x30) > 9)  # every byte but a digit
    kind = chunk[marks]
    sep = np.flatnonzero((kind == 0x2C) | (kind == 0x0A))
    ends = marks[sep]
    n = len(ends)
    newline = kind[sep] == 0x0A
    if np.count_nonzero(newline) * cols != n or not newline[cols - 1::cols].all():
        return None
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    # A token's marks are a leading sign, a point, an exponent marker and its
    # sign, each optional and in this order, then the separator: every mark
    # must be one of these, the marker followed by its sign or the separator.
    first = chunk[starts]
    negative = first == 0x2D
    lead = negative | (first == 0x2B)
    exp = np.flatnonzero(kind | 0x20 == 0x65)
    exp_negative, exp_sign = kind[exp + 1] == 0x2D, (kind[exp + 1] == 0x2D) | (kind[exp + 1] == 0x2B)
    after = exp + 1 + exp_sign
    if not ((kind[after] == 0x2C) | (kind[after] == 0x0A)).all():
        return None
    token = np.empty(len(marks), np.intp)
    token[sep] = np.arange(n)
    with_exp = token[after]
    mark, mantissa_end = ends.copy(), sep.copy()
    mark[with_exp], mantissa_end[with_exp] = marks[exp], exp
    before = np.empty_like(sep)  # index of the mark before each token's marks
    before[0], before[1:] = -1, sep[:-1]
    point = mantissa_end - 1
    points = (kind[point] == 0x2E) & (point > before)
    fraction = np.where(points, mark - marks[point] - 1, 0)
    exp_marks = np.zeros(n, np.intp)
    exp_marks[with_exp] = 1 + exp_sign
    exp_digits = ends[with_exp] - mark[with_exp] - 1 - exp_sign
    digits = mark - starts - lead - points
    if ((sep - before != 1 + lead + points + exp_marks).any()
            or (marks[exp + 1][exp_sign] != marks[exp][exp_sign] + 1).any()
            or ((digits < 1) | (digits > _SIGNIFICAND)).any()
            or ((exp_digits < 1) | (exp_digits > _EXPONENT)).any()):
        return None
    # exponents: their last three bytes, the ones before the digits taken as 0
    last = chunk[ends[with_exp, None] - [3, 2, 1]] - 0x30
    last[np.arange(_EXPONENT) < _EXPONENT - exp_digits[:, None]] = 0
    q = -fraction
    q[with_exp] += np.where(exp_negative, -1, 1) * (last.astype(np.intp) @ [100, 10, 1])
    # the significand window ending at the marker, its point taken out and the
    # bytes before its digits made '0'; 24 digits and a point may leave the
    # first digit outside, so such tokens go to `float`
    layout = digits * (_SIGNIFICAND + 1) + (_SIGNIFICAND - fraction) * points
    masks = _SIGNIFICAND_MASKS.take(layout, axis=1)
    w = windows[mark + (start - _SIGNIFICAND)].view("<u8").reshape(n, 3).T.copy()
    moved = w << 8
    moved[1:] |= w[:2] >> 56
    w ^= (w ^ moved) & masks[:3]
    w = _ASCII_ZEROS ^ ((w ^ _ASCII_ZEROS) & masks[3:])
    d = w - _ASCII_ZEROS
    d = d * 10 + (d >> 8)
    d = ((d & 0x000000FF000000FF) * (100 + (1000000 << 32))
         + (d >> 16 & 0x000000FF000000FF) * (1 + (10000 << 32))) >> 32
    significand = d[0] * 10**16 + d[1] * 10**8 + d[2]
    fits = (d[0] < 1000) & (digits + points <= _SIGNIFICAND)  # at most 19 significant digits
    zero = fits & (significand == 0)
    exact = fits & ~zero & (q >= _Q_MIN) & (q <= _Q_MAX)
    if not exact.all():
        significand[~exact], q[~exact] = 1, 0
    bits, normal = _nearest_doubles(significand, q)
    exact &= normal
    if not exact.all():
        bits[~exact] = 0
    bits |= negative.astype(np.uint64) << 63
    values = bits.view(np.float64)
    for i in np.flatnonzero(~(exact | zero)).tolist():
        values[i] = float(text[start + starts[i]:start + ends[i]])
    return values


# ---------------------------------------------------------------------------
# flags, config file and input files


class _Flag(NamedTuple):
    """A flag: its spelling, value type and help, the bounds a value must meet
    (minimum <= v <= maximum, v > above, v in choices) and its unset value."""

    spelling: str
    type: type
    help: str
    minimum: object = None
    maximum: object = None
    above: object = None
    choices: tuple = ()
    default: object = None


#: The parser of each flag type, and what a value it rejects is not.
_PARSERS = {float: (float, "a number"), int: (lambda raw: int(raw, 10), "an integer"),
            str: (str, "a string")}

#: Every flag by destination, which is also its config-file key.
_FLAGS = {
    "beta": _Flag("--beta", float, "kernel amplitude", minimum=0.0, maximum=BETA_MAX),
    "eta": _Flag("--eta", float, "kernel decay rate", minimum=0.0),
    "kmax": _Flag("--kmax", int, "modes per direction", minimum=1, maximum=512),
    "format": _Flag("--format", str, "table format", choices=("csv", "json"), default="csv"),
    "family": _Flag("--family", str, "exponent family JSON file"),
    "t": _Flag("--T", float, "time horizon", above=0.0),
    "u0": _Flag("--u0", str, "CSV grid of initial displacement samples"),
    "u1": _Flag("--u1", str, "CSV grid of initial velocity samples"),
    "mu": _Flag("--mu", float, "amplitude constant (observe: estimated when absent)", above=0.0),
    "theta": _Flag("--theta", float, "amplitude decay exponent", above=0.5, default=1.0),
    "beta_steps": _Flag("--beta-steps", int, "beta intervals of the table", minimum=1),
    "output": _Flag("--output", str, "write output to this path"),
}

_KNOWN_KEYS = frozenset(_FLAGS)


def _read_file(flag: str, path: str) -> bytes:
    """The bytes of the input file that `flag` names; an input error naming the
    flag when it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(flag, f"cannot read {path}: {getattr(exc, 'strerror', exc)}")


def load_config(path: str) -> Dict[str, str]:
    """Parse a flat `key = value` config file into its parameter map.

    Keys are case-insensitive with hyphens and underscores interchangeable; a
    leading UTF-8 byte order mark is dropped.  Raises ParseError with the line
    number for malformed lines and ValidationError for unknown keys, an
    unreadable file or one that is not UTF-8 text.
    """
    try:
        text = _read_file("config", path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError("config", f"not UTF-8 text in {path}: {exc}")
    parameters: Dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
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


class _Values:
    """The flags' values, a command-line value over a config-file one, each
    parsed and checked against its `_FLAGS` entry when read.  `values[name]`
    is required; `values.get(name)` is None when the flag is unset and has no
    default."""

    def __init__(self, args: argparse.Namespace, file_params: Dict[str, str]):
        given = {name: raw for name, raw in vars(args).items() if raw is not None}
        self._raw = {**file_params, **given}

    def get(self, name: str):
        flag = _FLAGS[name]
        raw = self._raw.get(name)
        if raw is None:
            return flag.default
        parse, kind = _PARSERS[flag.type]
        try:
            value = parse(raw)
        except (TypeError, ValueError):
            raise ValidationError(name, f"not {kind}: {raw!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(name, f"must be finite, got {value}")
        if flag.minimum is not None and value < flag.minimum:
            raise ValidationError(name, f"must be >= {flag.minimum}, got {value}")
        if flag.maximum is not None and value > flag.maximum:
            raise ValidationError(name, f"must be <= {flag.maximum}, got {value}")
        if flag.above is not None and value <= flag.above:
            raise ValidationError(name, f"must be > {flag.above}, got {value}")
        if flag.type is str and not value:
            raise ValidationError(name, "must not be empty")
        if flag.choices and value not in flag.choices:
            raise ValidationError(name, f"must be one of {sorted(flag.choices)}, got {value!r}")
        return value

    def __getitem__(self, name: str):
        value = self.get(name)
        if value is None:
            raise ValidationError(name, "required value missing")
        return value


# ---------------------------------------------------------------------------
# subcommand runners


def _load_initial_data(values: _Values, kmax: int) -> InitialData:
    """Initial data from the CSV sample grids named by the u0 and u1 flags.

    A plain grid is read by `_read_grid`, any other file by `np.loadtxt`; a
    leading UTF-8 byte order mark, as spreadsheet programs write, is dropped.  A
    sample that is not finite, or sine coefficients that overflow, are input
    errors naming the flag and the file."""
    grids = {}
    for name in ("u0", "u1"):
        path = values[name]
        data = _read_file(name, path).removeprefix(codecs.BOM_UTF8)
        try:
            grid = _read_grid(data)
            if grid is None:
                with warnings.catch_warnings():
                    # an empty file is an input error, reported below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    grid = np.loadtxt(io.StringIO(data.decode("utf-8"), newline=None),
                                      delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(name, f"malformed CSV grid in {path}: {exc}")
        if not grid.size:
            raise ValidationError(name, f"no numbers in {path}")
        bad = np.flatnonzero(~np.isfinite(grid))
        if bad.size:
            row, col = divmod(int(bad[0]), grid.shape[1])
            raise ValidationError(name, f"sample {grid[row, col]} at row {row + 1}, "
                                        f"column {col + 1} of {path} is not finite")
        grids[name] = path, grid
    coefficients = []
    for name, (path, grid) in grids.items():
        with np.errstate(over="ignore", invalid="ignore"):
            coefficients.append(sine_coefficients(grid, kmax))
        if not np.isfinite(coefficients[-1]).all():
            raise ValidationError(name, f"the sine coefficients of {path} overflow")
    return InitialData(*coefficients, kmax)


def _run_spectrum(values: _Values, output: Optional[str]) -> None:
    beta, eta, kmax, fmt = values["beta"], values["eta"], values["kmax"], values["format"]
    params = KernelParams(beta=beta, eta=eta)
    first = _lattice(kmax)[2]
    lam, omega, r = (a.ravel()[first] for a in mode_spectrum(params, kmax))
    residual = np.maximum.reduce(_vieta_residuals(
        1j * omega, -1j * omega.conj(), r.astype(complex), params, lam))
    columns = {"lambda": lam, "re_omega": omega.real, "im_omega": omega.imag,
               "r": r, "residual": residual}
    _write_output(_mode_table(kmax, {}, columns, fmt), output)


def _run_gaps(values: _Values, output: Optional[str]) -> None:
    beta, kmax = values["beta"], values["kmax"]
    audit = audit_gaps(KernelParams.limiting_regime(beta), kmax)
    _write_report(asdict(audit), output)


def _load_family(path: str) -> ExponentFamily:
    """The exponent family of a JSON file: one object holding the arrays
    omega_re, omega_im, r, C_re, C_im and R and the numbers gamma, tau (an
    integer), theta and mu."""
    data = _read_file("family", path)
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ValidationError("family", f"malformed JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError("family", f"the top level of {path} is not a JSON object")
    required = ["omega_re", "omega_im", "r", "C_re", "C_im", "R",
                "gamma", "tau", "theta", "mu"]
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValidationError("family", f"missing keys: {', '.join(missing)}")
    # JSON numbers only: a bool is an int to Python, and float() reads strings
    tau = raw["tau"]
    if isinstance(tau, (bool, str)) or isinstance(tau, float) and not tau.is_integer():
        raise ValidationError("family", f"tau must be a finite integer, got {tau!r}")
    for key in required:
        for v in raw[key] if isinstance(raw[key], list) else [raw[key]]:
            if isinstance(v, (bool, str)):
                raise ValidationError("family", f"{key} must hold numbers, got {v!r}")

    def pair(re: str, im: str) -> np.ndarray:
        """re + i*im of two arrays of one shape, without the NaN of inf * 1j."""
        real, imag = (np.asarray(raw[key], dtype=float) for key in (re, im))
        if real.shape != imag.shape:
            raise ValueError(f"{re} and {im} differ in shape: {real.shape} and {imag.shape}")
        z = real.astype(complex)
        z.imag = imag
        return z

    try:
        family = ExponentFamily(
            omegas=pair("omega_re", "omega_im"),
            rs=np.asarray(raw["r"], dtype=float),
            Cs=pair("C_re", "C_im"),
            Rs=np.asarray(raw["R"], dtype=float),
            gamma=float(raw["gamma"]),
            tau=int(tau),
            theta=float(raw["theta"]),
            mu=float(raw["mu"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("family", str(exc))
    return family


def _run_ingham_check(values: _Values, output: Optional[str]) -> None:
    family_path, horizon = values["family"], values["t"]
    family = _load_family(family_path)
    violations = check_hypotheses(family, horizon)
    report = energy_lower_bound(family, horizon, check=False)
    _write_report({**asdict(report), "violations": [str(v) for v in violations]}, output)
    if not violations:
        _certify_bound(report)


def _run_modes(values: _Values, output: Optional[str]) -> None:
    beta, kmax = values["beta"], values["kmax"]
    expansion = expand(KernelParams.limiting_regime(beta), _load_initial_data(values, kmax))
    omega, r = (a.ravel()[_lattice(kmax)[2]] for a in (expansion.omega, expansion.r))
    by_mode = {"C_re": expansion.C.real, "C_im": expansion.C.imag, "R": expansion.R}
    by_lambda = {"re_omega": omega.real, "im_omega": omega.imag, "r": r}
    _write_output(_mode_table(kmax, by_mode, by_lambda, "json"), output)


def _run_observe(values: _Values, output: Optional[str]) -> None:
    beta, horizon, kmax = values["beta"], values["t"], values["kmax"]
    mu, theta = values.get("mu"), values["theta"]
    data = _load_initial_data(values, kmax)
    config = ObservabilityConfig(beta=beta, T=horizon, kmax=kmax, mu=mu, theta=theta)
    report = verify_observability(config, data)
    _write_report(asdict(report), output)


def _run_thresholds(values: _Values, output: Optional[str]) -> None:
    mu, theta, steps = values["mu"], values["theta"], values["beta_steps"]
    S = constant_S(mu, theta)
    betas = np.linspace(0.0, BETA_MAX, steps + 1).tolist()
    beta0, t0, gammas = _thresholds(betas, mu, S)
    constant = np.zeros(len(betas), np.intp)  # one value in every row
    columns = {"beta": betas, "gamma": gammas, "S": ([S], constant), "T0": t0,
               "beta0_global": ([beta0], constant)}
    _write_output(_csv(columns), output)


# ---------------------------------------------------------------------------
# parser assembly and dispatch

#: Every subcommand: its runner, its help and its flags besides --config and
#: --output, which all take.
_COMMANDS = {
    "spectrum": (_run_spectrum, "per-mode characteristic roots table",
                 ("beta", "eta", "kmax", "format")),
    "gaps": (_run_gaps, "gap audit", ("beta", "kmax")),
    "ingham-check": (_run_ingham_check, "energy lower bound for a family file", ("family", "t")),
    "modes": (_run_modes, "recover per-mode coefficients from sampled data",
              ("beta", "kmax", "u0", "u1")),
    "observe": (_run_observe, "boundary observability report",
                ("beta", "t", "kmax", "mu", "theta", "u0", "u1")),
    "thresholds": (_run_thresholds, "beta,gamma,S,T0 table", ("mu", "theta", "beta_steps")),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, from `_COMMANDS` and `_FLAGS`.  Flags
    are kept as given (None when absent), for `_Values` to parse and check."""
    parser = argparse.ArgumentParser(
        prog="memwave",
        description="Spectrum, gap and boundary-observability diagnostics for "
                    "the memory wave equation on the unit-pi square.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for command, (_, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override file values")
        for name in ("output", *names):
            flag = _FLAGS[name]
            p.add_argument(flag.spelling, dest=name, default=None, help=flag.help)
    return parser


#: The one parser of the process; argparse keeps no state between parses.
_PARSER = _build_parser()


#: glibc's `mallopt` parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

#: The BLAS pool setters, of numpy's bundled OpenBLAS and of a plain OpenBLAS.
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _blas_function(names: Sequence[str]):
    """The first function of `names` that numpy's BLAS exports, or None.  It is
    looked up on the handle of numpy's core extension, whose dependencies
    `dlsym` searches, the BLAS among them; an extension that has no file or
    cannot be loaded by its path exports none."""
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    return next((getattr(library, name) for name in names if hasattr(library, name)), None)


@cache
def _set_process_policy() -> None:
    """Set the policy of the process, once: keep freed memory for the next op,
    and run BLAS on one thread.

    glibc serves blocks of up to 32 MiB, its 64-bit ceiling, from the heap
    instead of mapping each afresh, and hands a free heap top back to the
    kernel only from 128 MiB on.  By default each numpy temporary of 128 KiB
    or more is unmapped, or trimmed, when freed, so the next one page-faults
    its memory in again; every temporary of a kmax <= 512 op (at most a
    1025^2 grid's bytes, about 24 MB; the sine table is 4.2 MB) now stays in
    the heap.  A C library without `mallopt` keeps its own policy.

    The BLAS pool is pinned to one thread, so a product's bits do not depend
    on the pool the user asked for and no idle worker spins after a product it
    split.  The sine coefficients' two products are ones OpenBLAS splits: at
    kmax 192 a grid's take about 2 ms of CPU pinned, against about 32 ms on a
    pool of two called every 20 ms, and their last bits differ.  A BLAS with
    neither setter of `_BLAS_SET_THREADS` is left alone."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    set_threads = _blas_function(_BLAS_SET_THREADS)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def parse_and_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status.  The first
    sets the policy of the process (`_set_process_policy`)."""
    _set_process_policy()
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        if exc.code:
            return int(exc.code)
        args = None  # --help: argparse wrote its text, and ignores a failed write
    if args is not None and args.subcommand is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return 2

    try:
        if args is None:
            _write_output([], None)  # flushes the help text, for a failure to show here
            return 0
        values = _Values(args, load_config(args.config) if args.config is not None else {})
        _COMMANDS[args.subcommand][0](values, values.get("output"))
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
    status = parse_and_dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # stdout still holds what it refused, and `_write_output` has said so;
        # point fd 1 at the null device so that the interpreter's own flush at
        # exit neither fails nor reports it (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    main()
