"""Text formats for matrices, scalars and permutations.

Matrix format, one token stream per line::

    field gfp 7        (or: field rational)
    rows 2
    cols 2
    3 1
    2 5

Scalars are decimal residues over GF(p) and ``n`` or ``n/d`` fractions
over the rationals.  Parsing is strict: wrong counts, out-of-range
residues and trailing garbage are errors.  A row of plain integers is
converted in one go, any other row token by token, with the same values and
the same first error.  Formatting followed by parsing reproduces the input
bit-exactly.

A truncated permutation prints as one line, ones sorted by row::

    perm n=2 ones=(0,0);(1,1)
"""

from __future__ import annotations

import re

from .dense import DenseMatrix
from .errors import ParseError
from .fields import GF, QQ, FieldSpec
from .perms import TruncPerm

_COUNT = re.compile(r"^(0|[1-9][0-9]*)$")


def parse_field(tokens) -> FieldSpec:
    """Field from its token form: ``["gfp", "<p>"]`` or ``["rational"]``."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    if tokens and tokens[0] == "rational" and len(tokens) == 1:
        return QQ
    if len(tokens) == 2 and tokens[0] == "gfp":
        if not _COUNT.match(tokens[1]):
            raise ParseError(f"invalid modulus {tokens[1]!r}")
        try:
            p = int(tokens[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"modulus of {len(tokens[1])} digits is too long to parse") from None
        try:
            return GF(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field {' '.join(tokens)!r}")


def format_field(field: FieldSpec) -> str:
    if field.kind == "gfp":
        return f"gfp {field.modulus}"
    return "rational"


def format_matrix(A: DenseMatrix) -> str:
    lines = [f"field {format_field(A.field)}", f"rows {A.rows}", f"cols {A.cols}"]
    lines += [" ".join(map(str, row)) for row in A._d]
    return "\n".join(lines) + "\n"


def _expect_count(line: str, key: str, lineno: int) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key or not _COUNT.match(parts[1]):
        raise ParseError(f"line {lineno}: expected '{key} <count>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:  # more digits than int() converts
        raise ParseError(f"line {lineno}: {key} count has {len(parts[1])} digits") from None


def read_matrix(lines, start: int = 0, field: FieldSpec | None = None):
    """Parse one matrix from a list of lines beginning at ``start``.

    Returns (matrix, next line index).  ``field`` overrides the declared
    field; entries are then parsed under the override.
    """
    if len(lines) - start < 3:
        raise ParseError("truncated input: missing header")
    head = lines[start].split()
    if not head or head[0] != "field":
        raise ParseError(f"line {start + 1}: expected 'field ...', got {lines[start]!r}")
    declared = parse_field(head[1:])
    if field is None:
        field = declared
    rows = _expect_count(lines[start + 1], "rows", start + 2)
    cols = _expect_count(lines[start + 2], "cols", start + 3)
    if len(lines) - start - 3 < rows:
        raise ParseError(f"expected {rows} data rows, found {len(lines) - start - 3}")
    parse_row = field.parse_row
    data = []
    for k in range(rows):
        lineno = start + 4 + k
        tokens = lines[start + 3 + k].split()
        if len(tokens) != cols:
            raise ParseError(f"line {lineno}: expected {cols} entries, got {len(tokens)}")
        data.append(parse_row(tokens))
    M = DenseMatrix._wrap(field, data, rows, cols)
    return M, start + 3 + rows


def parse_matrix(text: str, field: FieldSpec | None = None) -> DenseMatrix:
    """Parse a whole-document matrix; anything beyond it is an error."""
    lines = text.splitlines()
    M, end = read_matrix(lines, 0, field)
    for k in range(end, len(lines)):
        if lines[k].strip():
            raise ParseError(f"line {k + 1}: trailing garbage {lines[k]!r}")
    return M


def format_perm(E: TruncPerm) -> str:
    body = ";".join(f"({i},{j})" for i, j in E.ones)
    return f"perm n={E.n} ones={body}\n"
