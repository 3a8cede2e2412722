"""Truncated permutations and diagonal 0/1 matrices.

A truncated permutation is a 0/1 matrix with at most one 1 per row and per
column; full permutations are the rank-n case.  Its row and column supports
are diagonal 0/1 matrices, kept as bitmasks.  The recursion and the inverse
apply one to a block by row or column selection in the block kernel
(``perm_rows`` and ``perm_cols`` in :mod:`leu.dense`), which never touches
the multiplication counter.
"""

from __future__ import annotations

from operator import index as _index

from .dense import DenseMatrix
from .fields import FieldSpec


class TruncPerm:
    """Sparse truncated permutation: the set of (row, col) positions of 1s."""

    __slots__ = ("n", "ones")

    def __init__(self, n: int, ones=()):
        n = _dimension(n)
        pairs = tuple(sorted((_integer(i, "positions"), _integer(j, "positions"))
                             for i, j in ones))
        rows_seen = set()
        cols_seen = set()
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"position ({i}, {j}) outside a {n}x{n} matrix")
            if i in rows_seen:
                raise ValueError(f"two entries in row {i}")
            if j in cols_seen:
                raise ValueError(f"two entries in column {j}")
            rows_seen.add(i)
            cols_seen.add(j)
        self.n = n
        self.ones = pairs

    @property
    def rank(self) -> int:
        return len(self.ones)

    def __eq__(self, other):
        return isinstance(other, TruncPerm) and other.n == self.n and other.ones == self.ones

    def __hash__(self):
        return hash((self.n, self.ones))

    def __repr__(self):
        return f"TruncPerm({self.n}, {list(self.ones)})"

    def row_support(self) -> "DiagIdem":
        return DiagIdem(self.n, _row_mask(self.ones))

    def col_support(self) -> "DiagIdem":
        return DiagIdem(self.n, _col_mask(self.ones))

    def complement(self) -> "TruncPerm":
        """Pairs the zero rows with the zero columns, both ascending.

        The sum of a truncated permutation and its complement is always a
        full permutation.
        """
        rows = {i for i, _ in self.ones}
        cols = {j for _, j in self.ones}
        free_rows = [i for i in range(self.n) if i not in rows]
        free_cols = [j for j in range(self.n) if j not in cols]
        return TruncPerm(self.n, list(zip(free_rows, free_cols)))


def _integer(v, what: str) -> int:
    # any integral type (numbers.Integral implements __index__), not bool
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise TypeError(f"{what} must be integers, got {type(v).__name__}")
    return _index(v)


def _dimension(n) -> int:
    n = _integer(n, "dimensions")
    if n < 0:
        raise ValueError(f"dimension {n} is negative")
    return n


class DiagIdem:
    """Diagonal 0/1 matrix as a bitmask; bit i set means entry (i, i) is 1."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        n = _dimension(n)
        mask = _integer(mask, "masks")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} does not fit dimension {n}")
        self.n = n
        self.mask = mask

    def __eq__(self, other):
        return isinstance(other, DiagIdem) and other.n == self.n and other.mask == self.mask

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        bits = "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.n))
        return f"DiagIdem({self.n}, 0b{bits[::-1] or '0'})"


def _row_mask(ones) -> int:
    """Bit i set for every row i that holds a one of ``ones``."""
    m = 0
    for i, _ in ones:
        m |= 1 << i
    return m


def _col_mask(ones) -> int:
    """Bit j set for every column j that holds a one of ``ones``."""
    m = 0
    for _, j in ones:
        m |= 1 << j
    return m


def reversal_perm(n: int) -> TruncPerm:
    """The anti-diagonal permutation; self-inverse, swaps lower and upper
    triangularity under conjugation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return TruncPerm(n, [(i, n - 1 - i) for i in range(n)])


def tp_to_dense(E: TruncPerm, field: FieldSpec) -> DenseMatrix:
    z, o = field.zero_raw, field.one_raw
    data = [[z] * E.n for _ in range(E.n)]
    for i, j in E.ones:
        data[i][j] = o
    return DenseMatrix._wrap(field, data, E.n, E.n)
