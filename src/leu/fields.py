"""Exact scalar arithmetic over prime fields GF(p) and the rationals.

Every value is kept in canonical form at all times: a GF(p) element is the
residue in [0, p), a rational is fully reduced with positive denominator.
Equal elements therefore compare equal with ``==`` and format to identical
text, which the matrix layer relies on for exact comparisons.  There is no
epsilon anywhere; zero tests are exact.

Internally matrices store raw values: machine ints for GF(p) and
``fractions.Fraction`` for the rationals, both exact and kept canonical.
The matrix layer works on rationals fraction-free (see :mod:`leu.dense`), so
its hot loops run on Python ints.  The :class:`Scalar` wrapper is the
element type seen at the public API.
"""

from __future__ import annotations

import re
from fractions import Fraction as _rational
from operator import index as _index

from .errors import FieldMismatchError, ParseError

_WORD_MAX = 1 << 64

# Witnesses making Miller-Rabin deterministic for every n < 3.3 * 10**24,
# which covers the whole word-sized range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_GFP_TOKEN = re.compile(r"^[0-9]+$")
_RAT_TOKEN = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")
# a row of tokens joined by spaces that int() reads as written: ASCII digits
# (with a leading minus over the rationals), not int()'s signs, _ or Unicode digits
_GFP_ROW = re.compile(r"[0-9]+(?: [0-9]+)*")
_INT_ROW = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized integers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A field an element can belong to.

    Raw values are plain Python objects (int residues, ``Fraction``) that
    combine with Python's own operators; ``canon`` brings any such result,
    or an integer or exact rational from outside, to canonical form.
    """

    kind = ""

    def __call__(self, value) -> "Scalar":
        return Scalar(self, value)

    # subclasses: zero_raw, one_raw, canon, inv, parse, parse_row


class PrimeField(FieldSpec):
    """GF(p) for a word-sized prime p.  Raw values are ints in [0, p)."""

    kind = "gfp"
    __slots__ = ("modulus",)

    zero_raw = 0
    one_raw = 1

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise TypeError("modulus must be an int")
        if modulus < 2 or modulus >= _WORD_MAX:
            raise ValueError("modulus must be a prime fitting in a machine word")
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("gfp", self.modulus))

    def __repr__(self):
        return f"GF({self.modulus})"

    def canon(self, v):
        # any integral type (numbers.Integral implements __index__), not bool
        if not isinstance(v, bool):
            try:
                return _index(v) % self.modulus
            except TypeError:
                pass
        raise TypeError(f"GF({self.modulus}) values must be integers, got {type(v).__name__}")

    def inv(self, x):
        if x % self.modulus == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(x, -1, self.modulus)

    def parse(self, token: str):
        if not _GFP_TOKEN.match(token):
            raise ParseError(f"invalid GF({self.modulus}) scalar {token!r}")
        try:
            v = int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"residue of {len(token)} digits is too long to parse") from None
        if v >= self.modulus:
            raise ParseError(f"residue {v} out of range for GF({self.modulus})")
        return v

    def parse_row(self, tokens):
        """``parse`` of each token, a row of residues in one conversion; any
        other row goes token by token, so it raises ``parse``'s first error."""
        if _GFP_ROW.fullmatch(" ".join(tokens)):
            try:
                row = list(map(int, tokens))
            except ValueError:  # more digits than int() converts
                pass
            else:
                if max(row) < self.modulus:
                    return row
        return [self.parse(t) for t in tokens]


class RationalField(FieldSpec):
    """Arbitrary-precision rationals.  Raw values are reduced fractions."""

    kind = "rational"
    __slots__ = ()

    zero_raw = _rational(0)
    one_raw = _rational(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"

    def canon(self, v):
        # a float is a binary approximation: 0.1 would become 3602879701896397/2**55
        if isinstance(v, (bool, float)):
            raise TypeError(f"rational values must be exact numbers, got {type(v).__name__}")
        try:
            return _rational(v)
        except TypeError:
            raise TypeError(f"cannot interpret {type(v).__name__} as a rational") from None

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("0 has no inverse")
        return self.one_raw / x

    def parse(self, token: str):
        if not _RAT_TOKEN.match(token):
            raise ParseError(f"invalid rational scalar {token!r}")
        try:
            return _rational(token)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {token!r}") from None
        except ValueError:  # more digits than int() converts
            raise ParseError(f"rational of {len(token)} characters is too long to parse") from None

    def parse_row(self, tokens):
        """``parse`` of each token, a row of integers in one conversion; any
        other row goes token by token, so it raises ``parse``'s first error."""
        if _INT_ROW.fullmatch(" ".join(tokens)):
            try:
                return list(map(_rational, map(int, tokens)))
            except ValueError:  # more digits than int() converts
                pass
        return [self.parse(t) for t in tokens]


QQ = RationalField()


def GF(p: int) -> PrimeField:
    """The prime field with p elements."""
    return PrimeField(p)


class Scalar:
    """An exact field element in canonical form.

    Arithmetic between scalars of different fields raises
    :class:`FieldMismatchError`; inversion of zero raises
    ``ZeroDivisionError``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        if isinstance(value, Scalar):
            if value.field != field:
                raise FieldMismatchError(f"scalar of field {value.field!r} given to {field!r}")
            value = value.value
        else:
            value = field.canon(value)
        self.field = field
        self.value = value

    def _coerce(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            raise FieldMismatchError(f"cannot combine Scalar with {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field!r} and {other.field!r}")
        return other

    def __add__(self, other):
        return Scalar(self.field, self.value + self._coerce(other).value)

    def __sub__(self, other):
        return Scalar(self.field, self.value - self._coerce(other).value)

    def __mul__(self, other):
        return Scalar(self.field, self.value * self._coerce(other).value)

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.field!r}({self})"
