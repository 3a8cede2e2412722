"""Scalar arithmetic: canonical forms, field axioms, parsing."""

import numbers
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leu import GF, QQ, DenseMatrix, FieldMismatchError, ParseError, Scalar
from leu.fields import is_prime

GF7 = GF(7)


def test_gf7_add_mul():
    assert GF7(3) + GF7(5) == GF7(1)
    assert GF7(3) * GF7(5) == GF7(1)
    assert GF7(6) - GF7(3) == GF7(3)
    assert -GF7(3) == GF7(4)


def test_rational_add():
    half = QQ(1) / QQ(2)
    third = QQ(1) / QQ(3)
    assert half + third == QQ(5) / QQ(6)


def test_inverse():
    assert GF7(3).inv() == GF7(5)
    assert (QQ(-2) / QQ(3)).inv() == QQ(-3) / QQ(2)
    with pytest.raises(ZeroDivisionError):
        GF7(0).inv()
    with pytest.raises(ZeroDivisionError):
        QQ(0).inv()


def test_mixed_field_operands_rejected():
    with pytest.raises(FieldMismatchError):
        GF7(1) + GF(5)(1)
    with pytest.raises(FieldMismatchError):
        GF7(1) * QQ(1)
    with pytest.raises(FieldMismatchError):
        QQ(1) - 1  # raw ints are not scalars


def test_field_spec_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF((1 << 89) - 1)  # prime, but beyond a machine word
    with pytest.raises(TypeError):
        GF(7.0)
    # word-sized primes are fine
    assert GF(2)(1) + GF(2)(1) == GF(2)(0)
    assert GF((1 << 61) - 1).modulus == (1 << 61) - 1


def _word_type():
    # the smallest numbers.Integral that is not an int: every abstract method
    # a stub, __int__ real, so __index__ comes from the numbers.Integral mixin
    def stub(self, *args):
        return NotImplemented

    body = dict.fromkeys(numbers.Integral.__abstractmethods__, stub)
    body["__init__"] = lambda self, v: setattr(self, "v", v)
    body["__int__"] = lambda self: self.v
    return type("Word", (numbers.Integral,), body)


def test_gfp_accepts_any_integral():
    Word = _word_type()
    w = Word(12)
    assert isinstance(w, numbers.Integral) and not isinstance(w, int)
    assert GF7(w) == GF7(5)
    A = DenseMatrix(GF7, [[w, 3]])
    assert A._d == [[5, 3]] and type(A._d[0][0]) is int
    for bad in (True, 1.5, "3", Fraction(1, 2), None):
        with pytest.raises(TypeError):
            GF7.canon(bad)
    with pytest.raises(TypeError):
        DenseMatrix(GF7, [[1.5]])


def test_rational_rejects_floats():
    for bad in (0.1, 1.0, float("inf"), True):
        with pytest.raises(TypeError):
            QQ.canon(bad)
    with pytest.raises(TypeError):
        DenseMatrix(QQ, [[0.1]])
    with pytest.raises(TypeError, match="^cannot interpret object as a rational$"):
        QQ.canon(object())
    # exact inputs keep working
    third = QQ.canon(Fraction(1, 3))
    assert QQ.canon("2/6") == third
    assert QQ.canon(third) == third
    assert QQ.canon(-4) == QQ.canon("-4")
    assert str(DenseMatrix(QQ, [[Fraction(-6, 4), 2]])) == "-3/2 2"


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 65521}
    for n in range(2, 100):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    for p in primes:
        assert is_prime(p)


def test_is_prime_rejects_strong_pseudoprimes():
    # composites with no factor among the witnesses, so only the witness
    # loop can reject them: 3825123056546413051 passes every base up to 31
    # and 3215031751 = 151 * 751 * 28351 passes the bases 2, 3, 5 and 7
    for n in (3825123056546413051, 3215031751, 1000003 * 1000033):
        assert not is_prime(n), n
    with pytest.raises(ValueError):
        GF(3215031751)
    assert is_prime(2**61 - 1)


def test_field_equality_across_instances():
    assert GF(7) == GF(7)
    assert GF(7) != GF(5)
    assert GF(7)(3) + GF(7)(5) == GF(7)(1)


def test_canonical_zero_is_exact():
    assert not GF7(7)
    assert not QQ(0)
    assert bool(GF7(1)) and bool(QQ(2) / QQ(3))


@st.composite
def gf7_scalars(draw):
    return GF7(draw(st.integers(min_value=-100, max_value=100)))


@st.composite
def rationals(draw):
    num = draw(st.integers(min_value=-50, max_value=50))
    den = draw(st.integers(min_value=1, max_value=20))
    return QQ(num) / QQ(den)


@given(gf7_scalars(), gf7_scalars(), gf7_scalars())
def test_gf7_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(rationals(), rationals(), rationals())
def test_rational_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.sampled_from([65521, (1 << 61) - 1]), st.data())
def test_wide_residue_scalar_ops_match_integer_arithmetic(p, data):
    # the values themselves, not laws: each result is the residue of the
    # integer result, across the wrap at p
    F = GF(p)
    x, y = (data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(2))
    a, b = F(x), F(y)
    assert a + b == F((x + y) % p)
    assert a - b == F((x - y) % p)
    assert a * b == F((x * y) % p)
    assert -a == F(-x % p)
    if y:
        assert a / b == F(x * pow(y, -1, p) % p)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@given(gf7_scalars())
def test_gf7_inverse_roundtrip(a):
    if a:
        assert a * a.inv() == GF7(1)


@given(rationals())
def test_rational_inverse_roundtrip(a):
    if a:
        assert a * a.inv() == QQ(1)


@given(gf7_scalars())
def test_gf7_format_parse_roundtrip(a):
    assert GF7.parse(str(a)) == a.value


@given(rationals())
def test_rational_format_parse_roundtrip(a):
    assert QQ.parse(str(a)) == a.value


def test_parse_strictness():
    with pytest.raises(ParseError):
        GF7.parse("7")  # out of range
    with pytest.raises(ParseError):
        GF7.parse("-1")
    with pytest.raises(ParseError):
        GF7.parse("3.5")
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse("3/-2")
    with pytest.raises(ParseError):
        QQ.parse("+3")
    assert QQ.parse("2/4") == QQ.parse("1/2")  # reduced on the way in
    assert QQ.parse("-3/2") == (QQ(-3) / QQ(2)).value


def test_scalar_from_scalar():
    a = GF7(3)
    assert Scalar(GF7, a) == a
    assert Scalar(GF(7), a) == a  # an equal field built separately
    with pytest.raises(FieldMismatchError):
        GF7(QQ(1) / QQ(2))
    with pytest.raises(FieldMismatchError):
        GF7(GF(5)(3))
    with pytest.raises(FieldMismatchError):
        QQ(GF7(3))
