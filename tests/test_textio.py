"""Matrix and permutation text format: round trips and strictness."""

import random

import pytest

from leu import (
    QQ,
    DenseMatrix,
    GF,
    ParseError,
    TruncPerm,
    format_matrix,
    format_perm,
    parse_matrix,
)
from leu.textio import format_field, parse_field
from helpers import FIELDS, GF7, rand_matrix

rng = random.Random(0x7E47)


@pytest.mark.parametrize("field", FIELDS)
def test_roundtrip_random(field):
    for _ in range(20):
        A = rand_matrix(field, rng.randint(0, 6), rng.randint(0, 6), rng)
        assert parse_matrix(format_matrix(A)) == A


def test_roundtrip_rationals_with_denominators():
    A = DenseMatrix(QQ, [[QQ(1) / QQ(2), QQ(-3) / QQ(4)], [5, 0]])
    text = format_matrix(A)
    assert "1/2" in text and "-3/4" in text
    assert parse_matrix(text) == A


def test_parse_example():
    A = parse_matrix("field gfp 7\nrows 2\ncols 2\n3 1\n2 5\n")
    assert A == DenseMatrix(GF7, [[3, 1], [2, 5]])


def test_missing_header_rejected():
    with pytest.raises(ParseError, match="^truncated input: missing header$"):
        parse_matrix("field gfp 7\nrows 1\n")


def test_zero_width_matrix():
    A = DenseMatrix.zeros(QQ, 2, 0)
    assert parse_matrix(format_matrix(A)) == A


def test_trailing_garbage_rejected():
    good = "field gfp 7\nrows 1\ncols 1\n3\n"
    parse_matrix(good)
    with pytest.raises(ParseError):
        parse_matrix(good + "junk\n")
    # trailing blank lines are tolerated
    parse_matrix(good + "\n\n")


@pytest.mark.parametrize(
    "text",
    [
        "field gfp 6\nrows 1\ncols 1\n3\n",        # modulus not prime
        "field gfp\nrows 1\ncols 1\n3\n",          # missing modulus
        "field real\nrows 1\ncols 1\n3\n",         # unknown field
        "rows 1\ncols 1\n3\n",                     # missing field line
        "field gfp 7\nrows 1\ncols 2\n3\n",        # wrong entry count
        "field gfp 7\nrows 2\ncols 1\n3\n",        # missing row
        "field gfp 7\nrows 1\ncols 1\n9\n",        # residue out of range
        "field gfp 7\nrows -1\ncols 1\n",          # negative count
        "field rational\nrows 1\ncols 1\n1/0\n",   # zero denominator
        "field rational\nrows 1\ncols 1\n1.5\n",   # not a fraction
        # more digits than int() converts (sys.get_int_max_str_digits(), 4,300)
        pytest.param("field gfp 7\nrows 1\ncols 1\n" + "0" * 4400 + "3\n", id="long-residue"),
        # the zero denominator keeps it an error where int() has no digit limit (before 3.10.7)
        pytest.param("field rational\nrows 1\ncols 1\n" + "1" * 4400 + "/0\n", id="long-rational"),
        pytest.param("field gfp 7\nrows " + "1" * 4400 + "\ncols 1\n3\n", id="long-count"),
    ],
)
def test_strict_errors(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_field_override():
    text = "field gfp 7\nrows 1\ncols 2\n3 5\n"
    B = parse_matrix(text, QQ)
    assert B == DenseMatrix(QQ, [[3, 5]])
    with pytest.raises(ParseError):
        parse_matrix("field rational\nrows 1\ncols 1\n1/2\n", GF7)


def test_parse_field_spec():
    assert parse_field("gfp 65521") == GF(65521)
    assert parse_field("rational") == QQ
    with pytest.raises(ParseError):
        parse_field("gfp")
    with pytest.raises(ParseError):
        parse_field("gfp 10")
    with pytest.raises(ParseError, match="^invalid modulus '7x'$"):
        parse_field("gfp 7x")


def test_perm_format():
    assert format_perm(TruncPerm(2, [(1, 0), (0, 1)])) == "perm n=2 ones=(0,1);(1,0)\n"
    assert format_perm(TruncPerm(3)) == "perm n=3 ones=\n"


_ROWS = [
    pytest.param("3 0 6", id="residues"),
    pytest.param("007 -0 -4 5", id="signs-and-zeros"),
    pytest.param("1 65520 3", id="above-7"),
    pytest.param("1 2 x 4", id="bad-mid-row"),
    pytest.param("1 2 9 65521", id="out-of-range-after-in-range"),
    *(pytest.param(f"1 {t} 2", id=f"token-{i}")
      for i, t in enumerate(("٣", "²", "+3", "3_0", "-", "--3", "3-4", "1/0", "1/2", "-4/6"))),
    pytest.param("1 " + "5" * 5000, id="5000-digits"),
    pytest.param("", id="cols-0"),
]


@pytest.mark.parametrize("row", _ROWS)
@pytest.mark.parametrize("field", [GF7, GF(65521), QQ], ids=["gf7", "gf65521", "qq"])
def test_rows_parse_as_their_tokens(field, row):
    # a row of plain integers is converted in one go; every row gives the
    # values, or the first error, of parsing its tokens one by one
    tokens = row.split()
    text = f"field {format_field(field)}\nrows 2\ncols {len(tokens)}\n{row}\n{row}\n"
    try:
        want = [field.parse(t) for t in tokens]
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_matrix(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_matrix(text)._d
        assert got == [want, want]
        assert [type(v) for v in got[1]] == [type(v) for v in want]
