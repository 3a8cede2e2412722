"""The rational inverse by one GF(p) decomposition and p-adic lifting.

With ``debug_checks`` off, ``mat_inverse`` over the rationals decomposes the
row-scaled integer matrix once modulo a fixed prime and lifts its inverse
p-adically, certified by an exact product; ``debug_checks=True`` keeps the
fraction-free path.  Both must give the same values and the same counts.
"""

import random
from fractions import Fraction

import pytest

import leu.derived as derived
from leu import QQ, DenseMatrix, MulCounter, SingularError, mat_inverse
from helpers import mul, planted_rank

P = derived._LIFT.modulus
MODES = ({}, {"method": "strassen", "cutoff": 1}, {"method": "strassen", "cutoff": 4},
         {"parallel": True})


def unimodular(n, seed):
    # perfbench's qq-inverse-32 input at order n: unit lower times unit upper
    # with off-diagonal entries in [-2, 2]
    r = random.Random(seed)
    lo = [[1 if i == j else (r.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (r.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    return mul(DenseMatrix(QQ, lo), DenseMatrix(QQ, up))


def general(n, seed):
    # the product of two random n x n integer matrices with entries in [-9, 9]
    r = random.Random(seed)
    X, Y = (DenseMatrix(QQ, [[r.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            for _ in range(2))
    return mul(X, Y)


def with_denominators(n, seed):
    # rows over different denominators, some entries not integral
    r = random.Random(seed)
    return DenseMatrix(QQ, [[Fraction(r.randint(-30, 30), r.choice((1, 2, 3, 7, 12, 125)))
                             for _ in range(n)] for _ in range(n)])


def scaled(n, diag, seed):
    # unimodular(n) with its rows scaled by diag: det is the product of diag
    A = unimodular(n, seed)
    return DenseMatrix(QQ, [[v * d for v in row] for row, d in zip(A._d, diag)])


def both(A, **kw):
    # (result, counter) of the lifted route and of the fraction-free one
    out = []
    for debug in (False, True):
        c = MulCounter()
        try:
            res = mat_inverse(A, c, debug_checks=debug, **kw)
        except SingularError as e:
            res = ("singular", e.rank)
        out.append((res, c))
    return out


def routes(monkeypatch):
    # what _lifted_inverse returned on each call: None sends A to the fraction-free path
    seen = []
    real = derived._lifted_inverse

    def spy(*args):
        res = real(*args)
        seen.append(res is not None)
        return res

    monkeypatch.setattr(derived, "_lifted_inverse", spy)
    return seen


@pytest.mark.parametrize("kw", MODES, ids=["classical", "strassen1", "strassen4", "parallel"])
def test_lifted_matches_fraction_free_on_the_benchmark_generator(kw, monkeypatch):
    seen = routes(monkeypatch)
    for n in range(1, 41):
        A = unimodular(n, n)
        lifted, plain = both(A, **kw)
        assert lifted == plain, n
    # every one of them is unimodular, so nonsingular mod p: none fell back
    assert seen == [True] * 40


@pytest.mark.parametrize("kw", MODES, ids=["classical", "strassen1", "strassen4", "parallel"])
def test_lifted_matches_fraction_free_on_general_inputs(kw, monkeypatch):
    seen = routes(monkeypatch)
    inputs = [general(n, 7) for n in (16, 24, 33)]
    inputs += [with_denominators(n, 3) for n in (1, 2, 5, 11)]
    for A in inputs:
        lifted, plain = both(A, **kw)
        assert lifted == plain
        inv = lifted[0]
        assert mul(A, inv) == DenseMatrix.identity(QQ, A.rows)
    assert seen == [True] * len(inputs)


def test_lifted_matches_fraction_free_on_negative_and_large_determinants(monkeypatch):
    seen = routes(monkeypatch)
    diags = ([-1] * 6, [-3, 5, -7, 1, 1, 11], [2**61 - 1, -(2**89 - 1), 3**40, 1, 1, -1],
             [P - 2, P + 2, 2 * P + 1, -1, 1, 1])
    for diag in diags:
        A = scaled(6, diag, 5)
        lifted, plain = both(A)
        assert lifted == plain
        assert mul(A, lifted[0]) == DenseMatrix.identity(QQ, 6)
    assert seen == [True] * len(diags)


def test_a_determinant_the_prime_divides_takes_the_fraction_free_path(monkeypatch):
    seen = routes(monkeypatch)
    for diag in ([1, 1, P, 1, 1], [-P, 1, 3, 1, P * P]):
        A = scaled(5, diag, 9)
        lifted, plain = both(A)
        assert lifted == plain
        assert mul(A, lifted[0]) == DenseMatrix.identity(QQ, 5)
    assert seen == [False, False]


@pytest.mark.parametrize("n, r", [(1, 0), (2, 1), (5, 3), (8, 7), (12, 6), (17, 16)])
def test_singular_inputs_raise_with_the_exact_rank(n, r):
    A = planted_rank(QQ, n, r, random.Random(n * 31 + r))
    lifted, plain = both(A)
    assert lifted == plain
    assert lifted[0] == ("singular", r)


def test_the_certificate_never_lets_a_wrong_candidate_out(monkeypatch):
    # every product of B sees its operand with one entry off by one: no
    # candidate passes B c = d I, so the lifting gives up at its cap and the
    # fraction-free path answers
    seen = routes(monkeypatch)
    real = derived._int_classical

    def corrupted(x, y, k, c):
        y = [row[:] for row in y]
        y[0][0] += 1
        return real(x, y, k, c)

    monkeypatch.setattr(derived, "_int_classical", corrupted)
    for A in (unimodular(6, 2), general(5, 4)):
        inv = mat_inverse(A)
        assert seen.pop() is False
        monkeypatch.setattr(derived, "_int_classical", real)
        assert inv == mat_inverse(A, debug_checks=True)
        assert mul(A, inv) == DenseMatrix.identity(QQ, A.rows)
        monkeypatch.setattr(derived, "_int_classical", corrupted)
