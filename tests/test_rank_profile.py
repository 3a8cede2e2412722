"""L, E and U pinned by oracles that share no code with the recursion.

E is the rank profile matrix of A.  L only adds multiples of earlier rows to
later ones and U of earlier columns to later ones, so every leading i x j
submatrix of A has the rank of the same submatrix of E, and those ranks fix
E: with r(i, j) the rank of the leading i x j block,

    E[i][j] = r(i+1, j+1) - r(i, j+1) - r(i+1, j) + r(i, j).

The rationals and GF(p) agree.  Every operation of the recursion is a ring
operation or a zero test, so for an integer matrix and a prime p that
divides no denominator the rational decomposition, reduced mod p, is the
GF(p) decomposition of A mod p, unless a leading submatrix loses rank mod p
(then E differs, and the test shows that drop with the oracle).  This ties
the fraction-free rational blocks (signed slots, row and column scales,
their reduction) to the GF(p) residues on every block the recursion makes.
"""

import itertools
import random
from fractions import Fraction
from operator import mul

from leu import GF, QQ, DenseMatrix, MulCounter, leu_decompose, mat_inverse, tp_to_dense
from leu.oracle import gauss_rank
from helpers import planted_rank, profiled

P61 = 2**61 - 1
GF61 = GF(P61)
DIGITS = range(-9, 10)


def _leading_ranks(A):
    # r[i][j], the rank of the leading i x j block.  Row i adds 1 to the rank
    # of the rows above on the first j columns exactly when its first j
    # entries are independent of theirs, which once true stays true as j
    # grows; so bisection finds the first such j with a few eliminations.
    n = A.rows
    r = [[0] * (n + 1)]
    for i in range(1, n + 1):
        lo, hi = 1, n + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if gauss_rank(A.select(range(i), range(mid))) > r[i - 1][mid]:
                hi = mid
            else:
                lo = mid + 1
        r.append([v + (j >= lo) for j, v in enumerate(r[i - 1])])
    return r


def _assert_rank_profile(A):
    E = tp_to_dense(leu_decompose(A).E, A.field)._d
    r = _leading_ranks(A)
    n = A.rows
    want = [[r[i + 1][j + 1] - r[i][j + 1] - r[i + 1][j] + r[i][j] for j in range(n)]
            for i in range(n)]
    one = A.field.one_raw
    assert [[int(v == one) for v in row] for row in E] == want, A._d


def _profiled(n, rank, entry, rng):
    # L0 * R * U0 as integer rows, with R a random n x n truncated permutation
    # of the given rank and L0, U0 unit lower and upper triangular with
    # entries from ``entry`` off the diagonal: its rank profile is R, and it
    # has none of the leading nonsingular block of a random low-rank matrix
    lo = [[1 if i == j else entry() if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else entry() if j > i else 0 for j in range(n)] for i in range(n)]
    ru = [[0] * n for _ in range(n)]
    for i, j in zip(rng.sample(range(n), rank), rng.sample(range(n), rank)):
        ru[i] = up[j]
    cols = list(zip(*ru))
    return [[sum(map(mul, row, col)) for col in cols] for row in lo]


def test_e_is_the_rank_profile_of_every_3x3_over_gf2():
    F = GF(2)
    for bits in itertools.product((0, 1), repeat=9):
        _assert_rank_profile(DenseMatrix(F, [bits[0:3], bits[3:6], bits[6:9]]))


def test_e_is_the_rank_profile_at_every_rank():
    rng = random.Random(0xE)
    lp = random.Random(0x10B0)
    for field in (GF(3), GF(7), QQ):
        def entry():
            return rng.randrange(field.modulus) if field.kind == "gfp" else rng.randint(-9, 9)

        for n in range(1, 13):
            for rank in range(n + 1):
                if (n + rank) % 2:
                    A = planted_rank(field, n, rank, rng)
                else:
                    A = DenseMatrix(field, _profiled(n, rank, entry, rng))
                _assert_rank_profile(A)
                # L0 * P * U0 with any nonzero diagonal in L0: the oracle
                # confirms that P is its rank profile, and E takes it
                A, P = profiled(field, n, rank, lp)
                assert leu_decompose(A).E == P, A._d
                _assert_rank_profile(A)


def _mod(M):
    # the rational matrix M reduced mod P61, as a list of rows
    inv = {1: 1}
    for row in M._d:
        for v in row:
            if v.denominator not in inv:
                inv[v.denominator] = pow(v.denominator, -1, P61)
    return [[v.numerator * inv[v.denominator] % P61 for v in row] for row in M._d]


def _integer_rows(n, rank, rng):
    # an n x n integer matrix of the given rank, a product of random n x rank
    # and rank x n factors or one with a random rank profile, with entries in
    # [-9, 9]; 30% of them then get a zero block, so that whole subtrees are
    # skipped
    def entry():
        return rng.randint(-9, 9)

    if (n + rank) % 2:
        rows = _profiled(n, rank, entry, rng)
    else:
        x = [rng.choices(DIGITS, k=rank) for _ in range(n)]
        cols = list(zip(*[rng.choices(DIGITS, k=n) for _ in range(rank)]))
        rows = [[sum(map(mul, r, col)) for col in cols] if rank else [0] * n for r in x]
    if rng.random() < 0.3:
        i0, j0 = rng.randrange(n), rng.randrange(n)
        i1, j1 = rng.randint(i0 + 1, n), rng.randint(j0 + 1, n)
        for row in rows[i0:i1]:
            row[j0:j1] = [0] * (j1 - j0)
    return rows


def _decomposed(A):
    c, log = MulCounter(), []
    res = leu_decompose(A, c, _node_log=log)
    return res, (c.scalar_mults, c.scalar_invs), log


def test_rationals_reduced_mod_p_are_the_gfp_decomposition():
    rng = random.Random(0x61)
    set_aside = []
    for n in range(1, 25):
        for rank in range(n + 1):
            rows = _integer_rows(n, rank, rng)
            A = DenseMatrix._wrap(QQ, [list(map(Fraction, row)) for row in rows], n, n)
            B = DenseMatrix._wrap(GF61, [[v % P61 for v in row] for row in rows], n, n)
            (q, q_counts, q_log), (g, g_counts, g_log) = _decomposed(A), _decomposed(B)
            if q.E != g.E:
                # only a leading submatrix whose rank drops mod p may part them
                drops = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                         if gauss_rank(A.select(range(i), range(j)))
                         != gauss_rank(B.select(range(i), range(j)))]
                assert drops, A._d
                set_aside.append(A)
                continue
            assert _mod(q.L) == g.L._d and _mod(q.U) == g.U._d, A._d
            assert q_counts == g_counts and q_log == g_log
            if q.rank == n:
                assert _mod(mat_inverse(A)) == mat_inverse(B)._d, A._d
    # with p = 2^61 - 1 and entries of a few hundred, no drop is expected
    assert len(set_aside) <= 3
