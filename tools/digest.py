"""One sha256 over what leu computes, for comparing two checkouts.

Over GF(7), GF(65521), GF(2^31 - 1) and the rationals, at n = 1, 2, 3, 5,
8, 16, 33 and 64, and over GF(65521) also at n = 128, where the recursion's
products are wide enough to skip the zero triangle of a triangular operand,
two seeded n x n matrices of each rank r = 0, n/2 and n are decomposed with
classical products and with Strassen products at cutoff 1.  The planted one
is the product of an n x r and an r x n matrix; its leading blocks have
generic rank, so the middle recursions of a node mostly see zero blocks.
The profiled one is L0 * P * U0, with L0 random lower triangular with a
nonzero diagonal, P a random truncated permutation of rank r and U0 random
unit upper triangular; its rank profile matrix is P, and its middle
recursions do real work.  Each decomposition feeds L, E,
U, the MulCounter totals and the node log into the hash.  The classical run
also feeds in the inverse (or the rank that the SingularError carries), the
rank, the kernel basis, the rows and columns of the largest nonsingular
block and the Bruhat factors, each with its counter, except over the
rationals at n = 64, where those alone take twice as long as all the rest:
there only the inverses of the two full-rank inputs go in, which the
default run lifts p-adically over many digits and ``--debug-checks``
computes fraction-free.
Any change to a value, a count or the order of the node log changes the
hash.

    python tools/digest.py [--src DIR] [--debug-checks]

``--src`` is the directory that holds the ``leu`` package (default: ``src``
next to this script), so a parent and a changed checkout can be compared
with one copy of this script.  ``--debug-checks`` passes
``debug_checks=True`` to every decomposition and derived operation (to the
block as ``verify=True``); that runs the plain recursion with every node
check and both factors, where the default run takes the fast paths (over
GF(p), the nodes of n <= 4 run on scalars, and the rank, the kernel and the
block skip the products of the factors they do not read), so the two must
print the same hash.
``digest.sha256`` next to it holds the hash of the committed source.
"""

import argparse
import hashlib
import os
import random
import sys

PRIMES = (7, 65521, 2**31 - 1)
SIZES = (1, 2, 3, 5, 8, 16, 33, 64)
LARGE = (65521, 128)  # one prime, and the size it adds to SIZES
METHODS = (("classical", 32), ("strassen", 1))
RATIONAL_DERIVED = 33  # the largest rational n whose derived results are all hashed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(here, "..", "src"))
    ap.add_argument("--debug-checks", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from leu import (
        GF, QQ, DenseMatrix, MulCounter, SingularError, bruhat_decompose, kernel_basis,
        largest_nonsingular_block, leu_decompose, mat_inverse, mat_mul_classical, mat_rank,
    )

    dc = {"debug_checks": args.debug_checks}
    h = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            if isinstance(part, DenseMatrix):
                part = (part.shape, part._d)
            elif isinstance(part, MulCounter):
                part = (part.scalar_mults, part.scalar_invs)
            h.update(repr(part).encode())
            h.update(b"\n")

    def planted(field, n, r, rng):
        # the product of an n x r and an r x n matrix with small random entries
        def entry():
            return rng.randrange(field.modulus) if field.kind == "gfp" else rng.randint(-9, 9)

        if r == 0:
            return DenseMatrix.zeros(field, n, n)
        P = DenseMatrix(field, [[entry() for _ in range(r)] for _ in range(n)])
        Q = DenseMatrix(field, [[entry() for _ in range(n)] for _ in range(r)])
        return mat_mul_classical(P, Q)

    def profiled(field, n, r, rng):
        # L0 * P * U0, whose rank profile matrix is the rank r permutation P
        def entry(nonzero=False):
            if field.kind == "gfp":
                return rng.randrange(nonzero, field.modulus)
            return rng.choice((-1, 1)) * rng.randint(1, 9) if nonzero else rng.randint(-9, 9)

        lo = [[entry(True) if i == j else entry() if j < i else 0 for j in range(n)]
              for i in range(n)]
        up = [[1 if i == j else entry() if j > i else 0 for j in range(n)] for i in range(n)]
        pu = [[0] * n for _ in range(n)]
        for i, j in zip(rng.sample(range(n), r), rng.sample(range(n), r)):
            pu[i] = up[j]
        return mat_mul_classical(DenseMatrix(field, lo), DenseMatrix(field, pu))

    def inputs(field):
        # (n, r, kind, A) for every input of one field that the hash covers
        for n in SIZES + ((LARGE[1],) if field == GF(LARGE[0]) else ()):
            for r in sorted({0, n // 2, n}):
                yield n, r, "planted", planted(field, n, r, random.Random(f"{field!r} {n} {r}"))
                rng = random.Random(f"profiled {field!r} {n} {r}")
                yield n, r, "profiled", profiled(field, n, r, rng)

    for field in [*map(GF, PRIMES), QQ]:
        for n, r, kind, A in inputs(field):
            feed(field, n, r, kind, A)
            for method, cutoff in METHODS:
                log = []
                res = leu_decompose(A, method=method, cutoff=cutoff, _node_log=log, **dc)
                feed(method, res.L, res.E.ones, res.U, res.counter, log)
            big = field == QQ and n > RATIONAL_DERIVED
            if big and r < n:
                continue
            c = MulCounter()
            try:
                feed(mat_inverse(A, c, **dc), c)
            except SingularError as e:
                feed("singular", e.rank, c)
            if big:
                continue
            c = MulCounter()
            feed(mat_rank(A, c, **dc), c)
            c = MulCounter()
            feed(kernel_basis(A, c, **dc), c)
            c = MulCounter()
            feed(*largest_nonsingular_block(A, c, verify=args.debug_checks), c)
            c = MulCounter()
            b = bruhat_decompose(A, c, **dc)
            feed(b.V1, b.w.ones, b.V2, c)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
