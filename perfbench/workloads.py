"""Seeded inputs, operations and output checks of the three workloads.

Every input comes from the seed alone and is made before any timing
starts.  The checks use this file's own modular and rational arithmetic and
never call into ``leu``: a Freivalds test of each command's defining
identity, ranks against the rank built into the input, and the paper's
multiplication count where it is closed-form.

Each workload offers one *pass*: a list of zero-argument operations.  The
two library workloads have a single operation per pass; ``cli-mix`` has one
per command line of its fixed list.  An operation returns its output and
the model multiplication and inversion counts (or None where the command
does not report them).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction

GFP = 65521
LEU_N = 128
INV_N = 32
QQ_ENTRY = 2  # off-diagonal entries of the integer factors lie in [-2, 2]

# (n, p, rank) of the cli-mix matrices: p = 0 is the rationals, and the rank
# is n, n // 2 or 0.  Sizes are mostly not powers of two so that padding
# shows; the rationals stay at n <= 12, where Fraction arithmetic keeps a
# call below a second.
CLI_CONFIGS = (
    (3, 0, "full"),
    (6, 7, "half"),
    (12, 0, "half"),
    (16, 7, "full"),
    (17, GFP, "full"),
    (24, 7, "zero"),
    (33, GFP, "half"),
    (40, GFP, "full"),
)
CLI_COMMANDS = ("leu", "bruhat", "invert", "rank", "kernel", "block", "verify")
STRASSEN_EVERY = 3  # every third call runs with --mul strassen --cutoff 8


def model_count(n: int) -> int:
    """The paper's multiplication count 17(n^3 - n^2)/4 for a power of two n."""
    return 17 * (n ** 3 - n ** 2) // 4


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


# ---------------------------------------------------------------------------
# own exact arithmetic: p > 0 is GF(p), p == 0 the rationals


def _red(x, p):
    return x % p if p else x


def matvec(M, v, p):
    return [_red(sum(a * b for a, b in zip(row, v)), p) for row in M]


def perm_vec(ones, v, n):
    """E * v for the 0/1 matrix with ones at the given (row, col) pairs."""
    out = [0] * n
    for i, j in ones:
        out[i] = v[j]
    return out


def rank_of(M, p):
    """Rank by Gaussian elimination over GF(p) or, for p == 0, the rationals."""
    m = [[x if p else Fraction(x) for x in row] for row in M]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p) if p else 1 / m[rank][c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                f = _red(f * inv, p)
                m[i] = [_red(a - f * b, p) for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def freivalds_vectors(n, p, rng):
    """Random vectors enough for a false pass rate below 2**-40."""
    if p:
        k = max(2, math.ceil(40 / math.log2(p)))
        return [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    return [[rng.randrange(1 << 48) for _ in range(n)] for _ in range(2)]


def is_lower(M):
    return all(not M[i][j] for i in range(len(M)) for j in range(i + 1, len(M)))


def is_upper_unit(M):
    n = len(M)
    return all(M[i][i] == 1 for i in range(n)) and all(
        not M[i][j] for i in range(n) for j in range(i))


def leu_failures(a, L, ones, U, p, rng):
    """Why L*A*U = E fails, or [] when it holds with the required shapes."""
    n = len(a)
    bad = []
    if not is_lower(L) or not all(L[i][i] for i in range(n)):
        bad.append("L not lower triangular with nonzero diagonal")
    if not is_upper_unit(U):
        bad.append("U not upper unitriangular")
    for v in freivalds_vectors(n, p, rng):
        if matvec(L, matvec(a, matvec(U, v, p), p), p) != perm_vec(ones, v, n):
            bad.append("L*A*U != E")
            break
    return bad


# ---------------------------------------------------------------------------
# leu text format, parsed here without leu


def _scalar(tok, p):
    return int(tok) if p else Fraction(tok)


def read_matrix(lines, k, p):
    """Matrix starting at line k: (rows, next line)."""
    rows = int(lines[k + 1].split()[1])
    body = lines[k + 3:k + 3 + rows]
    return [[_scalar(t, p) for t in ln.split()] for ln in body], k + 3 + rows


def read_perm(line):
    body = line.split("ones=", 1)[1]
    return [tuple(int(x) for x in pair.strip("()").split(",")) for pair in body.split(";") if pair]


def format_matrix(a, p):
    head = [f"field gfp {p}" if p else "field rational", f"rows {len(a)}", f"cols {len(a[0])}"]
    return "\n".join(head + [" ".join(str(x) for x in row) for row in a]) + "\n"


def tail_counts(lines):
    """The mults/invs lines that --count-mults appends, as ints (or None)."""
    found = dict(ln.split() for ln in lines if ln.startswith(("mults ", "invs ")))
    if "mults" not in found:
        return None, None
    return int(found["mults"]), int(found["invs"])


# ---------------------------------------------------------------------------
# input generators


def exact_rank_matrix(n, p, r, rng):
    """(row perm) * unit-lower * 0/1-diagonal * unit-upper * (column perm).

    The rank is exactly r: the triangular factors and permutations are
    invertible and the diagonal has r ones.
    """
    def ent():
        return rng.randrange(p) if p else rng.randint(-QQ_ENTRY, QQ_ENTRY)

    lo = [[1 if i == j else (ent() if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (ent() if j > i else 0) for j in range(n)] for i in range(n)]
    keep = set(rng.sample(range(n), r))
    ld = [[x if j in keep else 0 for j, x in enumerate(row)] for row in lo]
    m = [[_red(sum(ld[i][t] * up[t][j] for t in range(n)), p) for j in range(n)] for i in range(n)]
    rp = list(range(n))
    cp = list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return [[m[rp[i]][cp[j]] for j in range(n)] for i in range(n)]


def _values(M):
    """Entries of a leu DenseMatrix through its public indexing."""
    return [[M[i, j].value for j in range(M.cols)] for i in range(M.rows)]


# ---------------------------------------------------------------------------
# workloads


class GfpLeu:
    """leu_decompose of the full-rank bench_matrix(128, seed) over GF(65521)."""

    name = "gfp-leu-128"
    imports = ("leu",)

    def __init__(self, seed, workdir):
        from leu.cli import bench_matrix

        self.seed = seed
        self.A = bench_matrix(LEU_N, seed, GFP)
        self.a = _values(self.A)

    def ops(self):
        from leu import MulCounter, leu_decompose

        A = self.A

        def op():
            res = leu_decompose(A, MulCounter(), method="classical", parallel=False)
            return res, res.counter.scalar_mults, res.counter.scalar_invs

        return [op]

    def digest(self, i, res):
        return (_values(res.L), tuple(res.E.ones), _values(res.U))

    def failures(self, i, digest, mults, invs):
        L, ones, U = digest
        bad = leu_failures(self.a, L, ones, U, GFP, random.Random(self.seed))
        if len(ones) != LEU_N:
            bad.append(f"rank {len(ones)} != {LEU_N}")
        if mults != model_count(LEU_N):
            bad.append(f"scalar_mults {mults} != {model_count(LEU_N)}")
        return bad


class QqInverse:
    """mat_inverse over the rationals of a unit-lower times unit-upper integer matrix."""

    name = "qq-inverse-32"
    imports = ("leu",)

    def __init__(self, seed, workdir):
        from leu import QQ, DenseMatrix

        rng = random.Random(seed)
        n = INV_N
        lo = [[1 if i == j else (rng.randint(-QQ_ENTRY, QQ_ENTRY) if j < i else 0)
               for j in range(n)] for i in range(n)]
        up = [[1 if i == j else (rng.randint(-QQ_ENTRY, QQ_ENTRY) if j > i else 0)
               for j in range(n)] for i in range(n)]
        self.seed = seed
        self.a = [[sum(lo[i][t] * up[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        self.A = DenseMatrix(QQ, self.a)

    def ops(self):
        from leu import MulCounter, mat_inverse

        A = self.A

        def op():
            c = MulCounter()
            inv = mat_inverse(A, c, method="classical", parallel=False)
            return inv, c.scalar_mults, c.scalar_invs

        return [op]

    def digest(self, i, inv):
        return _values(inv)

    def failures(self, i, inv, mults, invs):
        bad = []
        for v in freivalds_vectors(INV_N, 0, random.Random(self.seed)):
            if matvec(self.a, matvec(inv, v, 0), 0) != v:
                bad.append("A * A^-1 != I")
                break
        want = model_count(INV_N) + INV_N ** 3
        if mults != want:
            bad.append(f"scalar_mults {mults} != {want}")
        return bad


class CliMix:
    """A fixed list of in-process leu.cli.main calls on seeded matrix files."""

    name = "cli-mix"
    imports = ("leu", "leu.cli")

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.seed = seed
        self.cases = []  # (argv, command, n, p, rank, matrix)
        for n, p, kind in CLI_CONFIGS:
            r = {"full": n, "half": n // 2, "zero": 0}[kind]
            a = exact_rank_matrix(n, p, r, rng)
            path = os.path.join(workdir, f"m{n}_{p}_{kind}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_matrix(a, p))
            for cmd in CLI_COMMANDS:
                if cmd == "invert" and r < n:
                    continue
                argv = [cmd, path, "--count-mults"]
                if len(self.cases) % STRASSEN_EVERY == STRASSEN_EVERY - 1:
                    argv += ["--mul", "strassen", "--cutoff", "8"]
                self.cases.append((argv, cmd, n, p, r, a))

    def ops(self):
        from leu.cli import main

        def make(argv):
            def op():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(argv))
                text = out.getvalue()
                mults, invs = tail_counts(text.splitlines())
                return (code, text, err.getvalue()), mults, invs
            return op

        return [make(case[0]) for case in self.cases]

    def digest(self, i, out):
        return out

    def failures(self, i, out, mults, invs):
        argv, cmd, n, p, r, a = self.cases[i]
        code, text, err = out
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        lines = text.splitlines()
        rng = random.Random(self.seed * 1000 + i)
        bad = []
        if cmd == "leu":
            L, k = read_matrix(lines, 0, p)
            ones = read_perm(lines[k])
            U, k = read_matrix(lines, k + 1, p)
            bad += leu_failures(a, L, ones, U, p, rng)
            if len(ones) != r or lines[k] != f"rank {r}":
                bad.append(f"rank is not {r}")
        elif cmd == "bruhat":
            V1, k = read_matrix(lines, 0, p)
            w = read_perm(lines[k])
            V2, k = read_matrix(lines, k + 1, p)
            if len(w) != n:
                bad.append("w is not a full permutation")
            for v in freivalds_vectors(n, p, rng):
                if matvec(V1, perm_vec(w, matvec(V2, v, p), n), p) != matvec(a, v, p):
                    bad.append("V1*w*V2 != A")
                    break
        elif cmd == "invert":
            inv, _ = read_matrix(lines, 0, p)
            for v in freivalds_vectors(n, p, rng):
                if matvec(a, matvec(inv, v, p), p) != [_red(x, p) for x in v]:
                    bad.append("A*A^-1 != I")
                    break
        elif cmd == "rank":
            if lines[0] != f"rank {r}":
                bad.append(f"{lines[0]!r}, built rank {r}")
        elif cmd == "kernel":
            K, _ = read_matrix(lines, 0, p)
            width = len(K[0]) if K and K[0] else 0
            if width != n - r:
                bad.append(f"kernel has {width} columns, nullity {n - r}")
            elif width:
                if rank_of(K, p) != width:
                    bad.append("kernel columns are dependent")
                for v in freivalds_vectors(width, p, rng):
                    if any(matvec(a, matvec(K, v, p), p)):
                        bad.append("A*K != 0")
                        break
        elif cmd == "block":
            rows = [int(x) for x in lines[0].split()[1:]]
            cols = [int(x) for x in lines[1].split()[1:]]
            if len(rows) != r or len(cols) != r:
                bad.append(f"block is {len(rows)}x{len(cols)}, rank {r}")
            elif r and rank_of([[a[i][j] for j in cols] for i in rows], p) != r:
                bad.append("block is singular")
        elif cmd == "verify":
            if not lines or not all(ln.endswith(": PASS") for ln in lines):
                bad.append("verify did not pass every check")
        classical = "strassen" not in argv
        if classical and cmd in ("leu", "rank", "kernel", "block") and mults != model_count(next_pow2(n)):
            bad.append(f"scalar_mults {mults} != {model_count(next_pow2(n))}")
        return bad


WORKLOADS = {w.name: w for w in (GfpLeu, QqInverse, CliMix)}
