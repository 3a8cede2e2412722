"""Command-line front end.

Reads matrices in the text format of :mod:`leu.textio`, runs the
decomposition and the operations derived from it, verifies invariants
against the elimination oracle, and benchmarks multiplication counts.

Exit codes: 0 success, 1 parse/usage error (also a failed ``verify``),
2 singular input to ``invert``.
"""

from __future__ import annotations

import argparse
import sys

from .decompose import VerifyReport, leu_decompose, leu_verify
from .dense import DenseMatrix, MulCounter, blocks, mat_mul_classical
from .derived import (
    _inverse_from,
    _kernel_from,
    bruhat_decompose,
    kernel_basis,
    largest_nonsingular_block,
    mat_inverse,
    mat_rank,
)
from .errors import ParseError, ShapeError, SingularError
from .fields import GF
from .textio import format_matrix, format_perm, parse_field, parse_matrix

BENCH_SIZES = (8, 16, 32, 64, 128)
BENCH_FIELD = 65521


# ---------------------------------------------------------------------------
# deterministic generator for bench matrices
#
# splitmix64: state advances by the 64-bit golden-ratio constant, the output
# is the finalizing mix of the new state.  The bench matrix of size n under
# seed s starts from state s XOR (n * 0xD1B54A32D192ED03) and is the product
# L*U of a unit lower triangular L and an upper triangular U with nonzero
# diagonal, filled row-major (L first, then U), each entry consuming one
# generator step: subdiagonal and superdiagonal entries are out % p, diagonal
# entries of U are 1 + out % (p - 1).  L*U is full rank by construction.

_M64 = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def bench_matrix(n: int, seed: int, p: int = BENCH_FIELD) -> DenseMatrix:
    """Seeded random full-rank n x n matrix over GF(p)."""
    field = GF(p)
    state = (seed ^ (n * 0xD1B54A32D192ED03)) & _M64
    lo = [[0] * n for _ in range(n)]
    up = [[0] * n for _ in range(n)]
    for i in range(n):
        lo[i][i] = 1
        for j in range(i):
            state, out = _splitmix64(state)
            lo[i][j] = out % p
    for i in range(n):
        state, out = _splitmix64(state)
        up[i][i] = 1 + out % (p - 1)
        for j in range(i + 1, n):
            state, out = _splitmix64(state)
            up[i][j] = out % p
    L = DenseMatrix._wrap(field, lo, n, n)
    U = DenseMatrix._wrap(field, up, n, n)
    return mat_mul_classical(L, U, MulCounter())


# ---------------------------------------------------------------------------
# one body per command: (A, counter, kw) -> (text, exit code), kw holding
# method, cutoff and debug_checks


def _leu(A, counter, kw):
    res = leu_decompose(A, counter, **kw)
    out = format_matrix(res.L) + format_perm(res.E) + format_matrix(res.U)
    return out + f"rank {res.rank}\n", 0


def _bruhat(A, counter, kw):
    res = bruhat_decompose(A, counter, **kw)
    return format_matrix(res.V1) + format_perm(res.w) + format_matrix(res.V2), 0


def _invert(A, counter, kw):
    return format_matrix(mat_inverse(A, counter, **kw)), 0


def _rank(A, counter, kw):
    return f"rank {mat_rank(A, counter, **kw)}\n", 0


def _kernel(A, counter, kw):
    return format_matrix(kernel_basis(A, counter, **kw)), 0


def _block(A, counter, kw):
    rows, cols = largest_nonsingular_block(A, counter, method=kw["method"],
                                           cutoff=kw["cutoff"], verify=kw["debug_checks"])
    out = "rows" + "".join(f" {i}" for i in rows) + "\n"
    return out + "cols" + "".join(f" {j}" for j in cols) + "\n", 0


def _verify(A, counter, kw):
    from . import oracle

    res = leu_decompose(A, counter, **kw)
    checks = list(leu_verify(A, res).checks)

    oracle_rank = oracle.gauss_rank(A)
    checks.append(("rank-oracle", res.rank == oracle_rank))

    # every check below reads the one decomposition above
    K = _kernel_from(A, res.E.ones, res.U._d)
    prod = mat_mul_classical(A, K, MulCounter())
    checks.append(("kernel-annihilation", prod.is_zero()))
    checks.append(("kernel-nullity-oracle", K.cols == A.cols - oracle_rank))

    # the inverse checks read the stored factors, loaded back into blocks
    bk = blocks(A.field)
    try:
        inv = _inverse_from(A, bk.load(res.L._d), res.E.ones, bk.load_cols(res.U._d), MulCounter())
    except SingularError as exc:
        checks.append(("inverse-singular-agrees", exc.rank == oracle_rank))
    else:
        # over a field A * X = I alone makes X the inverse, so no elimination runs
        checks.append(("inverse-oracle", oracle.check_inverse(A, inv)))

    report = VerifyReport(tuple(checks))
    return "".join(line + "\n" for line in report.lines()), 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing: one parser, built once at import


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, so it exits 1 like bad input."""

    def error(self, message):
        raise ParseError(message)


_COMMANDS = (  # bench has no body: it reads no matrix file
    ("leu", "Decompose A into L, E, U with L*A*U = E; prints L, E, U and the rank.", _leu),
    ("bruhat", "Generalized Bruhat decomposition A = V1*w*V2.", _bruhat),
    ("invert", "Exact inverse; exits 2 with 'singular rank=<r>' if singular.", _invert),
    ("rank", "Rank of the matrix.", _rank),
    ("kernel", "Basis of the right kernel, one column per vector.", _kernel),
    ("block", "Row/column indices of a nonsingular block of maximal size.", _block),
    ("verify", "Run the decomposition and print PASS/FAIL per structural check.", _verify),
    ("bench", "Multiplication-count benchmark over seeded matrices; emits CSV.", None),
)
_HELP = "Show this message and exit."


def _build_parser() -> _Parser:
    # no -h and no option prefixes: the accepted arguments are exactly --help
    # and the options below, spelled out
    flags = dict(add_help=False, allow_abbrev=False)
    parser = _Parser(prog="leu", **flags,
                     description="Exact pivot-free matrix decomposition over GF(p) and the rationals.")
    parser.add_argument("--help", action="help", help=_HELP)
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    for name, help_text, body in _COMMANDS:
        sub = commands.add_parser(name, help=help_text, description=help_text, **flags)
        sub.set_defaults(body=body)
        if body is None:
            sub.add_argument("--seed", type=int, default=0, metavar="N",
                             help="Seed of the deterministic matrix generator (default: %(default)s).")
        else:
            sub.add_argument("matrix_file", metavar="MATRIX_FILE")
            sub.add_argument("--field", metavar="SPEC",
                             help="Override the field declared in the file, e.g. 'gfp 7' or 'rational'.")
            sub.add_argument("--mul", choices=("classical", "strassen"), default="classical",
                             help="Multiplication count of each product: n^3, or Strassen's at "
                                  "--cutoff (default: %(default)s).")
            sub.add_argument("--count-mults", action="store_true",
                             help="Append scalar multiplication/inversion totals.")
            sub.add_argument("--debug-checks", action="store_true",
                             help="Assert internal contracts at every recursion step.")
        sub.add_argument("--cutoff", type=int, default=32, metavar="N",
                         help="Leaf size of the Strassen multiplication count (default: %(default)s).")
        sub.add_argument("--output", metavar="PATH",
                         help="Write the result to PATH instead of standard output.")
        sub.add_argument("--help", action="help", help=_HELP)
    return parser


_PARSER = _build_parser()


def _load(path: str, field_spec: str | None) -> DenseMatrix:
    override = parse_field(field_spec) if field_spec else None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_matrix(text, override)


def _run(args) -> int:
    # checked before the input is read, even where the products are classical
    if args.cutoff < 1:
        raise ParseError("cutoff must be >= 1")
    if args.body is None:
        lines = ["n,mode,mults,invs"]
        for n in BENCH_SIZES:
            A = bench_matrix(n, args.seed)
            for mode in ("classical", "strassen"):
                c = MulCounter()
                leu_decompose(A, c, method=mode, cutoff=args.cutoff)
                lines.append(f"{n},{mode},{c.scalar_mults},{c.scalar_invs}")
        text, code = "\n".join(lines) + "\n", 0
    else:
        A = _load(args.matrix_file, args.field)
        counter = MulCounter()
        kw = dict(method=args.mul, cutoff=args.cutoff, debug_checks=args.debug_checks)
        text, code = args.body(A, counter, kw)
        # every line of verify is a check, so it never carries the totals
        if args.count_mults and args.body is not _verify:
            text += f"mults {counter.scalar_mults}\ninvs {counter.scalar_invs}\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    try:
        return _run(_PARSER.parse_args(argv))
    except SystemExit as exc:  # only --help exits, after printing the help
        return exc.code
    except (ParseError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularError as exc:
        print(f"singular rank={exc.rank}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
