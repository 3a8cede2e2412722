"""Command-line front end.

Reads matrices in the text format of :mod:`leu.textio`, runs the
decomposition and the operations derived from it, verifies invariants
against the elimination oracle, and benchmarks multiplication counts.

Exit codes: 0 success, 1 parse/usage error (also a failed ``verify``),
2 singular input to ``invert``.
"""

from __future__ import annotations

import sys

import click

from .decompose import VerifyReport, leu_decompose, leu_verify
from .dense import DenseMatrix, MulCounter, mat_mul_classical
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
    K = _kernel_from(A, res)
    prod = mat_mul_classical(A, K, MulCounter())
    checks.append(("kernel-annihilation", prod.is_zero()))
    checks.append(("kernel-nullity-oracle", K.cols == A.cols - oracle_rank))

    if res.rank == A.rows == A.cols:
        inv = _inverse_from(A, res, MulCounter())
        checks.append(("inverse-oracle", inv == oracle.gauss_inverse(A)
                       and oracle.check_inverse(A, inv)))
    else:
        ok = False
        try:
            _inverse_from(A, res, MulCounter())
        except SingularError as exc:
            ok = exc.rank == res.rank
        checks.append(("inverse-singular-agrees", ok))

    report = VerifyReport(tuple(checks))
    return "".join(line + "\n" for line in report.lines()), 0 if report.passed else 1


# ---------------------------------------------------------------------------
# click wiring


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 1:
        raise ParseError("cutoff must be >= 1")


def _load(path: str, field_spec: str | None) -> DenseMatrix:
    override = parse_field(field_spec) if field_spec else None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_matrix(text, override)


def _emit(output_path: str | None, text: str) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common(fn):
    for opt in (
        click.option("--output", "output_path", default=None, metavar="PATH",
                     help="Write the result to PATH instead of standard output."),
        click.option("--debug-checks", is_flag=True,
                     help="Assert internal contracts at every recursion step."),
        click.option("--count-mults", is_flag=True,
                     help="Append scalar multiplication/inversion totals."),
        click.option("--cutoff", "strassen_cutoff", type=int, default=32, show_default=True,
                     help="Leaf size of the Strassen multiplication count."),
        click.option("--mul", "mul_mode", type=click.Choice(["classical", "strassen"]),
                     default="classical", show_default=True,
                     help="Multiplication count of each product: n^3, or Strassen's at --cutoff."),
        click.option("--field", "field_override", default=None, metavar="SPEC",
                     help="Override the field declared in the file, e.g. 'gfp 7' or 'rational'."),
    ):
        fn = opt(fn)
    return fn


@click.group(name="leu")
def cli() -> None:
    """Exact pivot-free matrix decomposition over GF(p) and the rationals."""


def _register(name: str, help_text: str, body, counts: bool = True) -> None:
    @cli.command(name=name, help=help_text)
    @click.argument("input_path", metavar="MATRIX_FILE")
    @_common
    def _cmd(input_path, output_path, debug_checks, count_mults,
             strassen_cutoff, mul_mode, field_override):
        _check_cutoff(strassen_cutoff)
        A = _load(input_path, field_override)
        counter = MulCounter()
        kw = dict(method=mul_mode, cutoff=strassen_cutoff, debug_checks=debug_checks)
        text, code = body(A, counter, kw)
        if count_mults and counts:
            text += f"mults {counter.scalar_mults}\ninvs {counter.scalar_invs}\n"
        _emit(output_path, text)
        return code


_register("leu", "Decompose A into L, E, U with L*A*U = E; prints L, E, U and the rank.", _leu)
_register("bruhat", "Generalized Bruhat decomposition A = V1*w*V2.", _bruhat)
_register("invert", "Exact inverse; exits 2 with 'singular rank=<r>' if singular.", _invert)
_register("rank", "Rank of the matrix.", _rank)
_register("kernel", "Basis of the right kernel, one column per vector.", _kernel)
_register("block", "Row/column indices of a nonsingular block of maximal size.", _block)
# every line of verify is a check, so it never carries the totals
_register("verify", "Run the decomposition and print PASS/FAIL per structural check.", _verify,
          counts=False)


@cli.command(name="bench", help="Multiplication-count benchmark over seeded matrices; emits CSV.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the deterministic matrix generator.")
@click.option("--cutoff", "strassen_cutoff", type=int, default=32, show_default=True)
@click.option("--output", "output_path", default=None, metavar="PATH")
def _bench(seed, strassen_cutoff, output_path):
    _check_cutoff(strassen_cutoff)
    lines = ["n,mode,mults,invs"]
    for n in BENCH_SIZES:
        A = bench_matrix(n, seed)
        for mode in ("classical", "strassen"):
            c = MulCounter()
            leu_decompose(A, c, method=mode, cutoff=strassen_cutoff)
            lines.append(f"{n},{mode},{c.scalar_mults},{c.scalar_invs}")
    _emit(output_path, "\n".join(lines) + "\n")


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except (ParseError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularError as exc:
        print(f"singular rank={exc.rank}", file=sys.stderr)
        return 2
    return int(rv or 0)


if __name__ == "__main__":
    sys.exit(main())
