"""Wall time of leu_decompose, of one classical product and of ``leu verify``
over GF(65521).

Decompositions run on ``cli.bench_matrix(n, seed, 65521)``, the full-rank
matrix of the ``bench`` command: with classical products at n = 64, 128, 256
(``decompose``), and with Strassen products at cutoffs 8 and 32 at n = 64,
128 and at cutoff 1 at n = 64, the deepest recursion (``strassen``, keyed
``n/cutoff``).  Products multiply two seeded h x h
matrices of uniform residues with ``mat_mul_classical`` at h = 8, 16, 32, 64,
128 (``product``).  ``verify`` times one in-process ``leu.cli.main(["verify",
FILE])`` on the n = 40 bench matrix written to a temporary file.  Every case
is timed REPEAT times after one untimed warm-up; the median and the quartiles
are printed as one JSON object, together with the rank and the multiplication
count of each decomposition, which no speed-up may change; the script fails
if a run of verify reports a failed check.

    python tools/bench_gfp.py [--src DIR] [--repeat 5] [--seed 1]

``--src`` is the directory that holds the ``leu`` package to time
(default: ``src`` next to this script), so two checkouts can be compared
with one copy of this script.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time

P = 65521
DECOMPOSE_SIZES = (64, 128, 256)
STRASSEN_CASES = ((64, 1), (64, 8), (64, 32), (128, 8), (128, 32))  # (n, cutoff)
PRODUCT_SIZES = (8, 16, 32, 64, 128)
VERIFY_SIZE = 40


def _timed(fn, repeat):
    fn()  # warm-up
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    q = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "median_s": float(f"{statistics.median(times):.4g}"),
        "q1_s": float(f"{q[0]:.4g}"),
        "q3_s": float(f"{q[2]:.4g}"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(here, "..", "src"))
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.repeat < 2:
        ap.error("--repeat must be at least 2 for quartiles")
    sys.path.insert(0, os.path.abspath(args.src))
    from leu import GF, DenseMatrix, MulCounter, leu_decompose, mat_mul_classical
    from leu.cli import bench_matrix, main as cli_main
    from leu.textio import format_matrix

    out = {
        "python": platform.python_version(),
        "p": P,
        "repeat": args.repeat,
        "seed": args.seed,
        "decompose": {},
        "strassen": {},
        "product": {},
        "verify": {},
    }

    def decompose(key, A, **kw):
        counter = MulCounter()
        res = leu_decompose(A, counter, **kw)
        row = _timed(lambda: leu_decompose(A, **kw), args.repeat)
        row.update(rank=res.rank, scalar_mults=counter.scalar_mults)
        print(f"{key}: median {row['median_s']:.4f} s", file=sys.stderr)
        return row

    for n in DECOMPOSE_SIZES:
        A = bench_matrix(n, args.seed, P)
        out["decompose"][str(n)] = decompose(f"decompose n={n}", A)
    for n, cutoff in STRASSEN_CASES:
        A = bench_matrix(n, args.seed, P)
        out["strassen"][f"{n}/{cutoff}"] = decompose(
            f"strassen n={n} cutoff={cutoff}", A, method="strassen", cutoff=cutoff
        )
    rng = random.Random(args.seed)
    F = GF(P)
    for h in PRODUCT_SIZES:
        X, Y = (DenseMatrix(F, [[rng.randrange(P) for _ in range(h)] for _ in range(h)])
                for _ in range(2))
        row = _timed(lambda: mat_mul_classical(X, Y), args.repeat)
        out["product"][str(h)] = row
        print(f"product h={h}: median {row['median_s']:.5f} s", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_matrix(bench_matrix(VERIFY_SIZE, args.seed, P)))
        passed = []

        def verify():
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli_main(["verify", path])
            passed.append(code == 0 and "FAIL" not in text.getvalue())

        row = _timed(verify, args.repeat)
        if not all(passed):
            sys.exit("verify did not pass every check")
        out["verify"][str(VERIFY_SIZE)] = row
        print(f"verify n={VERIFY_SIZE}: median {row['median_s']:.4f} s", file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
