"""Wall time of leu_decompose and of one classical product over GF(65521).

Decompositions run on ``cli.bench_matrix(n, seed, 65521)``, the full-rank
matrix of the ``bench`` command, at n = 64, 128, 256.  Products multiply two
seeded h x h matrices of uniform residues with ``mat_mul_classical`` at
h = 8, 16, 32, 64, 128.  Every case is timed REPEAT times after one untimed
warm-up; the median and the quartiles are printed as one JSON object,
together with the rank and the multiplication count of each decomposition,
which the product kernel must not change.

    python tools/bench_gfp.py [--src DIR] [--repeat 5] [--seed 1]

``--src`` is the directory that holds the ``leu`` package to time
(default: ``src`` next to this script), so two checkouts can be compared
with one copy of this script.
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

P = 65521
DECOMPOSE_SIZES = (64, 128, 256)
PRODUCT_SIZES = (8, 16, 32, 64, 128)


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
    from leu.cli import bench_matrix

    out = {
        "python": platform.python_version(),
        "p": P,
        "repeat": args.repeat,
        "seed": args.seed,
        "decompose": {},
        "product": {},
    }
    for n in DECOMPOSE_SIZES:
        A = bench_matrix(n, args.seed, P)
        counter = MulCounter()
        res = leu_decompose(A, counter)
        row = _timed(lambda: leu_decompose(A), args.repeat)
        row.update(rank=res.rank, scalar_mults=counter.scalar_mults)
        out["decompose"][str(n)] = row
        print(f"decompose n={n}: median {row['median_s']:.4f} s", file=sys.stderr)
    rng = random.Random(args.seed)
    F = GF(P)
    for h in PRODUCT_SIZES:
        X, Y = (DenseMatrix(F, [[rng.randrange(P) for _ in range(h)] for _ in range(h)])
                for _ in range(2))
        row = _timed(lambda: mat_mul_classical(X, Y), args.repeat)
        out["product"][str(h)] = row
        print(f"product h={h}: median {row['median_s']:.5f} s", file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
