"""Wall time of leu_decompose over the rationals at n = 16, 32, 48, 64.

Each size decomposes one seeded full-rank integer matrix (a product of two
random n x n integer matrices with entries in [-9, 9]), the input family of
the rational cases of acceptance criterion 1.  The ``sizes`` section times
classical mode; the ``strassen`` section times ``method="strassen"`` on the
same matrices at n = 32, 48, 64 and cutoffs 8 and 16; the ``inverse``
section times ``mat_inverse`` of the same matrices at n = 32 and 48, whose
final product ``U * (E^T * L)`` is the costly part over the rationals.
Every case is timed REPEAT times after one untimed warm-up; the median and
the quartiles are printed as one JSON object, together with the largest bit
length of an entry of the result (L and U, or the inverse), which the
arithmetic backend must not change.

    python tools/bench_qq.py [--src DIR] [--repeat 5] [--seed 1]

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

SIZES = (16, 32, 48, 64)
STRASSEN_SIZES = (32, 48, 64)
STRASSEN_CUTOFFS = (8, 16)
INVERSE_SIZES = (32, 48)


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def _timed(op, A, repeat, **kw):
    res = op(A, **kw)  # warm-up
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        op(A, **kw)
        times.append(time.perf_counter() - t)
    q1, q3 = _quartiles(times)
    return res, {
        "median_s": round(statistics.median(times), 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
    }


def _max_entry_bits(*mats):
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for M in mats
        for row in M._d
        for v in row
    )


def _decomposed(decompose, A, repeat, **kw):
    res, rec = _timed(decompose, A, repeat, **kw)
    return {"rank": res.rank, **rec, "max_entry_bits": _max_entry_bits(res.L, res.U)}


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
    from leu import QQ, DenseMatrix, MulCounter, leu_decompose, mat_inverse, mat_mul_classical

    try:
        import gmpy2  # noqa: F401

        backend = "gmpy2"
    except ImportError:
        backend = "fractions"
    rng = random.Random(args.seed)
    out = {
        "python": platform.python_version(),
        "rational_backend": backend,
        "repeat": args.repeat,
        "seed": args.seed,
        "sizes": {},
        "strassen": {},
        "inverse": {},
    }
    inputs = {}
    for n in SIZES:
        P, Q = ([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for _ in range(2))
        A = inputs[n] = mat_mul_classical(DenseMatrix(QQ, P), DenseMatrix(QQ, Q), MulCounter())
        rec = out["sizes"][str(n)] = _decomposed(leu_decompose, A, args.repeat)
        print(f"n={n}: median {rec['median_s']:.4f} s", file=sys.stderr)
    for n in STRASSEN_SIZES:
        for cutoff in STRASSEN_CUTOFFS:
            rec = _decomposed(leu_decompose, inputs[n], args.repeat, method="strassen", cutoff=cutoff)
            out["strassen"][f"{n}/{cutoff}"] = rec
            print(f"strassen n={n} cutoff={cutoff}: median {rec['median_s']:.4f} s", file=sys.stderr)
    for n in INVERSE_SIZES:
        X, rec = _timed(mat_inverse, inputs[n], args.repeat)
        rec = out["inverse"][str(n)] = {**rec, "max_entry_bits": _max_entry_bits(X)}
        print(f"inverse n={n}: median {rec['median_s']:.4f} s", file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
