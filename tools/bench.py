"""Wall time of leu over GF(65521) and over the rationals, as one JSON object.

``gfp`` times ``leu_decompose`` on ``cli.bench_matrix(n, seed, 65521)``, the
``bench`` command's full-rank matrices, at n = 64, 128, 256 (``decompose``,
with the rank and the model multiplication count), one ``mat_mul_classical``
product of two seeded h x h matrices of residues at h = 8 to 128
(``product``), and one in-process ``leu verify`` on the n = 40 bench matrix
(``verify``), failing if a run reports a failed check.  ``qq`` times
``leu_decompose`` at n = 16 to 64 (``decompose``, with the rank) and
``mat_inverse`` at n = 32, 48, 64 (``inverse``) on one seeded full-rank
integer matrix per size, the product of two random n x n matrices with
entries in [-9, 9] (the rational inputs of acceptance criterion 1), each
with the largest bit length of an entry of its result.  Every case is timed
REPEAT times after one untimed warm-up, and reported as the median and
quartiles.  Ranks, counts and entry bits are what no speed-up may change.

    python tools/bench.py [--src DIR] [--repeat 5] [--seed 1]

``--src`` is the directory that holds the ``leu`` package to time (default:
``src`` next to this script), so two checkouts can be compared with one copy
of this script.
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
GFP_DECOMPOSE = (64, 128, 256)
GFP_PRODUCT = (8, 16, 32, 64, 128)
GFP_VERIFY = 40
QQ_DECOMPOSE = (16, 32, 48, 64)
QQ_INVERSE = (32, 48, 64)


def _timed(fn, repeat):
    # the result of the warm-up run, and the spread of the timed runs
    res = fn()
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    q = statistics.quantiles(times, n=4, method="inclusive")
    return res, {
        "median_s": float(f"{statistics.median(times):.4g}"),
        "q1_s": float(f"{q[0]:.4g}"),
        "q3_s": float(f"{q[2]:.4g}"),
    }


def _max_entry_bits(*mats):
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for M in mats
        for row in M._d
        for v in row
    )


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
    from leu import GF, QQ, DenseMatrix, leu_decompose, mat_inverse, mat_mul_classical
    from leu.cli import bench_matrix, main as cli_main
    from leu.textio import format_matrix

    out = {
        "python": platform.python_version(),
        "rational_backend": type(QQ.one_raw).__module__,
        "repeat": args.repeat,
        "seed": args.seed,
        "gfp": {"p": P, "decompose": {}, "product": {}, "verify": {}},
        "qq": {"decompose": {}, "inverse": {}},
    }

    def case(part, section, key, fn, facts=lambda res: {}):
        res, row = _timed(fn, args.repeat)
        row.update(facts(res))
        out[part][section][str(key)] = row
        print(f"{part} {section} {key}: median {row['median_s']:.4g} s", file=sys.stderr)

    for n in GFP_DECOMPOSE:
        A = bench_matrix(n, args.seed, P)
        case("gfp", "decompose", n, lambda: leu_decompose(A),
             lambda res: {"rank": res.rank, "scalar_mults": res.counter.scalar_mults})
    rng = random.Random(args.seed)
    for h in GFP_PRODUCT:
        X, Y = (DenseMatrix(GF(P), [[rng.randrange(P) for _ in range(h)] for _ in range(h)])
                for _ in range(2))
        case("gfp", "product", h, lambda: mat_mul_classical(X, Y))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_matrix(bench_matrix(GFP_VERIFY, args.seed, P)))

        def verify():
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli_main(["verify", path])
            if code or "FAIL" in text.getvalue():
                sys.exit("verify did not pass every check")

        case("gfp", "verify", GFP_VERIFY, verify)

    rng = random.Random(args.seed)
    inputs = {}
    for n in QQ_DECOMPOSE:
        X, Y = (DenseMatrix(QQ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
                for _ in range(2))
        A = inputs[n] = mat_mul_classical(X, Y)
        case("qq", "decompose", n, lambda: leu_decompose(A),
             lambda res: {"rank": res.rank, "max_entry_bits": _max_entry_bits(res.L, res.U)})
    for n in QQ_INVERSE:
        case("qq", "inverse", n, lambda: mat_inverse(inputs[n]),
             lambda X: {"max_entry_bits": _max_entry_bits(X)})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
