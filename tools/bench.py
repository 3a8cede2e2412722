"""Wall time of leu over GF(65521) and over the rationals, as one JSON object.

``gfp`` times ``leu_decompose`` on ``cli.bench_matrix(n, seed, 65521)``, the
``bench`` command's full-rank matrices, at n = 16, 32, 33, 40, 64, 128, 256
(``decompose``, with the rank and the model multiplication count; at n = 16
and 32 the nodes of n <= 4 take a larger share of an op than at n >= 64, and
n = 33 and 40 run the recursion of the 64 x 64 square on their own rows and
columns),
``leu_decompose`` at n = 128 and 256 on a seeded full-rank L0 * P * U0, with
L0 random lower triangular with a nonzero diagonal, P a random permutation
and U0 random unit upper triangular (``profile``, with the rank and the
count: the paper's general case, where the leading blocks are singular and
the middle recursions of a node do real work, against the bench matrices'
generic ranks), ``mat_rank``, which reads E alone, on the bench matrices at
n = 64 and 128, on a seeded 40 x 1500 matrix of residues, whose nodes are
mostly zero blocks, and on a seeded 3000 x 1 column, whose U is [[1]] at
every node (``rank``, with the rank and the count), ``bruhat_decompose`` on
the bench matrices at n = 64 and 128 (``bruhat``, the decomposition and its
two triangular inverses, with the counts), one
``mat_mul_classical`` product of two seeded h x h matrices of residues at
h = 8 to 256, and at 33 and 40 (``product``), and one in-process ``leu
verify`` on the n = 40 bench matrix (``verify``), failing if a run reports a
failed check.  Each ``decompose`` and ``profile`` row also reports
``over_product``, its median over the median of the product of its order:
the paper's claim that the decomposition costs as much as a product, in wall
time (the model's count gives 17(n^3 - n^2)/4n^3, about 4.2, at full rank).
``qq`` times ``leu_decompose`` at
n = 16 to 64 (``decompose``, with the rank), ``mat_inverse`` at n = 16, 32,
48, 64 and 128 (``inverse``) and ``bruhat_decompose`` at n = 32 (``bruhat``,
the path of the two triangular inverses) on one seeded full-rank integer
matrix per size, the product of two random n x n matrices with entries in
[-9, 9] (the rational inputs of acceptance criterion 1), each with the
largest bit length of an entry of its result, ``mat_rank`` on the n = 32 one
(``rank``, with the rank and the count), and one ``mat_mul_classical``
product of two seeded h x h integer matrices with entries in [-9, 9] at
h = 8 to 64 (``product``).
``start`` times a fresh interpreter, the way every CLI command runs, on
``import leu`` (``import``) and on ``python -m leu.cli rank`` of the n = 40
bench matrix (``rank``, with the rank), with the package tree as its path
and ``PYTHONDONTWRITEBYTECODE=1``; ``pycache`` says whether each tree held
bytecode that the children read.
Every case is timed REPEAT times after one untimed warm-up, and reported as
the median and quartiles.  Ranks, counts and entry bits are what no speed-up
may change.

    python tools/bench.py [--src DIR] [--against DIR] [--repeat 5] [--seed 1]

``--src`` is the directory that holds the ``leu`` package to time (default:
``src`` next to this script).  ``--against DIR`` times a second package tree
in the same process, alternating the two case by case and, within a case,
round by round, each side first in every other round, so that drift of the
host's speed lands on both sides alike.  Each case then reports both sides'
median, quartiles and facts, the median over rounds of the ``--src`` time
over the ``--against`` time (``ratio_median``), and the number of rounds in
which ``--src`` was faster (``rounds_won``); it fails if the two trees'
facts differ.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

P = 65521
GFP_DECOMPOSE = (16, 32, 33, 40, 64, 128, 256)
GFP_PROFILE = (128, 256)
GFP_RANK = (64, 128)
GFP_RANK_SHAPES = ((40, 1500), (3000, 1))
GFP_BRUHAT = (64, 128)
GFP_PRODUCT = (8, 16, 32, 33, 40, 64, 128, 256)
GFP_VERIFY = 40
QQ_DECOMPOSE = (16, 32, 48, 64)
QQ_RANK = (32,)
QQ_INVERSE = (16, 32, 48, 64, 128)
QQ_BRUHAT = (32,)
QQ_PRODUCT = (8, 16, 32, 64)


def _package(src, name):
    # the leu package under src, imported as the module name, so that two
    # trees can be loaded side by side
    init = os.path.join(os.path.abspath(src), "leu", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"no leu package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def _spread(times):
    q = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "median_s": float(f"{statistics.median(times):.4g}"),
        "q1_s": float(f"{q[0]:.4g}"),
        "q3_s": float(f"{q[2]:.4g}"),
    }


def _time(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def _max_entry_bits(*mats):
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for M in mats
        for row in M._d
        for v in row
    )


def _profiled(leu, n, rng):
    # a full-rank L0 * P * U0 over GF(P): P * U0 is U0 with its rows shuffled
    lo = [[rng.randrange(1, P) if j == i else rng.randrange(P) if j < i else 0 for j in range(n)]
          for i in range(n)]
    up = [[1 if j == i else rng.randrange(P) if j > i else 0 for j in range(n)] for i in range(n)]
    rng.shuffle(up)
    F = leu.GF(P)
    return leu.mat_mul_classical(leu.DenseMatrix(F, lo), leu.DenseMatrix(F, up))


def _cases(leu, seed, tmp):
    """(part, section, key, run, facts) for every case, on one leu package:
    run times one op, facts reads what no speed-up may change off its result."""
    GF, QQ, DenseMatrix = leu.GF, leu.QQ, leu.DenseMatrix
    mat_mul_classical = leu.mat_mul_classical
    cli = importlib.import_module(leu.__name__ + ".cli")
    textio = importlib.import_module(leu.__name__ + ".textio")
    out = []

    def case(part, section, key, run, facts=lambda res: {}):
        out.append((part, section, str(key), run, facts))

    def counts(res):
        return {"rank": res.rank, "scalar_mults": res.counter.scalar_mults}

    def rank(A):
        c = leu.MulCounter()
        return {"rank": leu.mat_rank(A, c), "scalar_mults": c.scalar_mults}

    for n in GFP_DECOMPOSE:
        A = cli.bench_matrix(n, seed, P)
        case("gfp", "decompose", n, lambda A=A: leu.leu_decompose(A), counts)
    rng = random.Random(seed)
    for n in GFP_PROFILE:
        case("gfp", "profile", n, lambda A=_profiled(leu, n, rng): leu.leu_decompose(A), counts)
    for n in GFP_RANK:
        case("gfp", "rank", n, lambda A=cli.bench_matrix(n, seed, P): rank(A), dict)
    for rows, cols in GFP_RANK_SHAPES:
        rng = random.Random(seed)
        A = DenseMatrix(GF(P), [[rng.randrange(P) for _ in range(cols)] for _ in range(rows)])
        case("gfp", "rank", f"{rows}x{cols}", lambda A=A: rank(A), dict)

    def bruhat(A):
        c = leu.MulCounter()
        leu.bruhat_decompose(A, c)
        return {"scalar_mults": c.scalar_mults, "scalar_invs": c.scalar_invs}

    for n in GFP_BRUHAT:
        case("gfp", "bruhat", n, lambda A=cli.bench_matrix(n, seed, P): bruhat(A), dict)
    rng = random.Random(seed)
    for h in GFP_PRODUCT:
        X, Y = (DenseMatrix(GF(P), [[rng.randrange(P) for _ in range(h)] for _ in range(h)])
                for _ in range(2))
        case("gfp", "product", h, lambda X=X, Y=Y: mat_mul_classical(X, Y))
    path = os.path.join(tmp, f"verify-{leu.__name__}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(textio.format_matrix(cli.bench_matrix(GFP_VERIFY, seed, P)))

    def verify():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["verify", path])
        if code or "FAIL" in text.getvalue():
            sys.exit("verify did not pass every check")

    case("gfp", "verify", GFP_VERIFY, verify)

    tree = os.path.dirname(os.path.dirname(os.path.abspath(leu.__file__)))
    env = {**os.environ, "PYTHONPATH": tree, "PYTHONDONTWRITEBYTECODE": "1"}

    def fresh(*argv):
        res = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True, text=True)
        if res.returncode:
            sys.exit(f"a fresh {' '.join(argv)} failed: {res.stderr.strip()}")
        return res.stdout

    case("start", "import", "leu", lambda: fresh("-c", "import leu"))
    case("start", "rank", GFP_VERIFY, lambda: fresh("-m", "leu.cli", "rank", path),
         lambda stdout: {"rank": int(stdout.split()[1])})

    rng = random.Random(seed)
    inputs = {}
    for n in QQ_DECOMPOSE:
        X, Y = (DenseMatrix(QQ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
                for _ in range(2))
        A = inputs[n] = mat_mul_classical(X, Y)
        case("qq", "decompose", n, lambda A=A: leu.leu_decompose(A),
             lambda res: {"rank": res.rank, "max_entry_bits": _max_entry_bits(res.L, res.U)})
    for n in QQ_RANK:
        case("qq", "rank", n, lambda A=inputs[n]: rank(A), dict)
    for n in QQ_INVERSE:
        if n not in inputs:
            X, Y = (DenseMatrix(QQ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
                    for _ in range(2))
            inputs[n] = mat_mul_classical(X, Y)
        case("qq", "inverse", n, lambda A=inputs[n]: leu.mat_inverse(A),
             lambda X: {"max_entry_bits": _max_entry_bits(X)})
    for n in QQ_BRUHAT:
        case("qq", "bruhat", n, lambda A=inputs[n]: leu.bruhat_decompose(A),
             lambda res: {"v1_max_entry_bits": _max_entry_bits(res.V1),
                          "v2_max_entry_bits": _max_entry_bits(res.V2)})
    rng = random.Random(seed)
    for h in QQ_PRODUCT:
        X, Y = (DenseMatrix(QQ, [[rng.randint(-9, 9) for _ in range(h)] for _ in range(h)])
                for _ in range(2))
        case("qq", "product", h, lambda X=X, Y=Y: mat_mul_classical(X, Y),
             lambda Z: {"max_entry_bits": _max_entry_bits(Z)})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(here, "..", "src"))
    ap.add_argument("--against", metavar="DIR")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.repeat < 2:
        ap.error("--repeat must be at least 2 for quartiles")
    # the start part times a source tree as found: this process writes no
    # bytecode into it, and the JSON says whether it held any
    sys.dont_write_bytecode = True
    leu = _package(args.src, "leu")

    out = {
        "python": platform.python_version(),
        "repeat": args.repeat,
        "seed": args.seed,
        "gfp": {"p": P, "decompose": {}, "profile": {}, "rank": {}, "bruhat": {}, "product": {},
                "verify": {}},
        "qq": {"decompose": {}, "rank": {}, "inverse": {}, "bruhat": {}, "product": {}},
        "start": {"pycache": {side: os.path.isdir(os.path.join(tree, "leu", "__pycache__"))
                              for side, tree in (("src", args.src), ("against", args.against)) if tree},
                  "import": {}, "rank": {}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"src": _cases(leu, args.seed, tmp)}
        if args.against is not None:
            sides["against"] = _cases(_package(args.against, "leu_against"), args.seed, tmp)
        for rows in zip(*sides.values()):
            part, section, key = rows[0][:3]
            runs = [run for *_, run, _ in rows]
            facts = [read(run()) for *_, run, read in rows]
            if any(f != facts[0] for f in facts):
                sys.exit(f"{part} {section} {key}: the facts differ between the trees")
            times = [[] for _ in rows]
            for i in range(args.repeat):
                for j in range(len(rows)) if i % 2 == 0 else reversed(range(len(rows))):
                    times[j].append(_time(runs[j]))
            cells = [{**_spread(t), **f} for t, f in zip(times, facts)]
            if len(rows) == 1:
                row = cells[0]
                line = f"median {row['median_s']:.4g} s"
            else:
                ratios = [a / b for a, b in zip(*times)]
                row = dict(zip(sides, cells))
                row["ratio_median"] = float(f"{statistics.median(ratios):.4g}")
                row["rounds_won"] = sum(r < 1 for r in ratios)
                line = f"src/against {row['ratio_median']:.3g}, won {row['rounds_won']}/{args.repeat}"
            out[part][section][key] = row
            print(f"{part} {section} {key}: {line}", file=sys.stderr)
    # the paper's claim in wall time: a decomposition over one product of its order
    for section in ("decompose", "profile"):
        for key, row in out["gfp"][section].items():
            prod = out["gfp"]["product"][key]
            for cell, base in [(row, prod)] if len(sides) == 1 else [(row[s], prod[s]) for s in sides]:
                cell["over_product"] = float(f"{cell['median_s'] / base['median_s']:.4g}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
