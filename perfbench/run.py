"""Benchmark of the leu library: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

NAME is one of gfp-leu-128, qq-inverse-32, cli-mix (see README.md).  The
library is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2.  One caller drives the library through
its public entry points in this process and thread, with ``parallel=False``,
each operation starting when the previous one has returned.

--trace 0 times operations untraced and reports the end-to-end metrics.
--trace 1 runs some operations untraced and then the rest under the layer
trace (layertrace.py), and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  ``--workload all`` runs each workload in a fresh process and
prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from operator import mul
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LEU_DIR = os.path.join(SRC, "leu")

SETUP_SAMPLES = 5  # set-ups per trace-0 run: four fresh interpreters and this one
UNTRACED_SHARE = 1 / 3  # of --seconds, spent untraced in a trace-1 run
CHILD_TIMEOUT = 170
HASH_SEED = "0"

# Seconds the calibration loop takes at the reference speed: its median on
# the 2-core host the benchmark was tuned on.
CALIB_REF_S = 0.008
_CALIB_RNG = random.Random(0)
_CALIB_M = [[_CALIB_RNG.randrange(65521) for _ in range(24)] for _ in range(24)]

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def calibrate():
    """Seconds a fixed pure-Python loop takes now.

    The host's CPU speed drifts by up to a quarter within tens of seconds,
    and slows this loop and leu alike.  Timed values are scaled by
    CALIB_REF_S over the loop's time measured next to them.
    """
    t = perf_counter()
    for _ in range(6):
        cols = list(zip(*_CALIB_M))
        prod = [[sum(map(mul, r, c)) % 65521 for c in cols] for r in _CALIB_M]
        odd = {i: [v for v in row if v & 1] for i, row in enumerate(prod)}  # noqa: F841
    return perf_counter() - t


def facts():
    """Machine facts that decide whether two results may be compared."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "numpy": numpy,
    }


def setup(name, seed, workdir):
    """Import leu, make the inputs, run one untimed warm-up op.

    Returns (set-up seconds at the reference speed, raw set-up seconds,
    workload, ops, warm-up result).  Set-up counts the import and the
    warm-up, not the input generation.
    """
    wl_cls = WORKLOADS[name]
    c0 = calibrate()
    t0 = perf_counter()
    for mod in wl_cls.imports:
        importlib.import_module(mod)
    t1 = perf_counter()
    if os.path.dirname(os.path.abspath(sys.modules["leu"].__file__)) != LEU_DIR:
        raise SystemExit(f"leu was imported from {sys.modules['leu'].__file__}, not {LEU_DIR}")
    wl = wl_cls(seed, workdir)
    ops = wl.ops()
    gc.collect()
    t2 = perf_counter()
    warm = ops[0]()
    t3 = perf_counter()
    raw = (t1 - t0) + (t3 - t2)
    return raw * 2 * CALIB_REF_S / (c0 + calibrate()), raw, wl, ops, warm


class Runner:
    """Runs whole passes of a workload's ops and keeps every output check."""

    def __init__(self, wl, ops, warm):
        self.wl = wl
        self.ops = ops
        self.ref = {0: self._reduce(0, warm)}  # op index -> (digest, mults, invs)
        self.attempted = 0
        self.failed = 0
        self.mults = 0
        self.invs = 0
        self.raw = []  # wall seconds of every timed op
        self._calib = calibrate()

    def _reduce(self, i, result):
        out, mults, invs = result
        return self.wl.digest(i, out), mults, invs

    def one_pass(self, call=None):
        """Run every op once; returns their times at the reference speed."""
        times = []
        for i, op in enumerate(self.ops):
            gc.collect()
            self.attempted += 1
            try:
                t0 = perf_counter()
                result = call(op) if call else op()
                raw = perf_counter() - t0
            except Exception as exc:  # an op that raises counts as failed
                print(f"op {i} raised {exc!r}", file=sys.stderr)
                self.failed += 1
                continue
            calib = calibrate()
            times.append(raw * 2 * CALIB_REF_S / (self._calib + calib))
            self.raw.append(raw)
            self._calib = calib
            got = self._reduce(i, result)
            ref = self.ref.setdefault(i, got)
            if got != ref:
                print(f"op {i}: output differs from an earlier run of the same input",
                      file=sys.stderr)
                self.failed += 1
            self.mults += got[1] or 0
            self.invs += got[2] or 0
        return times

    def run_for(self, seconds, call=None):
        """Whole passes until `seconds` of wall time have passed (at least one)."""
        times = []
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            times += self.one_pass(call)
        return times

    def check(self):
        """Checks every distinct output once; adds a failure per op that produced it."""
        runs = self.attempted // len(self.ops)
        for i, (digest, mults, invs) in sorted(self.ref.items()):
            bad = self.wl.failures(i, digest, mults, invs)
            if bad:
                print(f"op {i} ({self.wl.name}) failed: {'; '.join(bad)}", file=sys.stderr)
                self.failed += runs


def setup_probe(name, seed):
    """Set-up time of one fresh interpreter: (reference-speed, raw) seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if res.returncode != 0:
        raise SystemExit(f"set-up probe failed: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def run_untraced(args, workdir):
    samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    *setup_s, wl, ops, warm = setup(args.workload, args.seed, workdir)
    samples.append(setup_s)
    runner = Runner(wl, ops, warm)
    times = runner.run_for(args.seconds)
    runner.check()
    metrics = {
        "setup_s": statistics.median(s for s, _ in samples),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # op_p90_s has ten samples beyond it only on cli-mix, so it is not a
    # declared metric, which every workload must report
    print(json.dumps({
        "workload": args.workload, "ops": len(times),
        "fail_frac": runner.failed / runner.attempted,
        "op_p90_s": p90(times),
        "raw_wall": {"setup_s": statistics.median(r for _, r in samples),
                     "op_p50_s": statistics.median(runner.raw),
                     "op_p90_s": p90(runner.raw)},
    }))
    return runner, metrics


def run_traced(args, workdir):
    """Untraced ops, one pass under the call counter, then sampled ops."""
    from layertrace import BENCH, LAYERS, CallCounts, Layers, Sampler

    *_, wl, ops, warm = setup(args.workload, args.seed, workdir)
    runner = Runner(wl, ops, warm)
    start = perf_counter()
    plain = runner.run_for(args.seconds * UNTRACED_SHARE)

    layers = Layers(LEU_DIR)
    counts = CallCounts(layers)
    runner.mults = runner.invs = 0
    before = runner.attempted
    runner.one_pass(counts.call)
    n_count = runner.attempted - before
    mults, invs = runner.mults, runner.invs

    sampler = Sampler(layers)
    before = runner.attempted
    sampled = runner.run_for(max(0.0, args.seconds - (perf_counter() - start)), sampler.call)
    n = runner.attempted - before
    runner.check()

    speed = sum(sampled) / sum(runner.raw[-len(sampled):])  # to the reference speed

    def t(layer=None, bucket=None, span=None):
        return sampler.seconds(layer, bucket, span) * speed

    m = {f"{layer}.self_s": t(layer) / n for layer in LAYERS}
    m.update({
        "dense.self_s.h_le_8": t("dense", "h_le_8") / n,
        "dense.self_s.h_ge_16": t("dense", "h_ge_16") / n,
        "derived.tri_inv_s": t(span="tri_inv") / n,
        "derived.final_product_s": t(span="final_product") / n,
        "textio.parse_s": t(span="parse") / n,
        "textio.format_s": t(span="format") / n,
        "oracle.s": t(span="oracle") / n,
        "trace.unattributed_s": (t(BENCH) + sampler.handler_s * speed) / n,
        "trace.overhead_frac": (sum(sampled) / len(sampled)) / (sum(plain) / len(plain)) - 1,
        "dense.calls": counts.calls["dense"] / n_count,
        "decompose.calls": counts.calls["decompose"] / n_count,
        "fields.calls": counts.calls["fields"] / n_count,
        "decompose.nodes": counts.nodes / n_count,
        "dense.model_mults": mults / n_count,
        "fields.scalar_invs": invs / n_count,
        "dense.performed_mults": counts.performed_mults / n_count,
        "dense.zero_operand_frac": counts.zero_products / counts.products if counts.products else 0.0,
        "fields.max_entry_bits": counts.max_entry_bits,
    })
    print(layer_table(args.workload, sampler, counts, n, n_count, speed))
    return runner, m


def layer_table(name, sampler, counts, n, n_count, speed):
    """Self time per op at the reference speed, share of the sampled wall, calls per op."""
    from layertrace import BENCH, LAYERS

    wall = sampler.wall_s
    rows = [f"layer-by-layer, {name}: {n} sampled ops, {wall * speed / n:.4f} s per op, "
            f"{sum(sampler.samples.values())} samples; calls from {n_count} counted ops"]
    rows.append(f"  {'layer':<11}{'self s/op':>11}{'share':>8}{'calls/op':>11}")
    for layer in sorted(LAYERS + (BENCH,), key=lambda lay: -sampler.seconds(lay)):
        s = sampler.seconds(layer)
        rows.append(f"  {layer:<11}{s * speed / n:>11.5f}{s / wall:>8.1%}"
                    f"{counts.calls[layer] / n_count:>11.0f}")
    h = sampler.handler_s
    rows.append(f"  {'sampler':<11}{h * speed / n:>11.5f}{h / wall:>8.1%}")
    return "\n".join(rows)


def run_all(args):
    """Each workload in a fresh process; prints every metric with its unit."""
    out = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        lines = res.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not lines:
            raise SystemExit(f"{name}: exit {res.returncode}")
        out[name] = json.loads(lines[-1])
    for name, r in out.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"fail_frac={r['failed'] / r['attempted']:.4f}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:<26}{v['value']:>16.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in out.values()),
        "attempted": sum(r["attempted"] for r in out.values()),
        "failed": sum(r["failed"] for r in out.values()),
        "metrics": {f"{w}.{k}": v for w, r in out.items() for k, v in r["metrics"].items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(LEU_DIR, "__init__.py")):
        print(f"error: no leu sources at {LEU_DIR}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashing is salted per process, and the salt alone moved the
        # median op time of qq-inverse-32 by several percent between runs
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, SRC)
    if args.workload == "all":
        run_all(args)
        return 0

    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.probe_setup:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[:2]}))
            return 0
        print(json.dumps({"facts": facts()}))
        runner, metrics = (run_traced if args.trace else run_untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
