"""Smoke check of the benchmark itself; takes about three minutes.

    python3 perfbench/smoke.py

Runs every workload briefly with --trace 0 and --trace 1 and checks the
result line against BENCHMARK.json: exactly the keys correct, attempted,
failed and metrics; every declared metric with its declared unit; no
failures.  Runs the traced gfp-leu-128 workload under a second seed and
checks that its exact counts repeat.  Finally copies BENCHMARK.json and
this directory, without the library, into a scratch directory and checks
that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("dense.model_mults", "dense.calls", "decompose.nodes", "dense.zero_operand_frac")


def run(root, *args):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result(workload, seed, trace, declared):
    res = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", str(trace))
    assert res.returncode == 0, f"{workload} trace {trace}: exit {res.returncode}\n{res.stderr}"
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, (last, res.stderr)
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    assert got == want, (workload, trace, got, want)
    print(f"ok  {workload} trace {trace}: {last['attempted']} ops")
    return {k: v["value"] for k, v in last["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    traced = {}
    for w in declared["workloads"]:
        for trace in (0, 1):
            m = result(w["name"], 1, trace, declared)
            if trace:
                traced[w["name"]] = m
    again = result("gfp-leu-128", 2, 1, declared)
    for k in EXACT:
        assert again[k] == traced["gfp-leu-128"][k], (k, again[k], traced["gfp-leu-128"][k])
    assert again["dense.model_mults"] == 8843264, again["dense.model_mults"]
    print("ok  exact counts repeat under another seed")

    bare = os.path.join(HERE, "_work", "smoke")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        res = run(bare, "--workload", "gfp-leu-128", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert res.returncode != 0, "ran without the library"
        print(f"ok  refuses to run without src/leu (exit {res.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
