#!/usr/bin/env python3
"""Smoke test of the benchmark harness, run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json on tiny inputs (`--smoke 1`), traced
and untraced, and checks that the result line has the shape the benchmark
promises: the four keys, every end-to-end or per-layer metric with its unit,
finite values, and no failed operation. Also checks that the harness refuses
to run without the program's sources.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", "1"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


def check_result(spec, workload, trace, res):
    assert res.returncode == 0, f"{workload} trace={trace}: exit {res.returncode}\n{res.stderr[-3000:]}"
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] is True and out["failed"] == 0, out
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, out
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in want}, set(out["metrics"]) ^ {m["name"] for m in want}
    for m in want:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, name, trace, run(name, trace))
            print(f"ok {name} trace={trace}")

    # Without the program's sources the harness must fail and print no result.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", spec["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        assert res.returncode != 0 and res.stdout == "", (res.returncode, res.stdout)
        print("ok refuses to run without program sources")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    main()
