#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of the repository:

    python3 perfbench/test_smoke.py

1. A short run of each workload, untraced and traced, prints a result
   line with exactly the metric names and units BENCHMARK.json lists,
   correct and with no failed operation.
2. The same run with a torn or a backwards final write comes out
   incorrect with failed > 0: the correctness checks are load-bearing.
3. The OCaml checks (dune alias perfbench/test/bench-test): observer and
   consistent-cut unit checks, the injected failures on every workload,
   and the traced RMW counts against the paper's accounting.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def run(workload, trace, inject=None):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    host = [l for l in lines if l.startswith("host: nproc=")]
    assert host, f"{cmd}: no host fingerprint line"
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(name, ok):
        print(("ok   " if ok else "FAIL ") + name, flush=True)
        if not ok:
            failures.append(name)

    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            r = run(name, trace)
            check(f"{name} trace={trace}: result keys",
                  sorted(r) == ["attempted", "correct", "failed", "metrics"])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(f"{name} trace={trace}: names and units match BENCHMARK.json",
                  got == expected[trace])
            check(f"{name} trace={trace}: correct, nothing failed",
                  r["correct"] is True and r["failed"] == 0
                  and r["attempted"] >= 1)
        for inject in ("torn", "backwards"):
            r = run(name, 0, inject)
            check(f"{name}: injected {inject} final write fails the run",
                  r["correct"] is False and r["failed"] > 0)

    ocaml = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", ".bench_build",
         "--profile", "release", "@perfbench/test/bench-test"],
        cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
        capture_output=True, text=True, timeout=600)
    print(ocaml.stdout + ocaml.stderr, end="")
    check("OCaml checks (perfbench/test)", ocaml.returncode == 0)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
