"""Self-test of the benchmark itself (not of lietrip).

    python3 perfbench/selftest.py [--workload cli]

Checks, on one short run per case:
  * a deliberately wrong reference digest raises ``failed`` and clears
    ``correct``;
  * every metric printed has the name and unit listed in BENCHMARK.json
    (end_to_end for --trace 0, per_layer for --trace 1);
  * two traced runs give identical counts;
  * trace.coverage of the thm-a job on A(sl2lts) is at least 0.9;
  * in a directory holding only BENCHMARK.json and the benchmark, the run
    exits nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
COUNT_UNITS = ("count", "bytes")


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok: bool, what: str, problems: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="cli")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list = []

    plain = result(bench(args.workload, 0))
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in plain["metrics"].items()}
    check(got == want, "--trace 0 prints exactly the end_to_end metrics and units", problems)

    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    victim = sorted(refs[args.workload])[0]
    refs[args.workload][victim] = "0" * 64
    os.makedirs(OUT, exist_ok=True)
    bad_path = os.path.join(OUT, "wrong-references.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    wrong = result(bench(args.workload, 0, "--references", bad_path))
    check(wrong["failed"] > plain["failed"] and not wrong["correct"] and plain["correct"],
          f"a wrong digest for {victim!r} raises failed "
          f"({plain['failed']} -> {wrong['failed']}) and clears correct", problems)

    traced = [result(bench(args.workload, 1)) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
    check(got == want, "--trace 1 prints exactly the per_layer metrics and units", problems)
    counts = [{k: v["value"] for k, v in t["metrics"].items()
               if v["unit"] in COUNT_UNITS or k.endswith(("useful_ratio", "nnz_ratio"))}
              for t in traced]
    diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    check(not diff, f"two traced runs give identical counts ({len(counts[0])} compared)"
          + (f"; differ: {diff}" if diff else ""), problems)
    cov = traced[0]["metrics"]["trace.coverage_thm_a_sl2lts"]["value"]
    check(cov >= 0.9, f"trace coverage of thm-a on A(sl2lts) is {cov:.3f} (>= 0.9)", problems)

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(args.workload, 0, cwd=bare)
    printed = any(ln.startswith('{"correct"') for ln in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed,
          f"without the library the run exits {proc.returncode} and prints no result", problems)
    shutil.rmtree(bare)

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
