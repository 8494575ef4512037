#!/usr/bin/env python3
"""Quick self-test of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

It checks, for every workload in BENCHMARK.json and for cold_suite
(which run.py accepts but BENCHMARK.json does not list), once briefly
with --trace 0 and once with --trace 1:
  - the command exits 0 and its last stdout line parses as the result
    JSON, with exactly the keys correct/attempted/failed/metrics;
  - every end-to-end (or per-layer) metric is printed, by name, with the
    unit BENCHMARK.json declares, and nothing else;
  - the gate passed (correct, no failed jobs);
  - in the traced run's Chrome-trace file, the spans' self times on each
    thread sum to no more than that thread's wall time.
It also checks that the cold_suite rows digest equals the FNV-1a of
`vgiw_run --suite --json` output, and that the benchmark exits non-zero
without a result in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits 1 on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
EXTRA_WORKLOADS = ("cold_suite",)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, spec):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"{workload} trace {trace}: last line is not JSON ({e})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} trace {trace}: gate failed: {lines[-1]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted {result['attempted']}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace {trace}: metric names differ: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"] or not isinstance(
                v.get("value"), (int, float)):
            fail(f"{workload}: metric {m['name']} printed as {v}")
    print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} jobs")
    return p.stdout


def check_spans(workload):
    path = os.path.join(BUILD, f"perfbench-{workload}.trace.json")
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        fail(f"{path}: no spans")
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, spans in by_tid.items():
        self_us = [s["dur"] for s in spans]
        for s in spans:
            parent = s["args"]["parent"]
            if parent >= 0:
                self_us[parent] -= s["dur"]
        wall = (max(s["ts"] + s["dur"] for s in spans) -
                min(s["ts"] for s in spans))
        # Timestamps are printed to 1 ns; allow that rounding.
        if sum(self_us) > wall + 1e-3 * len(spans):
            fail(f"{path}: thread {tid} self {sum(self_us):.3f} us "
                 f"exceeds wall {wall:.3f} us")
    print(f"ok  {workload} spans: {len(events)} spans on "
          f"{len(by_tid)} threads, self <= wall on each")


def fnv1a(data):
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def check_digest(cold_stdout):
    digests = set(re.findall(r"rows digest ([0-9a-f]{16})", cold_stdout))
    if len(digests) != 1:
        fail(f"cold_suite printed digests {digests}")
    subprocess.run(["cmake", "--build", BUILD, "--target", "vgiw_run"],
                   check=True, capture_output=True)
    out = os.path.join(BUILD, "selftest-suite.jsonl")
    subprocess.run([os.path.join(BUILD, "vgiw", "tools", "vgiw_run"),
                    "--suite", "--json", out], check=True,
                   capture_output=True)
    with open(out, "rb") as f:
        want = "%016x" % fnv1a(f.read())
    os.remove(out)
    if digests != {want}:
        fail(f"cold_suite digest {digests} != vgiw_run --suite {want}")
    print(f"ok  cold_suite digest {want} matches vgiw_run --suite")


def check_bare_dir(spec):
    bare = os.path.abspath(os.path.join(BUILD, "selftest-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run(spec["command"] + ["--workload",
                                          spec["workloads"][0]["name"],
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, env=env,
                       timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        fail("benchmark produced a result without the repository")
    print(f"ok  without the repository: exit {p.returncode}, no result")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    for name in names + [n for n in EXTRA_WORKLOADS if n not in names]:
        out = run(name, 0, spec)
        if name == "cold_suite":
            check_digest(out)
        run(name, 1, spec)
        check_spans(name)
    check_bare_dir(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
