"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json at the tiny scale, untraced and
traced, through the command that BENCHMARK.json names, and checks the
result line: its keys, the metric names and units, and that ``attempted``
and ``failed`` are whole passes of the workload's operations with only its
known failures failing.  Then it copies the benchmark alone into an empty
directory and checks that a run there fails without printing a result.

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

TIMEOUT_S = 600


def run(spec, cwd, workload, trace):
    argv = list(spec["command"]) + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                    "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_line(done):
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        line = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return line if isinstance(line, dict) else None


def check_run(spec, name, trace, done):
    problems = []
    line = result_line(done)
    if done.returncode != 0 or line is None:
        return [f"exit {done.returncode}, no result line:\n{done.stderr[-2000:]}"]
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if line.get("correct") is not True:
        problems.append(f"correct is {line.get('correct')!r}:\n{done.stderr[-2000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = line.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metrics missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for metric, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != want.get(metric):
            problems.append(f"{metric}: unit {entry.get('unit')!r}, want {want.get(metric)!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{metric}: value {value!r}")
    workload = WORKLOADS[name]("tiny", 7, None)
    per_pass = len(workload.plan())
    attempted, failed = line.get("attempted"), line.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        problems.append(f"attempted {attempted!r}, failed {failed!r}")
    elif attempted % per_pass:
        problems.append(f"attempted {attempted} is not whole passes of {per_pass}")
    elif failed != attempted // per_pass * len(workload.known_failures):
        problems.append(f"failed {failed} of {attempted}; expected only "
                        f"{list(workload.known_failures)} to fail")
    return problems


def bare_run(spec):
    """The benchmark without the program must fail and print no result."""
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench" / path.name)
    try:
        done = run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result_line(done) is not None:
        return [f"exit {done.returncode} with output {done.stdout[-300:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"FAIL workloads in BENCHMARK.json {names} != {sorted(WORKLOADS)}")
        failures += 1
    for name in names:
        for trace in (0, 1):
            problems = check_run(spec, name, trace, run(spec, ROOT, name, trace))
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    problems = bare_run(spec)
    print(f"{'FAIL' if problems else 'ok  '} run without the program fails")
    for problem in problems:
        print(f"     {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
