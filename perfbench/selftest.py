#!/usr/bin/env python3
"""Self-test of the repo benchmark's output contract (perfbench/README.md).

Runs the benchmark command from BENCHMARK.json for every workload (and the
ungated serve-miss), untraced and traced, with short runs, and checks that

  * the last line of stdout is one JSON object with exactly the keys
    correct, attempted, failed and metrics, the run is correct and the
    counts are whole numbers;
  * an untraced run prints every end_to_end metric of BENCHMARK.json and a
    traced run every per_layer metric, each with its declared unit;
  * in a traced run the `<layer>.share` metrics plus `unattributed.share`
    sum to 100% within SHARE_TOLERANCE percentage points;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the command exits non-zero without printing a result.

Run from the repository root:  python3 perfbench/selftest.py
(about three minutes).
"""

import json
import math
import os
import shutil
import subprocess
import sys

SHARE_TOLERANCE = 0.01  # percentage points
SEED = "7"
SECONDS = "2"  # measured phase of each run
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Runnable and checked like the declared workloads, but not gated.
UNGATED_WORKLOADS = ["serve-miss"]


def last_json_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_result(result, declared, label, errors):
    if result is None:
        errors.append(f"{label}: last line is not a JSON object")
        return
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: keys {sorted(result)}")
        return
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{label}: {key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append(f"{label}: attempted < 1")
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} has value {value!r}")
        if metric.get("unit") != unit:
            errors.append(
                f"{label}: {name} unit {metric.get('unit')!r}, "
                f"declared {unit!r}")


def check_shares(result, label, errors):
    if result is None:
        return
    shares = {k: v["value"] for k, v in result["metrics"].items()
              if k.endswith(".share")}
    if "unattributed.share" not in shares:
        errors.append(f"{label}: no unattributed.share")
        return
    total = sum(shares.values())
    if abs(total - 100.0) > SHARE_TOLERANCE:
        errors.append(f"{label}: shares sum to {total:.4f}%")
    else:
        print(f"  {label}: {len(shares)} shares sum to {total:.6f}%")


def run(command, cwd, args, timeout):
    return subprocess.run(command + args, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = spec["command"]
    errors = []

    workloads = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    for workload in workloads:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            print(f"running {label}", flush=True)
            done = run(command, root,
                       ["--workload", workload, "--seed", SEED,
                        "--seconds", SECONDS, "--trace", trace],
                       timeout=900)
            if done.returncode != 0:
                errors.append(f"{label}: exit code {done.returncode}")
            result = last_json_line(done.stdout)
            declared = spec["end_to_end" if trace == "0" else "per_layer"]
            check_result(result, declared, label, errors)
            if trace == "1":
                check_shares(result, label, errors)

    # The benchmark alone, without the sources it builds, must fail cleanly.
    bare = os.path.join(root, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path))
    print("running in a directory without the sources", flush=True)
    done = run(command, bare,
               ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], timeout=180)
    if done.returncode == 0:
        errors.append("bare directory: exit code 0")
    if last_json_line(done.stdout) is not None:
        errors.append("bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print("FAIL:", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
