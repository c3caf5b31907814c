"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at tiny size (one job per command, one pass), untraced
and traced, and checks that the printed result names exactly the metrics and
units of BENCHMARK.json.  Then runs each workload once more with one wrong
expectation injected and checks that it is counted as a failed job: the run
still exits 0 and prints its metrics, with `failed` >= 1 and `correct` false.
Exits 1 and lists the problems if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("groups", "points", "cli-corpus")


def run(workload, trace, *extra):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError) as exc:
        return None, f"last line is not a result: {exc}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            case = f"{workload} trace={trace}"
            result, error = run(workload, trace)
            if error:
                problems.append(f"{case}: {error}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{case}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{case}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{case}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {[(k, u) for k, u in got.items() if wanted[trace].get(k) not in (None, u)]}")
            print(f"ok   {case}" if not problems or not problems[-1].startswith(case)
                  else f"FAIL {case}", flush=True)
        case = f"{workload} injected wrong expectation"
        result, error = run(workload, 0, "--inject-wrong-expectation")
        if error:
            problems.append(f"{case}: {error}")
        elif result["failed"] < 1 or result["correct"] or set(result["metrics"]) != set(wanted[0]):
            problems.append(f"{case}: failed={result['failed']} correct={result['correct']}")
        else:
            print(f"ok   {case}: failed_ratio {result['failed']}/{result['attempted']}", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
