"""The committed benchmark records: every BENCH_<n>.json at the repository root."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATS = {"median", "q1", "q3"}


def test_bench_records_carry_runs_and_provenance():
    # each record quotes parent and change medians, quartiles and seeds for
    # every workload and end-to-end metric the benchmark declares, with the
    # machine, the Python version and both git SHAs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert {"machine", "python", "git", "workloads"} <= set(record), path.name
        assert record["machine"] and isinstance(record["python"], str), path.name
        assert {"parent", "change"} <= set(record["git"]), path.name
        assert set(record["workloads"]) == workloads, path.name
        for name, runs in record["workloads"].items():
            assert runs["seeds"] and all(type(s) is int for s in runs["seeds"]), (path.name, name)
            for side in ("parent", "change"):
                assert set(runs[side]) >= metrics, (path.name, name, side)
                for metric in metrics:
                    stats = runs[side][metric]
                    assert STATS <= set(stats), (path.name, name, side, metric)
                    assert stats["q1"] <= stats["median"] <= stats["q3"], (path.name, name, metric)
