"""gausslab benchmark: replay one seeded workload and report its metrics.

    python3 bench/run.py --workload groups|points|cli-corpus --seed N \
        --seconds S --trace 0|1

Closed loop with one client: one job at a time, at most one child process
alive.  The run repeats its job stream in passes for `--seconds` (at least
`K_MIN` passes), checks every output (see checks.py), writes a result file
under bench/out/ and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json, timed intervals scaled to the host's quiet
speed by a reference loop timed around each job (see reference_s); with
--trace 1 the per-layer ones.

    python3 bench/run.py --workload all ...  # each workload in its own process
    python3 bench/run.py --record-digests   # rebuild expected_digests.json

The package is imported from the checkout's src/ and nowhere else; without it
the run exits 1 before printing a result.  See bench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
K_MIN = 2  # passes every run completes, even past --seconds
SETUP_SAMPLES = 3  # this process's set-up plus fresh processes
CHILD_TIMEOUT = 120
# The reference loop's time on this host when it is quiet (Intel Xeon, 2
# cores, Python 3.11.7).  Timed metrics are scaled by it; see reference_s.
REFERENCE_NOMINAL_S = 0.0012


def import_gausslab():
    """Import the package from ROOT/src only; (cli module, seconds taken)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    try:
        from gausslab import cli
    except ImportError as exc:
        sys.exit(f"cannot import gausslab from {src}: {exc}")
    took = time.perf_counter() - t
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"gausslab imported from {cli.__file__}, not from {src}")
    return cli, took


def cli_options():
    """The options `gausslab` builds when given no flags."""
    return {"ext": None, "workers": os.cpu_count() or 1, "seed": 0, "override": False}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# -- provenance ------------------------------------------------------------------

def host_probe_ms():
    """A fixed stdlib loop, median of 5 timings; recorded, never used to scale."""
    def loop():
        t = time.perf_counter()
        acc = {}
        for i in range(100_000):
            acc[i % 997] = acc.get(i % 997, 0) + i * i % 7
        return time.perf_counter() - t

    return 1000 * statistics.median(loop() for _ in range(5))


def reference_s():
    """Median of three timings of a fixed mix of Fraction, dict and sort work.

    The host's speed swings by up to 2x in phases of 10-30 s, more than any
    regression bound.  Every timed interval is therefore scaled by
    REFERENCE_NOMINAL_S / (this loop's time around the interval): the reported
    seconds are seconds on this host at its quiet speed.  Raw times are
    recorded beside them.
    """
    def once():
        t = time.perf_counter()
        acc, counts, rows = Fraction(0), {}, []
        for i in range(1, 400):
            acc += Fraction(i % 13, i)
            counts[i % 37] = counts.get(i % 37, 0) + i * i % 97
            rows.append((i, i * 3 % 7))
        rows.sort(key=lambda r: r[1])
        return time.perf_counter() - t

    return statistics.median(once() for _ in range(3))


def scale(ref_before, ref_after):
    return REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2)


def source_state():
    """Git SHA and dirty flag when the checkout is a repository, and a hash of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    state = {"src_sha256": h.hexdigest(), "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return state
        if sha.returncode == 0:
            state["git_sha"] = sha.stdout.strip()
            state["git_dirty"] = bool(dirty.stdout.strip())
    return state


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    return {
        **source_state(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "gausslab_cap": os.environ.get("GAUSSLAB_CAP"),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "host_probe_ms_start": host_probe_ms(),
    }


# -- set-up ------------------------------------------------------------------------

def job_path(job):
    return OUT / "jobs" / (job.key.replace("/", "__") + ".json")


def set_up(cli, workload, seed, tiny):
    """Generate the job stream and warm up; (jobs, seconds taken)."""
    import workloads

    t = time.perf_counter()
    jobs, warmup = workloads.stream(workload, seed)
    if tiny:
        jobs = tiny_stream(jobs)
        warmup = [j for j in warmup if j in jobs]
    if workload == "cli-corpus":
        (OUT / "jobs").mkdir(parents=True, exist_ok=True)
        for job in jobs:
            with open(job_path(job), "w") as fh:
                json.dump(job.input, fh)
    for job in warmup:
        cli.dispatch(job.command, job.input, cli_options())
    return jobs, time.perf_counter() - t


def tiny_stream(jobs):
    """One job per command, cheapest first: the self-test's stream."""
    seen, out = set(), []
    for job in sorted(jobs, key=lambda j: len(json.dumps(j.input))):
        if job.command not in seen:
            seen.add(job.command)
            out.append(job)
    return out


def setup_in_child(args):
    """[raw, scaled] set-up time of a fresh process (import, generation, warm-up)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                          cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- measurement ------------------------------------------------------------------

def run_inprocess(cli, job):
    """(report or None, error or None) for one in-process job."""
    try:
        return cli.dispatch(job.command, job.input, cli_options()), None
    except Exception as exc:  # a raised job is a failed job, not a failed run
        return None, f"raised {type(exc).__name__}: {exc}"


def run_child(job, env):
    """(report or None, error or None) for one `python -m gausslab.cli` process."""
    argv = [sys.executable, "-m", "gausslab.cli", job.command, "--input", str(job_path(job))]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unreadable report: {exc}"


def measure(jobs, seconds, k_min, runner, digests):
    """Replay the stream in passes; per-job latencies, pass times and failures.

    The reference loop is timed before the pass and after each job; each job's
    time is scaled by the timings just before and after it."""
    from checks import job_failures, payload_digest

    latencies, raw, passes, raw_passes, failures, digest_lines = [], [], [], [], [], {}
    refs = []
    per_job = {job.key: [] for job in jobs}
    attempted = 0
    start = time.perf_counter()
    while len(passes) < k_min or (
        time.perf_counter() - start + 0.5 * statistics.mean(raw_passes) < seconds
    ):
        results = []
        pass_refs = [reference_s()]
        for job in jobs:
            t = time.perf_counter()
            report, error = runner(job)
            results.append([job, report, error, time.perf_counter() - t])
            pass_refs.append(reference_s())
        for row, before, after in zip(results, pass_refs, pass_refs[1:]):
            row.append(row[3] * scale(before, after))
        refs.extend(pass_refs)
        raw_passes.append(sum(r[3] for r in results))
        passes.append(sum(r[4] for r in results))
        for job, report, error, took, scaled in results:
            raw.append(took)
            latencies.append(scaled)
            per_job[job.key].append(took)
            attempted += 1
            problems = [error] if error else job_failures(job, report, digests)
            if problems:
                failures.append({"job": job.key, "pass": len(passes), "problems": problems})
            elif len(passes) == 1:
                digest_lines[job.key] = payload_digest(report)
    return {
        "latencies": latencies,
        "raw_latencies": raw,
        "per_job": per_job,
        "passes": passes,
        "raw_passes": raw_passes,
        "references": refs,
        "attempted": attempted,
        "failures": failures,
        "digest_lines": digest_lines,
    }


def workload_digest(lines):
    text = "".join(f"{k}={v}\n" for k, v in sorted(lines.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def tail_level(n_jobs, k_min):
    """Highest whole percentile with at least 10 samples beyond it in the
    smallest run (n_jobs * k_min samples); fixed per workload so that the
    level does not move with the number of passes a run manages."""
    n = n_jobs * k_min
    return max(1, min(99, int(100 * (1 - 10 / n))))


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))-
    weighted mean of all order statistics.  The job mix is heterogeneous, so
    the plain sample quantile jumps when noise swaps two neighbouring jobs of
    very different cost; this estimate moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule per order statistic; weights are renormalized
    total = acc = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w
        acc += w * x
    return acc / total


def end_to_end(result, setup_s, peak_rss_mb, level, raw=False):
    """The end-to-end metrics; with raw=True from unscaled times."""
    lat_ms = [1000 * x for x in result["raw_latencies" if raw else "latencies"]]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(result["raw_passes" if raw else "passes"]), "s"),
        "job_ms_p50": (hd_quantile(lat_ms, 0.5), "ms"),
        "job_ms_tail": (hd_quantile(lat_ms, level / 100), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# -- traced run -------------------------------------------------------------------

def traced(cli, jobs, seconds, seed, reps, dispatch_passes):
    """Traced replay passes, alternating with plain dispatch passes, for
    `seconds`; then the layer probes.  `dispatch_passes` are the plain pass
    times measured so far."""
    import layers

    options = cli_options()
    plain, replayed = list(dispatch_passes), []
    start = time.perf_counter()
    while True:
        tr = layers.Tracer()
        t = time.perf_counter()
        with layers.instrument(tr):
            for job in jobs:
                with tr.span(job.key, "bench"):
                    layers.replay(tr, job.command, job.input, options)
        replayed.append(time.perf_counter() - t)
        if plain and time.perf_counter() - start >= seconds:
            break
        t = time.perf_counter()
        for job in jobs:
            cli.dispatch(job.command, job.input, options)
        plain.append(time.perf_counter() - t)
        if time.perf_counter() - start >= seconds:
            break
    metrics = layers.probe_metrics(seed, str(ROOT), child_env(), options, reps)
    metrics["bench.trace_overhead_s"] = statistics.median(replayed) - statistics.median(plain)
    shares = layers.layer_shares(tr)
    detail = {
        "dispatch_pass_s": plain,
        "traced_pass_s": replayed,
        "layer_self_s": {k: v[0] for k, v in shares.items()},
        "layer_share": {k: v[1] for k, v in shares.items()},
        "layer_call_share": {k: v[2] for k, v in shares.items()},
        "spans_last_pass": tr.table(),
    }
    return metrics, detail


# -- digests ----------------------------------------------------------------------

def record_digests():
    """Run every job any seed can draw once and write the digest table."""
    import workloads
    from checks import DIGESTS, expectation_failures, payload_digest

    cli, _ = import_gausslab()
    env = child_env()
    table, bad = {}, 0
    for workload in workloads.WORKLOADS:
        for job in workloads.pool_jobs(workload):
            if workload == "cli-corpus":
                (OUT / "jobs").mkdir(parents=True, exist_ok=True)
                with open(job_path(job), "w") as fh:
                    json.dump(job.input, fh)
                report, error = run_child(job, env)
            else:
                report, error = run_inprocess(cli, job)
            problems = [error] if error else expectation_failures(job, report)
            if problems:
                bad += 1
                print(f"FAIL {job.key}: {problems}", file=sys.stderr)
                continue
            table[job.key] = payload_digest(report)
            print(f"{job.key} {table[job.key]}", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


def run_all(args):
    """Run every workload, one process each, one after another."""
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = status or subprocess.run(argv, cwd=ROOT).returncode
    return status


# -- main ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("groups", "points", "cli-corpus", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one job per command, one required pass (the self-test)")
    parser.add_argument("--inject-wrong-expectation", action="store_true",
                        help="corrupt one job's expectation (the self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    from checks import load_digests

    OUT.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    ref_before = reference_s()
    cli, import_s = import_gausslab()
    jobs, setup_rest = set_up(cli, args.workload, args.seed, args.tiny)
    setup = [import_s + setup_rest, (import_s + setup_rest) * scale(ref_before, reference_s())]
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    if args.inject_wrong_expectation:
        jobs[0].expect = dict(jobs[0].expect, order=-1)
    digests = load_digests()
    k_min = 1 if args.tiny else K_MIN
    if args.workload == "cli-corpus":
        env = child_env()
        runner = lambda job: run_child(job, env)  # noqa: E731
    else:
        runner = lambda job: run_inprocess(cli, job)  # noqa: E731
    if args.trace:  # one checked pass; the traced passes take the time
        result = measure(jobs, 0, 1, runner, digests)
    else:
        result = measure(jobs, args.seconds, k_min, runner, digests)
    if args.workload == "cli-corpus":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    detail, raw_metrics = {}, {}
    level = tail_level(len(jobs), k_min)
    if args.trace:
        metrics, detail = traced(cli, jobs, args.seconds, args.seed, 1 if args.tiny else 3,
                                 [] if args.workload == "cli-corpus" else result["raw_passes"])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: (v, units.get(k, "?")) for k, v in metrics.items()}
    else:
        setups = [setup] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(result, statistics.median(s[1] for s in setups),
                             peak_kb / 1024, level)
        raw_metrics = end_to_end(result, statistics.median(s[0] for s in setups),
                                 peak_kb / 1024, level, raw=True)
        detail["setup_samples_raw_scaled_s"] = setups

    failed = len(result["failures"])
    expected_lines = {j.key: digests.get(j.key) for j in jobs}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
        "jobs_per_pass": len(jobs),
        "passes": len(result["passes"]),
        "pass_s": result["passes"],
        "raw_pass_s": result["raw_passes"],
        "reference_s": result["references"],
        "tail_percentile": level,
        "job_latency_s": result["per_job"],
        "latency_samples": len(result["latencies"]),
        "attempted": result["attempted"],
        "failed": failed,
        "failed_ratio": failed / result["attempted"],
        "failures": result["failures"][:50],
        "workload_digest": workload_digest(result["digest_lines"]),
        "expected_workload_digest": workload_digest(expected_lines),
        **detail,
    }
    prov["loadavg_end"] = list(os.getloadavg())
    prov["host_probe_ms_end"] = host_probe_ms()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    for name, (value, unit) in raw_metrics.items():
        print(f"{'unscaled ' + name:32s} {value:14.6f} {unit}")
    print(f"{'failed_ratio':32s} {record['failed_ratio']:14.6f} "
          f"({failed}/{result['attempted']})")
    print(f"{len(result['passes'])} checked passes of {len(jobs)} jobs; "
          f"result file {path.relative_to(ROOT)}")
    if not args.trace:
        print(f"job_ms_tail is p{level} of {len(result['latencies'])} samples")
    else:
        print("layer self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in detail["layer_share"].items()))
        print("layer call shares:      " + ", ".join(
            f"{k} {v:.1%}" for k, v in detail["layer_call_share"].items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
