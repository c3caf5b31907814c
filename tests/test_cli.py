"""The gausslab command line: schemas, exit codes, determinism."""

import json
import re
import subprocess
import sys

import pytest

from gausslab.cli import dispatch
from gausslab.corpus import corpus


def run_cli(command, job=None, *args):
    argv = [sys.executable, "-m", "gausslab.cli", command, *args]
    stdin = json.dumps(job) if job is not None else ""
    return subprocess.run(
        argv, input=stdin, capture_output=True, text=True, timeout=600
    )


def strip_timing(text):
    return re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', text)


def test_gauss_sum_exeasy_fixture():
    job = corpus()["exeasy-z2"]["input"]
    proc = run_cli("gauss-sum", job)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    # tau = 1 + i in Q(zeta_4)
    assert report["result"]["tau"] == {"order": 4, "coeffs": [[1, 1], [1, 1]]}


def test_zeta_vdgv_fixture():
    job = corpus()["vdgv-f2-zeta"]["input"]
    proc = run_cli("zeta", job)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["l_poly"] == [2, 0, 1]
    assert report["result"]["certificate"]["m"] == 2


def test_malformed_json_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "gausslab.cli", "gauss-sum"],
        input="{not json",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "invalid JSON" in proc.stderr


def test_invalid_schema_exits_2():
    proc = run_cli("gauss-sum", {"nonsense": 1})
    assert proc.returncode == 2


def test_cap_exceeded_exits_3():
    job = {"datum": corpus()["diag-x3-f4-hd"]["input"]["datum"], "n": 12}
    proc = run_cli("char-sum", job)
    assert proc.returncode == 3


def test_failed_check_exits_1():
    # the omega-coefficient datum fails the r=1 chain: a mathematical finding
    from gausslab.corpus import F4
    from gausslab.charsum import DiagMonomial, QuadDatum

    datum = QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.gen())])
    job = {"datum": datum.to_json(), "r": 1, "n_max": 3}
    proc = run_cli("hasse-davenport", job)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["ok"] is False
    assert report["result"]["residuals"] == [True, False, False]


def test_gauss_verify_non_quadratic_reports_witness():
    form = {"invariant_factors": [3], "value_order": 9, "values": {"0": 0, "1": 1, "2": 5}}
    proc = run_cli("gauss-verify", {"form": form})
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["ok"] is False
    tau = {"order": 9, "coeffs": [[1, 1], [1, 1], [0, 1], [0, 1], [0, 1], [1, 1]]}
    assert report["result"] == {"tau": tau}  # 1 + zeta_9 + zeta_9^5
    [check] = report["checks"]
    assert check["name"] == "is-quadratic" and check["pass"] is False
    assert check["witness"] == [[1], [1], [1]]


def test_byte_determinism_same_job():
    job = corpus()["diag-x3-f4-hd"]["input"]
    a = run_cli("hasse-davenport", job)
    b = run_cli("hasse-davenport", job)
    assert strip_timing(a.stdout) == strip_timing(b.stdout)


def test_worker_count_invariance():
    job = {"datum": corpus()["diag-x3-f4-hd"]["input"]["datum"], "n": 2}
    a = run_cli("char-sum", job, "--workers", "1")
    b = run_cli("char-sum", job, "--workers", "4")
    assert strip_timing(a.stdout) == strip_timing(b.stdout)


def test_ext_option_overrides_n():
    job = {"datum": corpus()["wittchar-f2-hd"]["input"]["datum"], "n": 1}
    proc = run_cli("char-sum", job, "--ext", "2")
    report = json.loads(proc.stdout)
    assert report["result"]["n"] == 2


def test_csv_format():
    job = corpus()["vdgv-f2-zeta"]["input"]
    proc = run_cli("zeta", job, "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "check,pass"
    assert lines[-1] == "ok,1"


def test_field_command():
    proc = run_cli("field", {"p": 2, "m": 2})
    report = json.loads(proc.stdout)
    assert report["result"]["modulus"] == [1, 1, 1]


def test_witt_command():
    job = {
        "field": {"p": 2, "m": 1},
        "op": "add",
        "u": [[1], [0]],
        "v": [[1], [0]],
    }
    proc = run_cli("witt", job)
    report = json.loads(proc.stdout)
    assert report["result"] == {"x0": [0], "x1": [1]}  # 1 + 1 = 2 in Z/4


def test_heisenberg_command_from_pairing():
    job = corpus()["heis-p2"]["input"]
    proc = run_cli("heisenberg", job)
    report = json.loads(proc.stdout)
    assert report["result"]["order"] == 8
    assert report["result"]["svn_dim"] == 2
    assert report["result"]["faithful"] is True


def test_count_points_command():
    job = corpus()["vdgv-f2-zeta"]["input"]
    proc = run_cli("count-points", {"curve": job["curve"], "n": 2})
    report = json.loads(proc.stdout)
    assert report["result"]["count"] == "8"


def test_supersingular_lpoly_direct():
    proc = run_cli("supersingular", {"l_poly": [2, 0, 1], "q": 2, "i": 1})
    report = json.loads(proc.stdout)
    assert report["result"]["certificate"]["m"] == 2
    proc2 = run_cli("supersingular", {"l_poly": [-3, 1], "q": 2, "i": 1})
    assert proc2.returncode == 1  # honest "not certified within bound"


def test_suite_passes_in_process():
    report = dispatch("suite", {}, {"workers": 1})
    assert report["ok"], report["result"]


def test_every_fixture_resolves():
    jobs = corpus()
    assert len(jobs) >= 25
    for name, entry in jobs.items():
        assert entry["command"] in (
            "gauss-sum", "gauss-verify", "char-sum", "hasse-davenport", "kernel",
            "clb-normalize", "clb-cocycle", "heisenberg", "count-points", "zeta",
            "supersingular", "endw2-verify", "invariance", "field", "witt", "suite",
        ), name
        json.dumps(entry["input"])  # JSON-serializable
