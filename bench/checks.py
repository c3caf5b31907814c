"""Output checks: each job's mathematical expectations plus an exact digest.

A job fails when it raised, exited non-zero, broke one of its expectations, or
produced a payload whose digest differs from the recorded one.  The digest is
the SHA-256 of the report with `timing_ms` removed, serialized with sorted
keys, so any change to an exact output counts as a failure.
"""

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"


def payload_digest(report):
    body = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:24]


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def _check_passed(report, name):
    return any(c["name"] == name and c["pass"] for c in report.get("checks", []))


def _rational(cyc):
    """Decimal string of a serialized cyclotomic value when it is an integer."""
    coeffs = (cyc or {}).get("coeffs") or []
    if not coeffs or coeffs[0][1] != 1 or any(num for num, _ in coeffs[1:]):
        return None
    return str(coeffs[0][0])


def _corpus_value(key, report):
    """The report field a corpus `expect` key refers to (see `gausslab suite`)."""
    res = report.get("result", {})
    if key == "tau_coeffs":
        return res.get("tau", {}).get("coeffs")
    if key == "tau":
        return _rational(res.get("tau"))
    if key in ("ok", "all_ok"):
        return report.get("ok")
    if key == "m":
        return (res.get("certificate") or {}).get("m")
    if key == "certified":
        return res.get("certificate") is not None
    return res.get(key, "<missing>")


def expectation_failures(job, report):
    """Reasons the report breaks the job's expectations; empty when it passes."""
    out = []
    exp = job.expect
    res = report.get("result", {})
    if job.key.startswith("cli-corpus/"):
        for key, want in exp.items():
            got = _corpus_value(key, report)
            if got != want:
                out.append(f"{key}: expected {want!r}, got {got!r}")
        return out
    if "chain" in exp:
        chain = _check_passed(report, "chain-identity")
        if chain != exp["chain"]:
            out.append(f"chain-identity passed={chain}, expected {exp['chain']}")
    if exp.get("chain", True) and not report.get("ok"):
        out.append("report not ok: " + ",".join(
            c["name"] for c in report.get("checks", []) if not c["pass"]))
    for name in exp.get("checks", ()):
        if not _check_passed(report, name):
            out.append(f"check {name} missing or failed")
    if "even_p_power" in exp:
        p = exp["even_p_power"]
        if res.get("size") != p ** (2 * res.get("r", -1)):
            out.append(f"kernel size {res.get('size')} is not p^(2r) for r={res.get('r')}")
    for key in ("abs_square", "order", "svn_dim", "faithful", "kernel_size", "holds",
                "invariant", "n", "betti"):
        if key in exp and res.get(key) != exp[key]:
            out.append(f"{key}: expected {exp[key]!r}, got {res.get(key)!r}")
    return out


def job_failures(job, report, digests):
    """Expectation failures plus a digest mismatch against the recorded table."""
    out = expectation_failures(job, report)
    want = digests.get(job.key)
    got = payload_digest(report)
    if want is None:
        out.append("no recorded digest for this input")
    elif got != want:
        out.append(f"payload digest {got} != recorded {want}")
    return out
