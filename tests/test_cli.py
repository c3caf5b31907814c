"""The gausslab command line: schemas, exit codes, determinism."""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gausslab import cli
from gausslab.cli import dispatch
from gausslab.corpus import corpus
from gausslab.errors import TheoremViolated
from test_charsum import _B_ALONE, _CRAFTED, _F25_DRAW


def run_cli(command, job=None, *args):
    argv = [sys.executable, "-m", "gausslab.cli", command, *args]
    stdin = json.dumps(job) if job is not None else ""
    return subprocess.run(
        argv, input=stdin, capture_output=True, text=True, timeout=600
    )


def run_main(command, job, tmp_path, capsys):
    """cli.main in this process, on a job file; returns (exit code, stderr)."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--input", str(path)])
    return code, capsys.readouterr().err


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


def test_zeta_counts_each_point_count_once(monkeypatch):
    # the report's pipeline is the closure check's: with b absent or equal to
    # the Betti number 2, N_1 .. N_4 are each counted once, and the reports agree
    from gausslab import varieties

    counted, count = [], varieties.count_points
    monkeypatch.setattr(varieties, "count_points",
                        lambda spec, n, override=False: counted.append(n) or count(spec, n, override))
    job, reports = corpus()["vdgv-f2-zeta"]["input"], []
    for extra in ({}, {"b": 2}):
        counted.clear()
        reports.append(dispatch("zeta", {**job, **extra}))
        reports[-1].pop("timing_ms")
        assert counted == [1, 2, 3, 4]
    assert reports[0] == reports[1]


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


def test_value_that_is_not_a_root_of_unity_exits_2():
    half = {"order": 4, "coeffs": [[1, 2], [0, 1]]}
    form = {"invariant_factors": [2], "value_order": 4, "values": {"0": 0, "1": half}}
    proc = run_cli("gauss-verify", {"form": form})
    assert proc.returncode == 2
    assert "element (1,) is not a 4-th root of unity" in proc.stderr


@pytest.mark.parametrize(
    "a", [[3], [-1], [1, 0, 1], [1.7], ["1"], [True], [], 1],
    ids=["3", "-1", "too-long", "float", "string", "bool", "empty", "bare-int"],
)
def test_non_canonical_field_element_exits_2(a, tmp_path, capsys):
    # over F_2 an element is exactly one int in range(2); nothing is reduced
    datum = {"field": {"p": 2, "m": 1}, "d": 1, "terms": [{"kind": "diag", "j": 0, "i": 1, "a": a}]}
    code, err = run_main("char-sum", {"datum": datum, "n": 1}, tmp_path, capsys)
    assert code == 2
    assert f"{a!r} is not an element of F2" in err


@pytest.mark.parametrize(
    "value",
    [
        {"order": 4, "coeffs": [[1, 0], [0, 1]]},
        {"order": 0, "coeffs": [[1, 1]]},
        {"order": -4, "coeffs": [[1, 1], [0, 1]]},
        {"order": 4, "coeffs": [[True, 1], [0, 1]]},
    ],
    ids=["zero-denominator", "order-0", "order-negative", "bool-numerator"],
)
def test_malformed_cyclotomic_value_exits_2(value, tmp_path, capsys):
    form = {"invariant_factors": [2], "value_order": 4, "values": {"0": value, "1": 2}}
    code, err = run_main("gauss-verify", {"form": form}, tmp_path, capsys)
    assert code == 2
    assert "a cyclotomic number needs an int order >= 1" in err


@pytest.mark.parametrize(
    "values, order, why",
    [
        ({"00": 0, "1": 1}, 4, "value key '00'"),
        ({"0": 0, "+1": 1}, 4, "value key '+1'"),
        ({"0": 0, "1": 5}, 4, "value 5 of element (1,)"),
        ({"0": 0, "1": -3}, 4, "value -3 of element (1,)"),
        ({"0": 0, "1": True}, 4, "value True of element (1,)"),
        ({"0": 0, "1": 1.0}, 4, "value 1.0 of element (1,)"),
        ({"0": 0, "1": 1}, 4.0, "value_order must be an int >= 1"),
    ],
    ids=["key-00", "key-plus", "exponent-5", "exponent-negative", "exponent-bool",
         "exponent-float", "order-float"],
)
def test_form_decodes_strictly(values, order, why, tmp_path, capsys):
    # canonical keys, exponents in [0, value_order), an int value_order: a
    # form is never normalized into another one
    form = {"invariant_factors": [2], "value_order": order, "values": values}
    code, err = run_main("gauss-sum", {"form": form}, tmp_path, capsys)
    assert code == 2
    assert "invalid input" in err and why in err


@pytest.mark.parametrize("command", ["gauss-sum", "gauss-verify"])
@pytest.mark.parametrize(
    "form, why",
    [
        ({"invariant_factors": [2], "value_order": 2, "values": [0, 1]},
         "values must be a JSON object, got list"),
        ({"invariant_factors": [2], "value_order": 2, "values": "0,1"},
         "values must be a JSON object, got str"),
        ({"invariant_factors": [2], "value_order": 2, "values": None},
         "values must be a JSON object, got NoneType"),
        # nothing of size |M| = 10^12 is built before the key count is refused
        ({"invariant_factors": [10**12], "value_order": 2, "values": {"0": 0}},
         "values must have one key per element of FiniteAbelianGroup([1000000000000]), got 1"),
    ],
    ids=["values-list", "values-string", "values-null", "oversized-group"],
)
def test_form_table_shape_is_invalid_input(command, form, why, tmp_path, capsys):
    code, err = run_main(command, {"form": form}, tmp_path, capsys)
    assert code == 2
    assert "invalid input" in err and why in err


@pytest.mark.parametrize(
    "job,message",
    [
        ({"l_poly": [2.7, 0, 1], "q": 2}, "l_poly[0] must be an integer, got 2.7"),
        ({"l_poly": ["2", 0, True], "q": 2}, "l_poly[0] must be an integer, got '2'"),
        ({"l_poly": [2, 0, True], "q": 2}, "l_poly[2] must be an integer, got True"),
        ({"l_poly": 2, "q": 2}, "l_poly must be a list of ints"),
        ({"l_poly": [2, 0, 1], "q": 0}, "need ints q >= 2 and i >= 1"),
        ({"l_poly": [2, 0, 1], "q": 2, "i": -1}, "need ints q >= 2 and i >= 1"),
    ],
    ids=["float", "string-and-bool", "q-0", "i-negative", "bool", "bare-int"],
)
def test_malformed_l_poly_job_exits_2(job, message, tmp_path, capsys):
    code, err = run_main("supersingular", job, tmp_path, capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "field,message",
    [
        ({"p": 2, "m": 2, "modulus": []}, "modulus must be monic of degree 2: []"),
        ({"p": 2, "m": 2, "modulus": 0}, "modulus must be a list of integers, got 0"),
        ({"p": 2, "m": 2, "modulus": {}}, "modulus must be a list of integers, got {}"),
        ({"p": 2, "m": 2, "modulus": None}, "modulus must be a list of integers, got None"),
        ({"p": 1, "m": 2, "modulus": [1, 1, 1]}, "1 is not prime"),
        ({"p": 4, "m": 1, "modulus": [9, 1]}, "4 is not prime"),
        ({"p": 2, "m": 2, "modulus": [1, True, 1]}, "modulus[1] must be an integer in range(0, 2)"),
    ],
    ids=["empty-list", "zero", "empty-dict", "null", "p-1", "p-4", "bool-entry"],
)
def test_field_modulus_not_absent_nor_a_list_of_ints_exits_2(field, message, tmp_path, capsys):
    # only an absent modulus means "search"; p is checked before any entry
    code, err = run_main("field", field, tmp_path, capsys)
    assert code == 2
    assert message in err and "Traceback" not in err
    code, _ = run_main("field", {"p": 2, "m": 2}, tmp_path, capsys)
    assert code == 0


def test_modulus_irreducible_check_is_computed(tmp_path, capsys, monkeypatch):
    from gausslab import fields

    path = tmp_path / "job.json"
    path.write_text(json.dumps({"p": 3, "m": 4}))
    assert cli.main(["field", "--input", str(path)]) == 0
    passed = json.loads(capsys.readouterr().out)
    assert passed["checks"] == [{"name": "modulus-irreducible", "pass": True}]
    # F_81 is cached from the first run, so only the check calls the broken test
    monkeypatch.setattr(fields, "_is_irreducible", lambda mod, p: False)
    assert cli.main(["field", "--input", str(path)]) == 1
    failed = json.loads(capsys.readouterr().out)
    assert failed["ok"] is False and failed["result"] == passed["result"]
    assert failed["checks"] == [{"name": "modulus-irreducible", "pass": False,
                                 "witness": passed["result"]["modulus"]}]


def test_char2_square_identity_is_computed(tmp_path, capsys, monkeypatch):
    # tau^2 = Q(a)|M| on the hyperbolic plane over (Z/2)^2 is compared, not
    # asserted: a canonical element whose Q(a) is negated fails it with exit
    # 1, and the witness is both sides
    from gausslab import quadform

    job = corpus()["hyperbolic-z2z2"]["input"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert cli.main(["gauss-verify", "--input", str(path)]) == 0
    passed = json.loads(capsys.readouterr().out)
    assert {"name": "char2-square-identity", "pass": True} in passed["checks"]
    invariant = quadform.char2_invariant
    monkeypatch.setattr(quadform, "char2_invariant",
                        lambda form: (lambda a, qa: (a, -qa))(*invariant(form)))
    assert cli.main(["gauss-verify", "--input", str(path)]) == 1
    failed = json.loads(capsys.readouterr().out)
    assert failed["ok"] is False and failed["result"] == passed["result"]
    tau = quadform.QuadraticForm.from_json(job["form"]).gauss_sum()
    assert failed["checks"][-1] == {"name": "char2-square-identity", "pass": False,
                                    "witness": [(tau * tau).to_json(), (-1 * tau * tau).to_json()]}


def _with(name, edit):
    job = copy.deepcopy(corpus()[name]["input"])
    edit(job)
    return job


@pytest.mark.parametrize(
    "command,job",
    [
        ("clb-cocycle", {"field": {"p": 2, "m": 1}, "i": 1, "a": [2]}),
        ("witt", {"field": {"p": 2, "m": 1}, "op": "add", "u": [[1], [2]], "v": [[1], [0]]}),
        ("invariance", _with("gl1-inv-f2", lambda j: j["matrices"][0][0].__setitem__(0, [2]))),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"0": [2]}}),
        ("zeta", _with("vdgv-f2-zeta", lambda j: j["curve"].__setitem__("a", [2]))),
        ("zeta", _with("vdgv-f2-zeta", lambda j: j["curve"]["g1"].__setitem__("0", [2]))),
        ("supersingular", _with("surface-p2", lambda j: j["surface"]["f"].__setitem__("0", [2]))),
        ("heisenberg", _with("heis-from-datum-p2", lambda j: j["from_datum"]["terms"][0].__setitem__("a", [2]))),
    ],
    ids=["clb-cocycle", "witt", "invariance", "endw2", "curve-a", "additive-poly", "surface", "datum"],
)
def test_every_json_boundary_decodes_elements_strictly(command, job, tmp_path, capsys):
    code, err = run_main(command, job, tmp_path, capsys)
    assert code == 2
    assert "[2] is not an element of F2" in err


def _precompose(f):
    """char-sum of psi(Tr(x^3)) over F_2 with x replaced by f(x)."""
    terms = [{"kind": "diag", "j": 0, "i": 1, "a": [1]}, {"kind": "precompose", "j": 0, "f": f}]
    return {"datum": {"field": {"p": 2, "m": 1}, "d": 1, "terms": terms}, "n": 1}


@pytest.mark.parametrize(
    "command,job,why",
    [
        ("zeta", _with("vdgv-f2-zeta", lambda j: j["curve"].__setitem__("g1", {"-1": [1]})), "key '-1'"),
        ("zeta", _with("vdgv-f2-zeta", lambda j: j["curve"].__setitem__("g1", {"0": [1], "00": [1]})), "key '00'"),
        ("zeta", _with("vdgv-f2-zeta", lambda j: j["curve"].__setitem__("g2", {"-1": [1]})), "key '-1'"),
        ("zeta", _with("vdgv-f2-zeta", lambda j: j["curve"].__setitem__("g2", {"+1": [1]})), "key '+1'"),
        ("count-points", _with("vdgv-f2-zeta", lambda j: j["curve"].__setitem__("f", [1])), "[1] is not"),
        ("supersingular", _with("surface-p2", lambda j: j["surface"].__setitem__("f", {"-1": [1]})), "key '-1'"),
        ("supersingular", _with("surface-p2", lambda j: j["surface"].__setitem__("f", {" 0": [1]})), "key ' 0'"),
        ("supersingular", _with("surface-p2", lambda j: j["surface"].__setitem__("r", {"-1": [1]})), "key '-1'"),
        ("supersingular", _with("surface-p2", lambda j: j["surface"].__setitem__("r", {"01": [1]})), "key '01'"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": [1]}, "[1] is not"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"-1": [1]}}, "key '-1'"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"0": [1]}, "r": {"-1": [1]}}, "key '-1'"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"0": [1]}, "r": {"1.0": [1]}}, "key '1.0'"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"0": [1]}, "r": []}, "[] is not"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"0": [1]}, "r": 0}, "0 is not"),
        ("endw2-verify", {"field": {"p": 2, "m": 1}, "f": {"0": [1]}, "r": ""}, "'' is not"),
        ("char-sum", _precompose({"-1": [1]}), "key '-1'"),
        ("char-sum", _precompose({"0": [1], "-0": [1]}), "key '-0'"),
    ],
    ids=["g1-negative", "g1-leading-zero", "g2-negative", "g2-plus-sign", "curve-f-list",
         "surface-f-negative", "surface-f-space", "surface-r-negative", "surface-r-leading-zero",
         "endw2-f-list", "endw2-f-negative", "endw2-r-negative", "endw2-r-float",
         "endw2-r-empty-list", "endw2-r-zero", "endw2-r-empty-string",
         "precompose-negative", "precompose-minus-zero"],
)
def test_exponent_keys_decode_strictly(command, job, why, tmp_path, capsys):
    # an {exponent: element} object has canonical keys "0", "1", ...; nothing is merged
    code, err = run_main(command, job, tmp_path, capsys)
    assert code == 2
    assert "invalid input" in err and why in err


def test_endw2_empty_r_is_the_zero_correction():
    # {} decodes to the zero polynomial, which is what an absent r means
    job = {"field": {"p": 2, "m": 2}, "f": {"0": [1, 0], "1": [0, 1]}}
    absent = dispatch("endw2-verify", job)
    empty = dispatch("endw2-verify", {**job, "r": {}})
    absent.pop("timing_ms"), empty.pop("timing_ms")
    assert empty == absent and absent["ok"]


def test_internal_fault_exits_4(monkeypatch, tmp_path, capsys):
    def broken(job, options):
        raise TheoremViolated("a proven identity failed")

    monkeypatch.setitem(cli._COMMANDS, "field", (broken, cli._COMMANDS["field"][1]))
    code, err = run_main("field", {"p": 2, "m": 1}, tmp_path, capsys)
    assert code == 4
    assert err == "internal fault: a proven identity failed\n"


def test_unrenderable_report_exits_4(monkeypatch, tmp_path, capsys):
    # a report that json.dumps refuses (an int past the digit limit of str)
    # is an internal fault, not a traceback with exit 1
    def huge(job, options):
        return {"value": 10**5000}, []

    monkeypatch.setitem(cli._COMMANDS, "field", (huge, cli._COMMANDS["field"][1]))
    code, err = run_main("field", {"p": 2, "m": 1}, tmp_path, capsys)
    assert code == 4
    assert err.startswith("internal fault: the report cannot be rendered:")


_AS_LIMIT = 3 << 29  # 1.5 GiB of address space for each child below


def _run_cli_limited(command, job):
    """run_cli in a child whose address space is capped by RLIMIT_AS."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_AS_LIMIT, _AS_LIMIT))

    return subprocess.run([sys.executable, "-m", "gausslab.cli", command], input=json.dumps(job),
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)


@pytest.mark.parametrize("command", ["kernel", "clb-normalize", "char-sum", "invariance"])
def test_a_million_coordinates_size_nothing_by_d_squared(command):
    # a datum with d = 10^6 and one term: its pairing holds its one nonzero
    # entry, not a d x d table, and the Gram cap counts (m n d)^2 before
    # anything is built; each job ends with a contract exit and no traceback
    job = {"datum": {"field": {"p": 2, "m": 2}, "d": 10**6,
                     "terms": [{"kind": "diag", "j": 0, "i": 1, "a": [1, 0]}]}}
    if command == "invariance":
        job["matrices"] = []
    proc = _run_cli_limited(command, job)
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.returncode == {"kernel": 2, "clb-normalize": 0}.get(command, 3), proc.stderr


@pytest.mark.parametrize("r", [2, 20000, 10**6])
def test_hasse_davenport_refutes_a_claimed_r_above_md_over_2(r):
    # diag-x3-f4-hd has m d / 2 = 1: |S_1| <= q^d < p^r q^(d/2) for r >= 2, so
    # the chain fails with the largest r as its witness, p^r never formed
    job = {**corpus()["diag-x3-f4-hd"]["input"], "r": r}
    proc = _run_cli_limited("hasse-davenport", job)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["tau"] is None and report["result"]["residuals"] is None
    assert report["checks"] == [
        {"name": "chain-identity", "pass": False, "witness": {"r": r, "largest_r": 1}},
        {"name": "fev-abs-square", "pass": False},
        {"name": "fev-root-of-unity", "pass": False},
    ]
    assert len(report["result"]["sums"]) == 3


def test_cap_exceeded_exits_3():
    # F_{4^65} = F_{2^130} is above the bound on the fields `extension` builds
    job = {"datum": corpus()["diag-x3-f4-hd"]["input"]["datum"], "n": 65}
    proc = run_cli("char-sum", job)
    assert proc.returncode == 3


def test_frobpair_chain_to_n6_under_the_default_cap():
    # sums from Gram data: n = 6 builds F_{4^6} and a 24 x 24 Gram matrix,
    # where enumerating the 4^12 points would exceed the cap
    job = {**corpus()["frobpair-gl-q4-hd"]["input"], "n_max": 6}
    proc = run_cli("hasse-davenport", job)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert {c["name"]: c["pass"] for c in report["checks"]}["chain-identity"] is True
    assert report["result"]["residuals"] == [True] * 6


def test_workers_below_one_is_invalid_input(capsys):
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["char-sum", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err


def test_ext_below_one_is_invalid_input(capsys):
    for ext in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["char-sum", "--ext", ext])
        assert exc.value.code == 2
        assert "--ext must be at least 1" in capsys.readouterr().err


_CURVE = corpus()["vdgv-f2-zeta"]["input"]["curve"]

# (command, job, key, bad values): the integer fields of each job that reads
# one; an extension degree n or n_max or the Frobenius index i is an int >= 1,
# the Betti number b or the r of p^r an int >= 0, and the Frobenius exponent
# mutate_exp an int of either sign.  A nested field has a key path: the p, m
# and modulus entries of a field (ints in range(p)), the d of a datum and the
# j, k, i of its terms must be ints, and their other range checks are the
# constructors' own
_AT_LEAST_1 = (0, -1, True, 2.0, "2")
_AT_LEAST_0 = (-1, True, 2.0, "2")
_NOT_INT = (True, False, 1.0, "1")
_FIELD = {"p": 2, "m": 2, "modulus": [1, 1, 1]}
_DATUM = {"datum": corpus()["diag-x3-f4-hd"]["input"]["datum"]}
_DEGREE_KEYS = [
    ("char-sum", _DATUM, "n", _AT_LEAST_1),
    ("invariance", corpus()["gl1-inv-f2"]["input"], "n", _AT_LEAST_1),
    ("clb-cocycle", corpus()["clb-cocycle-i1-f4"]["input"], "n", _AT_LEAST_1),
    ("clb-cocycle", corpus()["clb-cocycle-i1-f4"]["input"], "i", _AT_LEAST_1),
    ("count-points", {"curve": _CURVE}, "n", _AT_LEAST_1),
    ("endw2-verify", corpus()["endw2-f4"]["input"], "n", _AT_LEAST_1),
    ("endw2-verify", corpus()["endw2-f4"]["input"], "mutate_exp", (True, 1.5, 2.0, "2")),
    ("hasse-davenport", corpus()["diag-x3-f4-hd"]["input"], "n_max", _AT_LEAST_1),
    ("hasse-davenport", corpus()["diag-x3-f4-hd"]["input"], "r", _AT_LEAST_0),
    ("supersingular", corpus()["surface-p2"]["input"], "n_max", _AT_LEAST_1),
    ("zeta", {"curve": _CURVE}, "b", _AT_LEAST_0),
    ("supersingular", {"curve": _CURVE}, "b", _AT_LEAST_0),
    ("field", _FIELD, "p", (True, 2.0, "2")),
    ("field", _FIELD, "m", (True, 2.0, "2")),
    ("field", _FIELD, ("modulus", 0), (1.0, True, -1, 2)),
    ("field", _FIELD, ("modulus", 2), (True,)),
    ("char-sum", _DATUM, ("datum", "field", "m"), (True,)),
    ("char-sum", _DATUM, ("datum", "d"), _NOT_INT),
    ("char-sum", _DATUM, ("datum", "terms", 0, "j"), _NOT_INT),
    ("char-sum", _DATUM, ("datum", "terms", 0, "i"), _NOT_INT),
    # the chain reads the term at n = 2 and 3 as well
    ("hasse-davenport", corpus()["diag-x3-f4-hd"]["input"], ("datum", "terms", 0, "i"), (1.0,)),
]


def _with_value(job, path, value):
    """A copy of job with the field at path (a key, or a tuple of keys and
    list indices) set to value."""
    job = copy.deepcopy(job)
    *outer, last = path if isinstance(path, tuple) else (path,)
    node = job
    for key in outer:
        node = node[key]
    node[last] = value
    return job


def _field_name(path):
    """The name a refusal gives the field at path: its key, or key[index]
    for a list entry."""
    if not isinstance(path, tuple):
        return path
    return path[-1] if isinstance(path[-1], str) else f"{path[-2]}[{path[-1]}]"


_BAD_DEGREES = [
    pytest.param(command, _with_value(job, key, value), _field_name(key),
                 id=f"{command}-{'.'.join(map(str, key)) if isinstance(key, tuple) else key}"
                    f"-{value!r}")
    for command, job, key, values in _DEGREE_KEYS
    for value in values
]


@pytest.mark.parametrize("command, job, key", _BAD_DEGREES)
def test_bad_degree_exits_2(command, job, key, tmp_path, capsys):
    code, err = run_main(command, job, tmp_path, capsys)
    assert code == 2
    assert err.startswith("invalid input or failed precondition: ")
    assert f"{key} must be an integer" in err and "Traceback" not in err


def test_curve_count_refuses_above_the_cap_before_building(monkeypatch, tmp_path, capsys):
    # count-points at n = 5 over F_2 sweeps nothing; its cap counts the 25
    # Gram entries of each character: 25 passes, 24 exits 3 without building
    # the field
    import gausslab.fields as fields
    import gausslab.varieties as varieties

    job = {"curve": _CURVE, "n": 5}
    monkeypatch.setenv("GAUSSLAB_CAP", "25")
    code, _ = run_main("count-points", job, tmp_path, capsys)
    assert code == 0
    built = []
    for module in (fields, varieties):
        monkeypatch.setattr(module, "extension",
                            lambda field, n, override: built.append(n))
    monkeypatch.setenv("GAUSSLAB_CAP", "24")
    code, err = run_main("count-points", job, tmp_path, capsys)
    assert code == 3
    assert err == "scale cap exceeded: Gram matrix over 25 points exceeds cap 24\n"
    assert built == []


class _Worked(Exception):
    """Raised by a stand-in for the first sum or count of a job."""


_X129_F2 = {"field": {"p": 2, "m": 1}, "f": {"0": [1], "1": [1]}, "g1": {"7": [1]},
            "g2": {"0": [1]}, "a": [0]}  # y^2 + y = x^129 over F_2: Betti number 128
_FIELD_BOUND = "extension field over {} points exceeds cap " + str(2**128)


@pytest.mark.parametrize("command, job, module, first, what", [
    ("hasse-davenport", {"datum": {"field": {"p": 2, "m": 1}, "d": 1, "terms": [
        {"kind": "diag", "j": 0, "i": 1, "a": [1]}]}, "r": 1, "n_max": 129},
     "charsum", "char_sum", _FIELD_BOUND.format(2**129)),
    ("zeta", {"curve": _X129_F2}, "varieties", "count_points",
     _FIELD_BOUND.format(2**130)),  # n <= B + 2 = 130
    ("supersingular", {"curve": _X129_F2, "b": 129}, "varieties", "count_points",
     _FIELD_BOUND.format(2**129)),
    ("supersingular", {**corpus()["surface-p2"]["input"], "n_max": 21}, "varieties", "extension",
     f"surface summands over {2**21} points exceeds cap {2**20}"),
], ids=["hasse-davenport", "zeta", "supersingular-curve", "supersingular-surface"])
def test_the_largest_field_is_refused_before_any_work(command, job, module, first, what,
                                                      monkeypatch, tmp_path, capsys):
    # the largest degree a job builds is known before its first sum or count
    # (n_max, B + 2, b): above its bound the job exits 3 at once, where it
    # used to compute every lower degree first, and --cap-override lifts the
    # refusal
    import importlib

    def worked(*args, **kwargs):
        raise _Worked(first)

    monkeypatch.setattr(importlib.import_module(f"gausslab.{module}"), first, worked)
    code, err = run_main(command, job, tmp_path, capsys)
    assert (code, err) == (3, f"scale cap exceeded: {what}\n")
    with pytest.raises(_Worked):
        cli.main([command, "--input", str(tmp_path / "job.json"), "--cap-override"])


def _diag_datum_json(p, m, i, a):
    from gausslab.charsum import DiagMonomial, QuadDatum
    from gausslab.fields import make_field

    field = make_field(p, m)
    return QuadDatum(field, 1, [DiagMonomial(0, i, field.element(a))]).to_json()


_X5_F2 = _diag_datum_json(2, 1, 2, [1])  # 1*x^5 over F_2: |K| = 16 in E = F_16
_X9_F2 = _diag_datum_json(2, 1, 3, [1])  # 1*x^9 over F_2: |K| = 64 in E = F_64
_OMEGA_X3_F4 = _diag_datum_json(2, 2, 1, [0, 1])  # omega*x^3 over F_4: |K| = 4, E = F_64


@pytest.mark.parametrize("command, job, cap, what", [
    ("kernel", {"datum": _X9_F2}, 40, "kernel listing over 64 points"),
    ("kernel", {"datum": _OMEGA_X3_F4}, 20, "Gram matrix over 36 points"),
    ("heisenberg", {"from_datum": _X9_F2}, 40, "kernel listing over 64 points"),
    ("heisenberg", {"from_datum": _X5_F2}, 16, "SvN character table over 32 points"),
    ("char-sum", {"datum": _X5_F2, "n": 4}, 8, "Gram matrix over 16 points"),
], ids=["kernel", "kernel-gram", "heisenberg-kernel", "heisenberg-pairing", "char-sum"])
def test_datum_kernel_heisenberg_path_is_capped(command, job, cap, what, monkeypatch,
                                                 tmp_path, capsys):
    # every enumeration from a datum to its kernel and Heisenberg group
    # refuses a domain above the cap, and --cap-override lifts the refusal:
    # |K| and the splitting degree e come from the pairing, so the listing of
    # K is refused before any Gram matrix (x^9: 64 points, e = 6), and
    # omega*x^3 over F_4 (|K| = 4, e = 3) then meets its 36 Gram entries
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert cli.main([command, "--input", str(path)]) == 0
    uncapped = strip_timing(capsys.readouterr().out)
    monkeypatch.setenv("GAUSSLAB_CAP", str(cap))
    assert cli.main([command, "--input", str(path)]) == 3
    assert f"scale cap exceeded: {what} exceeds cap {cap}" in capsys.readouterr().err
    assert cli.main([command, "--input", str(path), "--cap-override"]) == 0
    assert strip_timing(capsys.readouterr().out) == uncapped


@pytest.mark.parametrize("datum, size, r, e", [(_CRAFTED, 4096, 6, 66), (_B_ALONE, 1024, 5, 33)],
                         ids=["crafted-d2", "B"])
def test_kernel_job_on_data_the_scan_got_wrong(datum, size, r, e, tmp_path, capsys):
    # the scan reported size 4 and e = 2 for the first and refused the
    # second as not rational below degree 24
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"datum": datum}))
    assert cli.main(["kernel", "--input", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["size"], result["r"], result["splitting_degree"]) == (size, r, e)
    assert len(result["elements"]) == size


@pytest.mark.parametrize("datum, what", [
    (_F25_DRAW, "extension field over "),  # e = 124 over F_25, past 2^128
    (_diag_datum_json(2, 1, 13, [1]), "kernel listing over 67108864 points"),  # x^(2^13+1)
], ids=["f25-draw", "x8193"])
def test_kernel_job_past_a_cap_exits_3(datum, what, tmp_path, capsys):
    code, err = run_main("kernel", {"datum": datum}, tmp_path, capsys)
    assert code == 3 and f"scale cap exceeded: {what}" in err


@pytest.mark.parametrize("command, key", [("kernel", "datum"), ("heisenberg", "from_datum")])
def test_splitting_degree_search_stops_with_the_cap_lifted(command, key, tmp_path, capsys):
    # x^(2^65+1) splits at e = 130, past 2^128 for every q: --cap-override
    # lifts the field cap, but the search for e still ends at degree 129
    path = tmp_path / "job.json"
    path.write_text(json.dumps({key: _diag_datum_json(2, 1, 65, [1])}))
    assert cli.main([command, "--input", str(path), "--cap-override"]) == 2
    assert "splitting degree above 129, past the field bound 2^128" in capsys.readouterr().err


@pytest.mark.parametrize("command, job, size", [
    ("hasse-davenport", {"datum": _diag_datum_json(2, 1, 1, [1]), "r": 1, "n_max": 20000}, 20000),
    ("zeta", {"curve": {**_X129_F2, "g1": {"15": [1]}}}, 32770),  # x^(2^15+1): n <= B + 2
], ids=["hasse-davenport", "zeta"])
def test_a_refused_size_past_4300_digits_exits_3(command, job, size):
    # 2^size has more than 4300 digits, which Python will not write in
    # decimal: the refusal names the power of two instead
    proc = run_cli(command, job)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"scale cap exceeded: extension field over at least 2^{size} points "
                           f"exceeds cap {2**128}\n")


def _pairing_edit(key, value):
    return _with("heis-p2", lambda j: j["pairing"].__setitem__(key, value))


def _table_edit(edit):
    return _with("heis-p2", lambda j: edit(j["pairing"]["table"]))


@pytest.mark.parametrize("job, why", [
    (_pairing_edit("a_modulus", 2.7), "int a_modulus >= 1"),
    (_pairing_edit("a_modulus", "2"), "int a_modulus >= 1"),
    (_pairing_edit("a_modulus", True), "int a_modulus >= 1"),
    (_pairing_edit("a_modulus", 0), "int a_modulus >= 1"),
    (_pairing_edit("moduli", [2.0, 2.9]), "moduli must be ints >= 1"),
    (_pairing_edit("moduli", [True, 2, 2]), "moduli must be ints >= 1"),
    (_pairing_edit("moduli", [2, 0]), "moduli must be ints >= 1"),
    (_table_edit(lambda t: t[1].__setitem__(2, 3)), "ints in [0, a_modulus)"),
    (_table_edit(lambda t: t[1].__setitem__(2, True)), "ints in [0, a_modulus)"),
    (_table_edit(lambda t: t[1].__setitem__(2, -1)), "ints in [0, a_modulus)"),
    (_table_edit(lambda t: t[1].__setitem__(2, 1.0)), "ints in [0, a_modulus)"),
    (_table_edit(lambda t: [row.append(0) for row in t]), "4 rows of 4 ints"),
    (_table_edit(lambda t: t[1].pop()), "4 rows of 4 ints"),
    (_table_edit(lambda t: t.pop()), "4 rows of 4 ints"),
    (_pairing_edit("table", {}), "4 rows of 4 ints"),
], ids=["a-float", "a-string", "a-bool", "a-zero", "moduli-float", "moduli-bool", "moduli-zero",
        "entry-3-at-A2", "entry-bool", "entry-negative", "entry-float", "rows-too-long",
        "ragged", "short", "not-a-list"])
def test_pairing_job_decodes_strictly(job, why, tmp_path, capsys):
    # nothing is rounded, reduced or truncated: a malformed pairing is invalid
    # input (exit 2), never a traceback or a pairing of something else
    code, err = run_main("heisenberg", job, tmp_path, capsys)
    assert code == 2
    assert "invalid input" in err and why in err


@pytest.mark.parametrize("psi", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_psi_unit_decodes_strictly(psi, monkeypatch, tmp_path, capsys):
    # a psi_unit that is not an int is invalid input, refused before any
    # group is built: true is not read as 1
    from gausslab import heisenberg

    def build(*args, **kwargs):
        raise TheoremViolated("a group was built")

    monkeypatch.setattr(heisenberg, "AlternatingPairing", build)
    monkeypatch.setattr(heisenberg, "heisenberg_from_datum", build)
    for job in (corpus()["heis-p2"]["input"], {"from_datum": _X5_F2}):
        code, err = run_main("heisenberg", {**job, "psi_unit": psi}, tmp_path, capsys)
        assert code == 2
        assert "invalid input" in err and "psi_unit must be an integer" in err


def test_heisenberg_of_a_witt_datum_is_refused_without_traceback():
    # the W2-valued deck construction is deferred, and so is d = 2: invalid
    # input, exit 2; a precomposition and a cross term are resolved in the
    # term plan and build their deck groups, each report (timing stripped)
    # that of the datum with the same plan
    refusals = [
        ({"field": {"p": 2, "m": 1}, "d": 1, "terms": [{"kind": "wittlin", "j": 0, "c": [1]}]},
         "the W2-valued p = 2 case is deferred"),
        (corpus()["frobpair-gl-q2-hd"]["input"]["datum"], "the deck construction is one-dimensional"),
    ]
    for datum, message in refusals:
        proc = run_cli("heisenberg", {"from_datum": datum})
        assert proc.returncode == 2, message
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
    for pair in (_X3_PRECOMPOSED_F2, _CROSS0_F3):
        reports = []
        for datum in pair:
            proc = run_cli("heisenberg", {"from_datum": datum})
            assert proc.returncode == 0, proc.stderr
            reports.append(strip_timing(proc.stdout))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["ok"] is True


def _datum_json(p, m, *terms):
    return {"field": {"p": p, "m": m}, "d": 1, "terms": list(terms)}


def _term(kind, **fields):
    return {"kind": kind, "j": 0, **fields}


# pairs of data with one term plan: a cross term a x^(p^i) x and the diagonal
# monomial (i >= 1) or the half square 2a (i = 0, odd p); a x^(p^i + 1), a in
# F_p, precomposed with X^p and not
_CROSS0_F3 = (_datum_json(3, 1, _term("diag", i=1, a=[1]), _term("cross", k=0, i=0, a=[1])),
              _datum_json(3, 1, _term("diag", i=1, a=[1]), _term("halfsq", a=[2])))
_X3_PRECOMPOSED_F2 = (_datum_json(2, 1, _term("diag", i=1, a=[1]), _term("precompose", f={"1": [1]})),
                      corpus()["heis-from-datum-p2"]["input"]["from_datum"])
_SAME_PLAN = [
    (_datum_json(2, 1, _term("cross", k=0, i=1, a=[1])), _datum_json(2, 1, _term("diag", i=1, a=[1]))),
    (_datum_json(2, 2, _term("cross", k=0, i=1, a=[0, 1])),
     _datum_json(2, 2, _term("diag", i=1, a=[0, 1]))),
    (_datum_json(3, 1, _term("cross", k=0, i=2, a=[2])), _datum_json(3, 1, _term("diag", i=2, a=[2]))),
    _CROSS0_F3,
    (_datum_json(5, 1, _term("diag", i=1, a=[1]), _term("cross", k=0, i=0, a=[3])),
     _datum_json(5, 1, _term("diag", i=1, a=[1]), _term("halfsq", a=[1]))),
    (_datum_json(2, 1, _term("diag", i=2, a=[1]), _term("precompose", f={"1": [1]})),
     _datum_json(2, 1, _term("diag", i=2, a=[1]))),
    (_datum_json(3, 1, _term("diag", i=1, a=[2]), _term("precompose", f={"1": [1]})),
     _datum_json(3, 1, _term("diag", i=1, a=[2]))),
    _X3_PRECOMPOSED_F2,
]


@pytest.mark.parametrize("first, second", _SAME_PLAN)
def test_heisenberg_reports_of_data_with_one_term_plan_are_identical(first, second, tmp_path,
                                                                    capsys):
    path, reports = tmp_path / "job.json", []
    for datum in (first, second):
        path.write_text(json.dumps({"from_datum": datum}))
        assert cli.main(["heisenberg", "--input", str(path)]) == 0
        reports.append(strip_timing(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["ok"] is True


def test_heisenberg_covering_points_do_not_sweep_the_field(monkeypatch, tmp_path, capsys):
    # the covering points come from a linear solve over E = F_64: a cap below
    # q_E = 64 but above |K|^2 = 16 and the (m*n)^2 = 36 Gram entries of the
    # kernel at n = 3 changes neither the exit code nor the output
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"from_datum": _OMEGA_X3_F4}))
    assert cli.main(["heisenberg", "--input", str(path)]) == 0
    uncapped = strip_timing(capsys.readouterr().out)
    monkeypatch.setenv("GAUSSLAB_CAP", "48")
    assert cli.main(["heisenberg", "--input", str(path)]) == 0
    assert strip_timing(capsys.readouterr().out) == uncapped


@pytest.mark.parametrize("fixture, swept", [("surface-p2", 8), ("surface-p3", 27)])
def test_surface_job_caps_the_field_it_sweeps(fixture, swept, monkeypatch, tmp_path, capsys):
    # a surface job sweeps F_{q^n} up to n = n_max = 3: q^3 points pass the
    # cap, one point less exits 3, and --cap-override lifts the refusal
    job = corpus()[fixture]["input"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    monkeypatch.setenv("GAUSSLAB_CAP", str(swept))
    assert cli.main(["supersingular", "--input", str(path)]) == 0
    capped = strip_timing(capsys.readouterr().out)
    monkeypatch.setenv("GAUSSLAB_CAP", str(swept - 1))
    assert cli.main(["supersingular", "--input", str(path)]) == 3
    assert (f"scale cap exceeded: surface summands over {swept} points exceeds cap {swept - 1}"
            in capsys.readouterr().err)
    assert cli.main(["supersingular", "--input", str(path), "--cap-override"]) == 0
    assert strip_timing(capsys.readouterr().out) == capped


def test_suite_reports_the_broken_expectation(monkeypatch):
    # a doctored expectation fails its fixture and names key, expected, actual;
    # the fixtures that pass keep the entry they always had
    doctored = corpus()
    doctored["heis-p2"]["expect"]["order"] = 16
    monkeypatch.setattr("gausslab.corpus.corpus", lambda: doctored)
    report = dispatch("suite", {"only": ["heis-p2", "exeasy-z2"]}, {"workers": 1})
    assert report["ok"] is False
    assert report["result"]["fixtures"] == {
        "heis-p2": {"ok": False, "command": "heisenberg",
                    "mismatch": {"key": "order", "expected": 16, "actual": 8}},
        "exeasy-z2": {"ok": True, "command": "gauss-sum"},
    }


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


def test_kernel_size_check_is_computed_from_the_listing(monkeypatch, tmp_path, capsys):
    # x^5 over F_2: K has p^(2r) = 16 distinct elements; a listing that repeats
    # one element in place of another fails the check with exit 1 and a witness
    from gausslab import charsum

    path = tmp_path / "job.json"
    path.write_text(json.dumps({"datum": _X5_F2}))
    assert cli.main(["kernel", "--input", str(path)]) == 0
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check == {"name": "size-is-even-p-power", "pass": True}

    listing = charsum.KernelData.elements
    monkeypatch.setattr(charsum.KernelData, "elements",
                        property(lambda self: listing.fget(self)[:-1] + listing.fget(self)[:1]))
    assert cli.main(["kernel", "--input", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["result"]["size"] == 16
    assert len(report["result"]["elements"]) == 16
    [check] = report["checks"]
    assert check == {"name": "size-is-even-p-power", "pass": False,
                     "witness": {"size": 16, "p^2r": 16, "listed": 16, "distinct": 15}}


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


# Every subcommand with the job it runs in the footprint test: its first corpus
# fixture by name, or a small job for the four commands the corpus lacks; a
# case named after a fixture runs that fixture.
_FOOTPRINT_JOBS = {
    **{entry["command"]: name for name, entry in sorted(corpus().items(), reverse=True)},
    "field": {"p": 2, "m": 2},
    "witt": {"field": {"p": 2, "m": 1}, "op": "frobenius", "u": [[1], [1]]},
    "char-sum": {"datum": corpus()["diag-x3-f4-hd"]["input"]["datum"], "n": 1},
    "count-points": {"curve": corpus()["vdgv-f2-zeta"]["input"]["curve"], "n": 2},
    "suite": {"only": ["exeasy-z2"]},
    "heis-p2": "heis-p2",  # an explicit pairing: no datum, so no charsum
}

# The library modules beyond `gausslab`, `cli` and `errors` each subcommand loads.
_CHARSUM = {"charsum", "exactalg", "fields"}
_VARIETIES = {"charsum", "exactalg", "fields", "varieties"}
_FOOTPRINT = {
    "field": {"fields"},
    "witt": {"fields"},
    "gauss-sum": {"exactalg", "quadform"},
    "gauss-verify": {"exactalg", "quadform"},
    "char-sum": _CHARSUM,
    "hasse-davenport": _CHARSUM,
    "kernel": _CHARSUM,
    "clb-normalize": _CHARSUM,
    "clb-cocycle": _CHARSUM,
    "invariance": _CHARSUM,
    "heisenberg": {"charsum", "exactalg", "fields", "heisenberg", "quadform"},
    "count-points": _VARIETIES,
    "zeta": _VARIETIES,
    "supersingular": _VARIETIES,
    "endw2-verify": _VARIETIES,
    "suite": {"charsum", "corpus", "exactalg", "fields", "quadform", "varieties"},
    "heis-p2": {"exactalg", "fields", "heisenberg", "quadform"},
}

_FOOTPRINT_CODE = """
import sys
before = set(sys.modules)
import json
sys.path.insert(0, sys.argv[1])
from gausslab import cli
command, job = json.loads(sys.stdin.read())
cli.dispatch(command, job, {"workers": 1})
new = set(sys.modules) - before
print(json.dumps([sorted(m for m in new if m.startswith("gausslab")),
                  "dataclasses" in new, "random" in new, "fractions" in new]))
"""


@pytest.mark.parametrize("case", [*cli.SUBCOMMANDS, "heis-p2"])
def test_subcommand_imports_only_what_it_runs(case):
    # a fresh interpreter per case: pytest itself has loaded dataclasses,
    # and -S keeps site hooks from loading modules before the snapshot
    import gausslab

    assert set(_FOOTPRINT) == set(_FOOTPRINT_JOBS) >= set(cli.SUBCOMMANDS)
    command = case if case in cli.SUBCOMMANDS else corpus()[case]["command"]
    job = _FOOTPRINT_JOBS[case]
    if isinstance(job, str):
        job = corpus()[job]["input"]
    src = str(Path(gausslab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _FOOTPRINT_CODE, src],
                          input=json.dumps([command, job]), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, dataclasses_loaded, random_loaded, fractions_loaded = json.loads(proc.stdout)
    base = ["gausslab", "gausslab.cli", "gausslab.errors"]
    assert modules == sorted(base + [f"gausslab.{m}" for m in _FOOTPRINT[case]])
    assert not dataclasses_loaded
    assert not fractions_loaded  # exact algebra runs on ints alone
    assert random_loaded == (command == "suite")  # corpus draws random curves
