"""Batch command-line front end: exact, deterministic, machine-readable.

Every subcommand consumes a JSON job descriptor and emits a JSON report to
stdout (diagnostics to stderr).  All numbers in reports are exact: cyclotomic
values as {order, coeffs} with rational coefficient pairs, integers as decimal
strings.  Exit codes: 0 all checks pass, 1 a mathematical check failed (the
report carries a witness), 2 invalid input, 3 scale cap exceeded.
"""

import argparse
import json
import os
import sys
import time

from . import corpus as corpus_mod
from .charsum import (
    QuadDatum,
    canonical_quadratic,
    char_sum,
    clb_cocycle_identity_check,
    derive_pairing,
    geometric_kernel,
    hasse_davenport_check,
    invariance_check,
    symbolic_pairing,
)
from .errors import GaussLabError, ScaleCapExceeded
from .exactalg import IntPolynomial, abs_square, weil_certificate
from .fields import AdditivePolynomial, FiniteField, WittVector2, witt_trace
from .heisenberg import (
    AlternatingPairing,
    build_group,
    check_faithful,
    darboux,
    heisenberg_from_datum,
    stone_von_neumann,
)
from .quadform import (
    FiniteAbelianGroup,
    QuadraticForm,
    char2_invariant,
    recursive_gauss_eval,
)
from .varieties import (
    CurveSpec,
    SurfaceSpec,
    betti_closure_check,
    count_points,
    surface_counts,
    surface_summand_certificates,
    verify_additive,
    w2_endomorphism,
    mutated_endomorphism,
    zeta_pipeline,
)

SUBCOMMANDS = (
    "field",
    "witt",
    "gauss-sum",
    "gauss-verify",
    "char-sum",
    "hasse-davenport",
    "kernel",
    "clb-normalize",
    "clb-cocycle",
    "heisenberg",
    "count-points",
    "zeta",
    "supersingular",
    "endw2-verify",
    "invariance",
    "suite",
)


def _cyc(value):
    return value.to_json()


def _check(name, passed, witness=None):
    out = {"name": name, "pass": bool(passed)}
    if witness is not None and not passed:
        out["witness"] = witness
    return out


_ALLOWED_KEYS = {
    "field": {"p", "m", "modulus"},
    "witt": {"field", "op", "u", "v"},
    "gauss-sum": {"form"},
    "gauss-verify": {"form"},
    "char-sum": {"datum", "n"},
    "hasse-davenport": {"datum", "r", "n_max"},
    "kernel": {"datum"},
    "clb-normalize": {"datum"},
    "clb-cocycle": {"field", "i", "a", "n"},
    "heisenberg": {"pairing", "from_datum", "psi_unit"},
    "count-points": {"curve", "n"},
    "zeta": {"curve", "b"},
    "supersingular": {"surface", "curve", "l_poly", "q", "i", "n_max", "b"},
    "endw2-verify": {"field", "f", "r", "n", "mutate_exp"},
    "invariance": {"datum", "matrices", "n"},
    "suite": {"only"},
}


def dispatch(command, job, options=None):
    """Route a job descriptor to the library; returns the report dict.

    Descriptors are schema-checked first: unknown fields are rejected.
    """
    options = options or {}
    started = time.perf_counter()
    handler = _HANDLERS.get(command)
    if handler is None:
        raise ValueError(f"unknown command {command!r}")
    unknown = set(job) - _ALLOWED_KEYS[command]
    if unknown:
        raise ValueError(f"unknown fields for {command}: {sorted(unknown)}")
    result, checks = handler(job, options)
    report = {
        "command": command,
        "result": result,
        "checks": checks,
        "ok": all(c["pass"] for c in checks) if checks else True,
        "timing_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    return report


def _cmd_field(job, options):
    field = FiniteField.from_json(job)
    checks = [_check("modulus-irreducible", True)]
    return field.to_json(), checks


def _cmd_witt(job, options):
    field = FiniteField.from_json(job["field"])
    u = WittVector2(field, job["u"][0], job["u"][1])
    op = job.get("op", "add")
    if op in ("add", "mul"):
        v = WittVector2(field, job["v"][0], job["v"][1])
        w = u + v if op == "add" else u * v
        result = {"x0": list(w.x0.coeffs), "x1": list(w.x1.coeffs)}
    elif op == "frobenius":
        from .fields import witt_frobenius

        w = witt_frobenius(u)
        result = {"x0": list(w.x0.coeffs), "x1": list(w.x1.coeffs)}
    elif op == "restriction":
        result = {"value": list(u.x0.coeffs)}
    elif op == "trace":
        result = {"trace_mod_p2": witt_trace(u)}
    else:
        raise ValueError(f"unknown witt op {op!r}")
    return result, []


def _cmd_gauss_sum(job, options):
    form = QuadraticForm.from_json(job["form"])
    tau = form.gauss_sum()
    return {"tau": _cyc(tau)}, []


def _cmd_gauss_verify(job, options):
    form = QuadraticForm.from_json(job["form"])
    tau = form.gauss_sum()
    witness = form.pairing.witness
    if witness is not None:
        witness = [list(t) for t in witness]
        return {"tau": _cyc(tau)}, [_check("is-quadratic", False, witness=witness)]
    checks = [_check("is-quadratic", True)]
    result = {"tau": _cyc(tau), "nondegenerate": form.is_nondegenerate()}
    if form.is_nondegenerate():
        order = form.verify_gauss_sum_theorem()
        result["abs_square"] = str(form.group.order)
        result["ratio_order"] = order
        checks.append(_check("abs-square-is-order", True))
        oracle = recursive_gauss_eval(form)
        checks.append(
            _check("recursive-oracle-agrees", oracle == tau, witness=_cyc(oracle))
        )
        if all(d == 2 for d in form.group.moduli) and form.group.moduli:
            a, tau2, qa = char2_invariant(form)
            result["char2_element"] = list(a)
            checks.append(_check("char2-square-identity", True))
    return result, checks


def _parse_datum(job):
    return QuadDatum.from_json(job["datum"])


def _cmd_char_sum(job, options):
    datum = _parse_datum(job)
    n = options.get("ext") or job.get("n", 1)
    s = char_sum(
        datum, n, workers=options.get("workers", 1), override=options.get("override", False)
    )
    return {"n": n, "sum": _cyc(s)}, []


def _cmd_hasse_davenport(job, options):
    datum = _parse_datum(job)
    rep = hasse_davenport_check(
        datum,
        job["r"],
        n_max=job.get("n_max", 3),
        workers=options.get("workers", 1),
        override=options.get("override", False),
    )
    result = {
        "r": rep.r,
        "tau": _cyc(rep.tau),
        "sums": [_cyc(s) for s in rep.sums],
        "residuals": rep.residuals,
    }
    checks = [
        _check("chain-identity", rep.chain_ok, witness=result["residuals"]),
        _check("fev-abs-square", rep.fev_abs_ok),
        _check("fev-root-of-unity", rep.fev_ratio_order is not None),
    ]
    return result, checks


def _cmd_kernel(job, options):
    datum = _parse_datum(job)
    ker = geometric_kernel(datum, override=options.get("override", False))
    result = {
        "size": ker.size,
        "r": ker.r,
        "splitting_degree": ker.splitting_degree,
        "elements": [[list(x.coeffs) for x in pt] for pt in ker.elements],
    }
    return result, [_check("size-is-even-p-power", True)]


def _cmd_clb_normalize(job, options):
    datum = _parse_datum(job)
    pairing = symbolic_pairing(datum)
    f00 = pairing.entry(0, 0) if datum.d == 1 else None
    result = {
        "symmetric": pairing.is_symmetric(),
        "diagonal": {str(i): list(a.coeffs) for i, a in f00.coeffs.items()}
        if f00 is not None
        else None,
    }
    checks = [_check("pairing-symmetric", pairing.is_symmetric())]
    if datum.d == 1:
        canon = canonical_quadratic(pairing)
        roundtrip = symbolic_pairing(canon) == pairing
        result["canonical"] = canon.to_json()
        result["roundtrip"] = roundtrip
        checks.append(_check("canonical-roundtrip", roundtrip))
    return result, checks


def _cmd_clb_cocycle(job, options):
    field = FiniteField.from_json(job["field"])
    holds = clb_cocycle_identity_check(
        job["i"], field.element(job["a"]), field, job.get("n", 1),
        override=options.get("override", False),
    )
    return {"holds": holds}, [_check("cocycle-identity", holds)]


def _cmd_heisenberg(job, options):
    if "from_datum" in job:
        datum = QuadDatum.from_json(job["from_datum"])
        dh = heisenberg_from_datum(datum, override=options.get("override", False))
        group = dh.group
        extra = {"kernel_size": dh.kernel.size, "splitting_degree": dh.kernel.splitting_degree}
    else:
        spec = job["pairing"]
        k_group = FiniteAbelianGroup(spec["moduli"])
        pairing = AlternatingPairing(k_group, spec["a_modulus"], spec["table"])
        group = build_group(pairing)
        extra = {}
    basis = group.basis
    rep = stone_von_neumann(group, job.get("psi_unit", 1))
    faithful = check_faithful(rep)
    char_table = {}
    for g in group.elements():
        char_table[f"{g[0]},{g[1]}"] = _cyc(rep.character(g))
    result = {
        "order": group.order,
        "a_modulus": group.a_modulus,
        "darboux_ranks": basis.ranks(group.k_group),
        "svn_dim": rep.dim,
        "faithful": faithful,
        "character_table": char_table,
        **extra,
    }
    checks = [
        _check("group-axioms-center-commutator", True),  # verified at build time
        _check("svn-irreducible-norm", True),  # verified at construction
        _check("faithful", faithful),
    ]
    return result, checks


def _cmd_count_points(job, options):
    spec = CurveSpec.from_json(job["curve"])
    n = options.get("ext") or job.get("n", 1)
    return {
        "n": n,
        "count": str(count_points(spec, n, override=options.get("override", False))),
    }, []


def _cmd_zeta(job, options):
    spec = CurveSpec.from_json(job["curve"])
    override = options.get("override", False)
    data = zeta_pipeline(spec, job.get("b"), override=override)
    closure_ok, _ = betti_closure_check(spec, override=override)
    result = data.to_json()
    checks = [
        _check("weil-certificate", data.certificate is not None),
        _check("betti-closure", closure_ok),
    ]
    return result, checks


def _cmd_supersingular(job, options):
    override = options.get("override", False)
    if "surface" in job:
        spec = SurfaceSpec.from_json(job["surface"])
        summands = surface_summand_certificates(
            spec, n_max=job.get("n_max", 3), override=override
        )
        displayed, flags = surface_counts(spec, 1, override=override)
        result = {
            "equations": list(spec.defining_equations()),
            "displayed_count_n1": str(displayed),
            "flags": flags,
            "summands": [
                {
                    "psi": s.psi_exponent,
                    "kind": s.kind,
                    "r": s.r,
                    "weight": s.weight,
                    "ok": s.ok,
                    "sums": [_cyc(x) for x in s.sums],
                }
                for s in summands
            ],
        }
        checks = [
            _check(f"summand-psi{s.psi_exponent}", s.ok) for s in summands
        ]
        return result, checks
    if "curve" in job:
        spec = CurveSpec.from_json(job["curve"])
        data = zeta_pipeline(spec, job.get("b"), override=override)
        cert = data.certificate
        result = data.to_json()
        return result, [_check("weil-certificate", cert is not None)]
    poly = IntPolynomial(job["l_poly"])
    cert = weil_certificate(poly, job["q"], job.get("i", 1))
    result = {
        "certificate": None
        if cert is None
        else {"m": cert[0], "root_orders": {str(k): v for k, v in cert[1].items()}}
    }
    return result, [_check("weil-certificate", cert is not None)]


def _cmd_endw2_verify(job, options):
    field = FiniteField.from_json(job["field"])
    f_coeffs = {int(i): field.element(c) for i, c in job["f"].items()}
    r_poly = (
        AdditivePolynomial.from_json(field, job["r"]) if job.get("r") else None
    )
    endo = w2_endomorphism(field, f_coeffs, r_poly)
    n = job.get("n", 1)
    ok = verify_additive(endo, n, override=options.get("override", False))
    bad = mutated_endomorphism(endo, delta_exp=job.get("mutate_exp", 0))
    bad_ok = verify_additive(bad, n, override=options.get("override", False))
    result = {"additive": ok, "mutated_additive": bad_ok}
    checks = [
        _check("construction-additive", ok),
        _check("mutated-g2-fails", not bad_ok),
    ]
    return result, checks


def _cmd_invariance(job, options):
    datum = _parse_datum(job)
    field = datum.field
    matrices = [
        [[field.element(c) for c in row] for row in mat] for mat in job["matrices"]
    ]
    n = options.get("ext") or job.get("n", 1)
    ok = invariance_check(datum, matrices, n, override=options.get("override", False))
    return {"invariant": ok}, [_check("invariance", ok)]


def _cmd_suite(job, options):
    jobs = corpus_mod.corpus()
    names = job.get("only") or sorted(jobs)
    results = {}
    all_ok = True
    for name in names:
        entry = jobs[name]
        report = dispatch(entry["command"], entry["input"], options)
        ok = report["ok"] and _expectations_met(entry, report)
        all_ok = all_ok and ok
        results[name] = {"ok": ok, "command": entry["command"]}
    return {"fixtures": results}, [_check("all-fixtures", all_ok)]


def _expectations_met(entry, report):
    exp = entry.get("expect", {})
    res = report["result"]
    for key, want in exp.items():
        if key == "tau_coeffs":
            if res.get("tau", {}).get("coeffs") != want:
                return False
        elif key == "tau":
            got = res.get("tau", {})
            if _cyc_as_str(got) != want:
                return False
        elif key == "ok":
            if report["ok"] != want:
                return False
        elif key == "m":
            if (res.get("certificate") or {}).get("m") != want:
                return False
        elif key == "certified":
            if (res.get("certificate") is not None) != want:
                return False
        elif key == "all_ok":
            if report["ok"] != want:
                return False
        elif key == "abs_square":
            if res.get("abs_square") != want:
                return False
        elif key in res:
            if res[key] != want:
                return False
        else:
            return False
    return True


def _cyc_as_str(obj):
    """Decimal string when the serialized cyclotomic value is rational."""
    coeffs = obj.get("coeffs", [])
    if not coeffs:
        return None
    head = coeffs[0]
    if any(num != 0 for num, _ in coeffs[1:]) or head[1] != 1:
        return None
    return str(head[0])


_HANDLERS = {
    "field": _cmd_field,
    "witt": _cmd_witt,
    "gauss-sum": _cmd_gauss_sum,
    "gauss-verify": _cmd_gauss_verify,
    "char-sum": _cmd_char_sum,
    "hasse-davenport": _cmd_hasse_davenport,
    "kernel": _cmd_kernel,
    "clb-normalize": _cmd_clb_normalize,
    "clb-cocycle": _cmd_clb_cocycle,
    "heisenberg": _cmd_heisenberg,
    "count-points": _cmd_count_points,
    "zeta": _cmd_zeta,
    "supersingular": _cmd_supersingular,
    "endw2-verify": _cmd_endw2_verify,
    "invariance": _cmd_invariance,
    "suite": _cmd_suite,
}


def _render(report, fmt):
    if fmt == "csv":
        lines = ["check,pass"]
        for c in report["checks"]:
            lines.append(f"{c['name']},{int(c['pass'])}")
        lines.append(f"ok,{int(report['ok'])}")
        return "\n".join(lines) + "\n"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gausslab",
        description="Exact Gauss sums, quadratic character data and supersingularity certificates.",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--input", help="JSON job descriptor file (default: stdin)")
    parser.add_argument("--ext", type=int, help="extension degree override")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="chunk count for partitioned exact sums; results "
                             "are worker-count-invariant (use 1 to debug)")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--cap-override", action="store_true",
                        help="ignore the desk-scale enumeration cap")
    args = parser.parse_args(argv)

    if args.command == "suite" and args.input is None:
        job = {}
    else:
        try:
            if args.input:
                with open(args.input) as fh:
                    job = json.load(fh)
            else:
                job = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            print(f"invalid JSON input: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"cannot read input: {exc}", file=sys.stderr)
            return 2

    options = {
        "ext": args.ext,
        "workers": args.workers,
        "seed": args.seed,
        "override": args.cap_override,
    }
    try:
        report = dispatch(args.command, job, options)
    except ScaleCapExceeded as exc:
        print(f"scale cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (GaussLabError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid input or failed precondition: {exc}", file=sys.stderr)
        return 2
    report["seed"] = args.seed
    sys.stdout.write(_render(report, args.format))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
