"""Batch command-line front end: exact, deterministic, machine-readable.

Every subcommand consumes a JSON job descriptor and emits a JSON report to
stdout (diagnostics to stderr).  All numbers in reports are exact: cyclotomic
values as {order, coeffs} with rational coefficient pairs, integers as decimal
strings.  Exit codes: 0 all checks pass, 1 a mathematical check failed (the
report carries a witness), 2 invalid input, 3 scale cap exceeded, 4 internal
fault (a theorem the library relies on failed: a bug, not bad input).
"""

import argparse
import json
import os
import sys
import time

from .errors import GaussLabError, ScaleCapExceeded, TheoremViolated, checked_int


def _check(name, passed, witness=None):
    out = {"name": name, "pass": bool(passed)}
    if witness is not None and not passed:
        out["witness"] = witness
    return out


def dispatch(command, job, options=None):
    """Route a job descriptor to the library; returns the report dict.

    Descriptors are schema-checked first: unknown fields are rejected.
    """
    options = options or {}
    started = time.perf_counter()
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    handler, allowed = _COMMANDS[command]
    unknown = set(job) - allowed
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


# Each handler imports the modules it uses, so a CLI process loads (and,
# without a bytecode cache, compiles) only what its subcommand runs.

def _cmd_field(job, options):
    from .fields import FiniteField, _is_irreducible

    field = FiniteField.from_json(job)
    checks = [_check("modulus-irreducible", _is_irreducible(field.modulus, field.p),
                     witness=list(field.modulus))]
    return field.to_json(), checks


def _cmd_witt(job, options):
    from .fields import FiniteField, WittVector2, witt_frobenius, witt_trace

    field = FiniteField.from_json(job["field"])
    el = field.element_from_json
    u = WittVector2(field, el(job["u"][0]), el(job["u"][1]))
    op = job.get("op", "add")
    if op in ("add", "mul"):
        v = WittVector2(field, el(job["v"][0]), el(job["v"][1]))
        w = u + v if op == "add" else u * v
        result = {"x0": list(w.x0.coeffs), "x1": list(w.x1.coeffs)}
    elif op == "frobenius":
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
    from .quadform import QuadraticForm

    form = QuadraticForm.from_json(job["form"])
    tau = form.gauss_sum()
    return {"tau": tau.to_json()}, []


def _cmd_gauss_verify(job, options):
    from .exactalg import abs_square
    from .quadform import QuadraticForm, char2_invariant, recursive_gauss_eval

    form = QuadraticForm.from_json(job["form"])
    tau = form.gauss_sum()
    witness = form.witness
    if witness is not None:
        witness = [list(t) for t in witness]
        return {"tau": tau.to_json()}, [_check("is-quadratic", False, witness=witness)]
    checks = [_check("is-quadratic", True)]
    result = {"tau": tau.to_json(), "nondegenerate": form.is_nondegenerate()}
    if form.is_nondegenerate():
        order = form.verify_gauss_sum_theorem()
        abs_ok = form.gauss_chain.abs_ok
        result["abs_square"] = str(form.group.order) if abs_ok else abs_square(tau).to_json()
        checks.append(_check("abs-square-is-order", abs_ok, witness=result["abs_square"]))
        result["ratio_order"] = order
        oracle = recursive_gauss_eval(form)
        checks.append(
            _check("recursive-oracle-agrees", oracle == tau,
                   witness=None if oracle == tau else oracle.to_json())
        )
        if all(d == 2 for d in form.group.moduli) and form.group.moduli:
            a, qa = char2_invariant(form)
            result["char2_element"] = list(a)
            square, expected = tau * tau, qa * form.group.order  # tau^2 = Q(a)|M|
            witness = None if square == expected else [square.to_json(), expected.to_json()]
            checks.append(_check("char2-square-identity", witness is None, witness=witness))
    return result, checks


def _job_int(job, key, default, least=1):
    """job[key], or the default when absent: an extension degree or a
    Frobenius index (least 1), a Betti number or the r of p^r (least 0), or a
    Frobenius exponent or character unit of either sign (least None), through
    `checked_int`.  A required field passes job[key] as its default, so its
    absence stays a KeyError."""
    return checked_int(job[key], key, least) if key in job else default


def _parse_datum(job):
    from .charsum import QuadDatum

    return QuadDatum.from_json(job["datum"])


def _cmd_char_sum(job, options):
    from .charsum import char_sum

    datum = _parse_datum(job)
    n = options.get("ext") or _job_int(job, "n", 1)
    s = char_sum(datum, n, override=options.get("override", False))
    return {"n": n, "sum": s.to_json()}, []


def _cmd_hasse_davenport(job, options):
    from .charsum import hasse_davenport_check

    datum = _parse_datum(job)
    rep = hasse_davenport_check(
        datum,
        _job_int(job, "r", job["r"], least=0),
        n_max=_job_int(job, "n_max", 3),
        override=options.get("override", False),
    )
    result = {
        "r": rep.r,
        "tau": None if rep.tau is None else rep.tau.to_json(),
        "sums": [s.to_json() for s in rep.sums],
        "residuals": rep.residuals,
    }
    # a refuted r has no residuals: the witness is the largest r a chain allows
    witness = result["residuals"] if rep.tau is not None else {
        "r": rep.r, "largest_r": datum.field.m * datum.d // 2}
    checks = [
        _check("chain-identity", rep.chain_ok, witness=witness),
        _check("fev-abs-square", rep.fev_abs_ok),
        _check("fev-root-of-unity", rep.fev_ratio_order is not None),
    ]
    return result, checks


def _cmd_kernel(job, options):
    from .charsum import geometric_kernel

    datum = _parse_datum(job)
    ker = geometric_kernel(datum, override=options.get("override", False))
    listed = ker.elements
    result = {
        "size": ker.size,
        "r": ker.r,
        "splitting_degree": ker.splitting_degree,
        "elements": [[list(x.coeffs) for x in pt] for pt in listed],
    }
    # the listing is K: size = p^(2r) elements, all distinct
    counts = {"size": ker.size, "p^2r": datum.field.p ** (2 * ker.r), "listed": len(listed),
              "distinct": len(set(listed))}
    return result, [_check("size-is-even-p-power", len(set(counts.values())) == 1, witness=counts)]


def _cmd_clb_normalize(job, options):
    from .charsum import canonical_quadratic, symbolic_pairing

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
    from .charsum import clb_cocycle_identity_check
    from .fields import FiniteField

    field = FiniteField.from_json(job["field"])
    holds = clb_cocycle_identity_check(
        _job_int(job, "i", job["i"]), field.element_from_json(job["a"]), field,
        _job_int(job, "n", 1),
        override=options.get("override", False),
    )
    return {"holds": holds}, [_check("cocycle-identity", holds)]


def _cmd_heisenberg(job, options):
    from .heisenberg import (
        AlternatingPairing,
        build_group,
        check_faithful,
        heisenberg_from_datum,
        stone_von_neumann,
    )
    from .quadform import FiniteAbelianGroup

    psi_unit = _job_int(job, "psi_unit", 1, least=None)
    if "from_datum" in job:
        from .charsum import QuadDatum

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
    rep = stone_von_neumann(group, psi_unit)
    faithful = check_faithful(rep)
    characters = rep.characters()
    # all but A |K| / dim of the characters are one shared zero: convert each
    # distinct object once
    as_json = {key: chi.to_json() for key, chi in {id(chi): chi for chi in characters}.items()}
    char_table = {f"{a},{k}": as_json[id(chi)] for (a, k), chi in zip(group.elements(), characters)}
    result = {
        "order": group.order,
        "a_modulus": group.a_modulus,
        "darboux_ranks": group.orders,
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
    from .varieties import CurveSpec, count_points

    spec = CurveSpec.from_json(job["curve"])
    n = options.get("ext") or _job_int(job, "n", 1)
    return {
        "n": n,
        "count": str(count_points(spec, n, override=options.get("override", False))),
    }, []


def _cmd_zeta(job, options):
    from .varieties import CurveSpec, betti_closure_check, zeta_pipeline

    spec = CurveSpec.from_json(job["curve"])
    override = options.get("override", False)
    b = _job_int(job, "b", None, least=0)
    # the closure check runs the pipeline at the Betti number: each N_n is
    # counted once unless b asks for another degree
    closure_ok, data = betti_closure_check(spec, override=override)
    if b is not None and b != data.betti:
        data = zeta_pipeline(spec, b, override=override)
    result = data.to_json()
    checks = [
        _check("weil-certificate", data.certificate is not None),
        _check("betti-closure", closure_ok),
    ]
    return result, checks


def _cmd_supersingular(job, options):
    override = options.get("override", False)
    if "surface" in job:
        from .varieties import SurfaceSpec, surface_counts, surface_summand_certificates

        spec = SurfaceSpec.from_json(job["surface"])
        summands = surface_summand_certificates(
            spec, n_max=_job_int(job, "n_max", 3), override=override
        )
        displayed, flags = surface_counts(spec, 1, override=override)
        result = {
            "equations": list(spec.defining_equations()),
            "displayed_count_n1": str(displayed),
            "flags": flags,
            "summands": [{"psi": s.psi_exponent, "kind": s.kind, "r": s.r, "weight": s.weight,
                          "ok": s.ok, "sums": [x.to_json() for x in s.sums]} for s in summands],
        }
        return result, [_check(f"summand-psi{s.psi_exponent}", s.ok) for s in summands]
    if "curve" in job:
        from .varieties import CurveSpec, zeta_pipeline

        spec = CurveSpec.from_json(job["curve"])
        data = zeta_pipeline(spec, _job_int(job, "b", None, least=0), override=override)
        cert = data.certificate
        result = data.to_json()
        return result, [_check("weil-certificate", cert is not None)]
    from .exactalg import IntPolynomial, weil_certificate

    l_poly = job["l_poly"]
    if not isinstance(l_poly, list):
        raise ValueError(f"l_poly must be a list of ints, got {l_poly!r}")
    coeffs = [checked_int(c, f"l_poly[{k}]") for k, c in enumerate(l_poly)]
    cert = weil_certificate(IntPolynomial(coeffs), job["q"], job.get("i", 1))
    result = {
        "certificate": None
        if cert is None
        else {"m": cert[0], "root_orders": {str(k): v for k, v in cert[1].items()}}
    }
    return result, [_check("weil-certificate", cert is not None)]


def _cmd_endw2_verify(job, options):
    from .fields import AdditivePolynomial, FiniteField, exponent_dict_from_json
    from .varieties import mutated_endomorphism, verify_additive, w2_endomorphism

    field = FiniteField.from_json(job["field"])
    f_coeffs = exponent_dict_from_json(field, job["f"])
    r_poly = AdditivePolynomial.from_json(field, job["r"]) if "r" in job else None
    endo = w2_endomorphism(field, f_coeffs, r_poly)
    n = _job_int(job, "n", 1)
    ok = verify_additive(endo, n, override=options.get("override", False))
    bad = mutated_endomorphism(endo, delta_exp=_job_int(job, "mutate_exp", 0, least=None))
    bad_ok = verify_additive(bad, n, override=options.get("override", False))
    result = {"additive": ok, "mutated_additive": bad_ok}
    checks = [
        _check("construction-additive", ok),
        _check("mutated-g2-fails", not bad_ok),
    ]
    return result, checks


def _cmd_invariance(job, options):
    from .charsum import invariance_check

    datum = _parse_datum(job)
    field = datum.field
    matrices = [
        [[field.element_from_json(c) for c in row] for row in mat] for mat in job["matrices"]
    ]
    n = options.get("ext") or _job_int(job, "n", 1)
    ok = invariance_check(datum, matrices, n, override=options.get("override", False))
    return {"invariant": ok}, [_check("invariance", ok)]


def _cmd_suite(job, options):
    from .corpus import corpus

    jobs = corpus()
    names = job.get("only") or sorted(jobs)
    results = {}
    all_ok = True
    for name in names:
        entry = jobs[name]
        report = dispatch(entry["command"], entry["input"], options)
        mismatch = _expectation_mismatch(entry, report)
        ok = report["ok"] and mismatch is None
        all_ok = all_ok and ok
        results[name] = {"ok": ok, "command": entry["command"]}
        if mismatch is not None:
            results[name]["mismatch"] = mismatch
    return {"fixtures": results}, [_check("all-fixtures", all_ok)]


# Expectation keys read from somewhere other than `result[key]`.
_EXPECTATION_SOURCES = {
    "tau_coeffs": lambda report: report["result"].get("tau", {}).get("coeffs"),
    "tau": lambda report: _cyc_as_str(report["result"].get("tau", {})),
    "ok": lambda report: report["ok"],
    "all_ok": lambda report: report["ok"],
    "m": lambda report: (report["result"].get("certificate") or {}).get("m"),
    "certified": lambda report: report["result"].get("certificate") is not None,
}
_ABSENT = object()


def _expectation_mismatch(entry, report):
    """{key, expected, actual} for the first expectation the report breaks, or
    None; a result key the report lacks breaks it with actual None."""
    for key, want in entry.get("expect", {}).items():
        source = _EXPECTATION_SOURCES.get(key)
        got = source(report) if source else report["result"].get(key, _ABSENT)
        if got != want:
            return {"key": key, "expected": want, "actual": None if got is _ABSENT else got}
    return None


def _cyc_as_str(obj):
    """Decimal string when the serialized cyclotomic value is rational."""
    coeffs = obj.get("coeffs", [])
    if not coeffs:
        return None
    head = coeffs[0]
    if any(num != 0 for num, _ in coeffs[1:]) or head[1] != 1:
        return None
    return str(head[0])


# command: (handler, the keys its job may carry), in the order of the
# argparse choices
_COMMANDS = {
    "field": (_cmd_field, {"p", "m", "modulus"}),
    "witt": (_cmd_witt, {"field", "op", "u", "v"}),
    "gauss-sum": (_cmd_gauss_sum, {"form"}),
    "gauss-verify": (_cmd_gauss_verify, {"form"}),
    "char-sum": (_cmd_char_sum, {"datum", "n"}),
    "hasse-davenport": (_cmd_hasse_davenport, {"datum", "r", "n_max"}),
    "kernel": (_cmd_kernel, {"datum"}),
    "clb-normalize": (_cmd_clb_normalize, {"datum"}),
    "clb-cocycle": (_cmd_clb_cocycle, {"field", "i", "a", "n"}),
    "heisenberg": (_cmd_heisenberg, {"pairing", "from_datum", "psi_unit"}),
    "count-points": (_cmd_count_points, {"curve", "n"}),
    "zeta": (_cmd_zeta, {"curve", "b"}),
    "supersingular": (_cmd_supersingular, {"surface", "curve", "l_poly", "q", "i", "n_max", "b"}),
    "endw2-verify": (_cmd_endw2_verify, {"field", "f", "r", "n", "mutate_exp"}),
    "invariance": (_cmd_invariance, {"datum", "matrices", "n"}),
    "suite": (_cmd_suite, {"only"}),
}
SUBCOMMANDS = tuple(_COMMANDS)


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
                        help="at least 1; accepted for compatibility, never "
                             "changes a result (character sums are closed-form)")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--cap-override", action="store_true",
                        help="ignore the desk-scale enumeration cap")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.ext is not None and args.ext < 1:
        parser.error(f"--ext must be at least 1, got {args.ext}")

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
    except TheoremViolated as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 4
    except (GaussLabError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid input or failed precondition: {exc}", file=sys.stderr)
        return 2
    report["seed"] = args.seed
    try:
        rendered = _render(report, args.format)
    except (TypeError, ValueError) as exc:  # a report the library built cannot be written
        print(f"internal fault: the report cannot be rendered: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(rendered)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
