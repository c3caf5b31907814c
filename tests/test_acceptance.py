"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All checks are exact; runtime limits are asserted where the criteria state
them.
"""

import json
import re
import subprocess
import sys
import time

import pytest

from gausslab.charsum import (
    DiagMonomial,
    QuadDatum,
    char_sum,
    clb_cocycle_identity_check,
    geometric_kernel,
    hasse_davenport_check,
    invariance_check,
)
from gausslab.corpus import catalog_data, corpus
from gausslab.exactalg import abs_square, is_root_of_unity, zeta
from gausslab.fields import (
    AdditivePolynomial,
    WittVector2,
    make_field,
    witt_to_zp2,
)
from gausslab.heisenberg import (
    AlternatingPairing,
    build_group,
    check_faithful,
    heisenberg_from_datum,
    stone_von_neumann,
)
from gausslab.quadform import (
    FiniteAbelianGroup,
    QuadraticForm,
    char2_invariant,
    random_nondegenerate,
    recursive_gauss_eval,
)
from gausslab.varieties import (
    CurveSpec,
    betti_closure_check,
    betti_prediction,
    count_points,
    mutated_endomorphism,
    random_curve_spec,
    verify_additive,
    w2_endomorphism,
    zeta_pipeline,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)

EXEASY = QuadraticForm(FiniteAbelianGroup([2]), 4, [0, 1])


def _report(number, label, passed=True):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {label}")
    assert passed, f"criterion {number} failed: {label}"


def _criterion1_shapes():
    small = [
        (2,), (4,), (8,), (16,), (2, 2), (2, 4), (4, 4), (2, 2, 4),
        (2, 2, 2, 2), (3,), (9,), (3, 3), (3, 9), (3, 3, 3), (5,), (25,),
        (5, 5), (6,), (12,), (30,), (2, 6), (15,),
    ]
    medium = [
        (8, 8), (2, 4, 8), (4, 4, 4), (2, 2, 2, 2, 2, 2), (9, 9),
        (3, 3, 3, 3), (3, 3, 9), (5, 25), (5, 5, 5),
    ]
    heavy = [(16, 16), (8, 8, 8)]
    plan = [(s, 8) for s in small] + [(s, 6) for s in medium] + [(s, 2) for s in heavy]
    return plan


_SUITE_FORMS = None


def _suite_forms():
    """Generated non-degenerate forms shared by criteria 1 and 2."""
    global _SUITE_FORMS
    if _SUITE_FORMS is None:
        forms = []
        for shape, seeds in _criterion1_shapes():
            group = FiniteAbelianGroup(shape)
            assert group.order <= 512
            for seed in range(seeds):
                forms.append(random_nondegenerate(group, seed))
        _SUITE_FORMS = forms
    return _SUITE_FORMS


def test_criterion_01_gauss_sum_theorem():
    started = time.monotonic()
    forms = _suite_forms()
    assert len(forms) >= 200
    primes = set()
    for form in forms:
        tau = form.gauss_sum()
        assert abs_square(tau) == form.group.order
        assert is_root_of_unity(tau * tau / form.group.order) is not None
        primes.update(
            p for p in (2, 3, 5) if any(d % p == 0 for d in form.group.moduli)
        )
    elapsed = time.monotonic() - started
    assert primes == {2, 3, 5}
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"|tau|^2 = |M| and tau^2/|M| a root of unity on {len(forms)} "
               f"forms (order <= 512, p in 2/3/5) in {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    forms = list(_suite_forms())
    fixtures = [
        EXEASY,
        QuadraticForm(FiniteAbelianGroup([3]), 3, [0, 1, 1]),
        QuadraticForm(FiniteAbelianGroup([2, 2]), 2, [0, 0, 0, 1]),
    ]
    for form in forms + fixtures:
        assert recursive_gauss_eval(form) == form.gauss_sum()
    _report(2, f"recursive evaluation equals direct summation on "
               f"{len(forms) + len(fixtures)} suite forms, exactly")


def test_criterion_03_char2_square_identity():
    count = 0
    for k in range(1, 7):
        group = FiniteAbelianGroup((2,) * k)
        for seed in range(17):
            form = random_nondegenerate(group, seed)
            a, qa = char2_invariant(form)
            assert form.gauss_sum() ** 2 == qa * group.order
            count += 1
    assert count >= 100
    _report(3, f"tau^2 = Q(a)|M| on {count} non-degenerate forms over (Z/2)^k, k <= 6")


def test_criterion_04_exeasy_value():
    assert EXEASY.gauss_sum() == 1 + zeta(4, 1)
    _report(4, "the Z/2 fixture has tau = 1 + sqrt(-1) exactly")


def test_criterion_05_hasse_davenport_catalog():
    started = time.monotonic()
    lines = []
    for name, datum, r, chain_expected in catalog_data():
        if not chain_expected:
            continue
        rep = hasse_davenport_check(datum, r, n_max=3)
        assert rep.ok, name
        sign = -1 if datum.d % 2 else 1
        if r == 0:
            # the non-degenerate specialization as displayed
            for n in range(1, 4):
                assert sign * rep.sums[n - 1] == (sign * rep.sums[0]) ** n, name
            assert abs_square(rep.sums[0]) == datum.field.q ** datum.d, name
        else:
            assert abs_square(rep.tau) == datum.field.q ** datum.d, name
        lines.append(name)
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"criterion 5 took {elapsed:.1f}s"
    _report(5, f"Hasse-Davenport chains exact for n = 1..3 on {lines} in {elapsed:.1f}s")


def test_criterion_06_isogeneous_kernels():
    # a x^{p^n+1} yields r = n for n in {1,2}, p in {2,3}
    for p, field in ((2, F2), (3, F3)):
        for n in (1, 2):
            datum = QuadDatum(field, 1, [DiagMonomial(0, n, field.one())])
            ker = geometric_kernel(datum)
            assert ker.size == p ** (2 * n) and ker.r == n
    # every catalog isogeneous datum: kernel an even p-power; chain-consistent
    # data satisfy |S_1|^2 = p^{2r} q^d
    for name, datum, r, chain_expected in catalog_data():
        ker = geometric_kernel(datum)
        assert ker.size == datum.field.p ** (2 * ker.r), name
        assert ker.r == r, name
        if chain_expected:
            s1 = char_sum(datum, 1)
            assert abs_square(s1) == datum.field.p ** (2 * r) * datum.field.q ** datum.d, name
    _report(6, "geometric kernels have size p^{2r}; a*x^(p^n+1) gives r = n; "
               "consistent chains satisfy |S_1|^2 = p^{2r} q^d")


def test_criterion_07_clb_cocycle():
    for i in (1, 2):
        for a in F4.elements():
            for n in (1, 2):
                assert clb_cocycle_identity_check(i, a, F4, n)
    _report(7, "the classification coboundary identity holds for all "
               "i <= 2, a in F_4, n <= 2, exhaustively")


def test_criterion_08_heisenberg():
    for p in (2, 3):
        group = FiniteAbelianGroup([p, p])
        table = [[0] * (p * p) for _ in range(p * p)]
        for i in range(p * p):
            for j in range(p * p):
                a, b = group.decode(i)
                c, d = group.decode(j)
                table[i][j] = (a * d - b * c) % p
        pairing = AlternatingPairing(group, p, table)
        heis = build_group(pairing)  # verifies Z(H)=A and commutator = e
        assert heis.order == p**3
        rep = stone_von_neumann(heis, 1)  # verifies hom + norm sum = |H|
        assert rep.dim == p
        assert check_faithful(rep)
    for field, p in ((F2, 2), (F3, 3)):
        datum = QuadDatum(field, 1, [DiagMonomial(0, 1, field.one())])
        dh = heisenberg_from_datum(datum)  # validates deck-map commutators
        assert dh.kernel.size == p * p
        assert dh.group.order == p**3
    _report(8, "extraspecial groups of order 8 and 27 with SvN dims 2 and 3, "
               "faithful; datum groups reproduce |K| = p^2, |H| = p^3 with "
               "deck-map commutators matching the pairing")


def _acceptance_curves():
    vdgv = CurveSpec(
        F2,
        AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),
        AdditivePolynomial(F2, {0: F2.one()}),
        AdditivePolynomial(F2, {1: F2.one()}),
        F2.zero(),
    )
    f3curve = CurveSpec(
        F3,
        AdditivePolynomial(F3, {1: F3.one(), 0: -F3.one()}),
        AdditivePolynomial(F3, {0: F3.one()}),
        AdditivePolynomial(F3, {0: F3.one()}),
        F3.zero(),
    )
    return vdgv, f3curve


def test_criterion_09_supersingular_curves():
    from gausslab.exactalg import IntPolynomial

    started = time.monotonic()
    vdgv, f3curve = _acceptance_curves()
    data = zeta_pipeline(vdgv)
    assert data.counts == [2, 8]
    assert data.power_sums == [0, -4]
    assert data.l_poly == IntPolynomial([2, 0, 1])
    assert data.certificate[0] == 2
    elapsed_each = [time.monotonic() - started]
    assert zeta_pipeline(f3curve).certificate is not None
    for field, seed in ((F2, 1), (F4, 2)):
        t0 = time.monotonic()
        spec = random_curve_spec(field, seed, max_b=4)
        assert betti_prediction(spec) <= 8 and field.q <= 4
        result = zeta_pipeline(spec)
        assert result.certificate is not None
        elapsed_each.append(time.monotonic() - t0)
    assert all(t < 120 for t in elapsed_each)
    _report(9, f"VdGV counts (2,8), P = T^2+2, m = 2; the F_3 curve and two "
               f"random specs certify (max {max(elapsed_each):.1f}s each)")


def test_criterion_10_betti_closure():
    vdgv, f3curve = _acceptance_curves()
    curves = [vdgv, f3curve,
              random_curve_spec(F2, 1, max_b=4), random_curve_spec(F4, 2, max_b=4)]
    for spec in curves:
        ok, data = betti_closure_check(spec)
        assert ok, spec
    _report(10, f"Newton closure at B = betti prediction and s_(B+1), s_(B+2) "
                f"match the companion recursion on {len(curves)} curves")


def test_criterion_11_witt_layer():
    for q, field in ((2, F2), (3, F3), (4, F4)):
        vectors = [
            WittVector2(field, a, b)
            for a in field.elements()
            for b in field.elements()
        ]
        one = WittVector2(field, field.one(), field.zero())
        for u in vectors:
            assert u * one == u and (u + (-u)).is_zero()
            for v in vectors:
                assert u + v == v + u and u * v == v * u
                for t in vectors:
                    assert (u + v) + t == u + (v + t)
                    assert (u * v) * t == u * (v * t)
                    assert u * (v + t) == u * v + u * t
    for p in (2, 3):
        field = make_field(p, 1)
        vectors = [
            WittVector2(field, a, b)
            for a in field.elements()
            for b in field.elements()
        ]
        iso = {v: witt_to_zp2(v) for v in vectors}
        assert sorted(iso.values()) == list(range(p * p))
        for u in vectors:
            for v in vectors:
                assert iso[u + v] == (iso[u] + iso[v]) % (p * p)
                assert iso[u * v] == (iso[u] * iso[v]) % (p * p)
    w = F4.gen()
    endo = w2_endomorphism(F4, {0: w, 1: F4.one()}, AdditivePolynomial(F4, {0: F4.one()}))
    assert verify_additive(endo, 1)
    assert not verify_additive(mutated_endomorphism(endo, 0), 1)
    _report(11, "W2 ring axioms exhaustive for q in 2/3/4; W2(F_p) = Z/p^2 for "
                "p in 2/3; the classified endomorphism is additive over W2(F_4) "
                "and a mutated g2 fails")


def test_criterion_12_linear_invariance():
    w = F4.gen()
    unitary_datum = QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.one())])
    for n in (1, 2):
        assert invariance_check(unitary_datum, [[[w]], [[w * w]]], n=n)
    from gausslab.charsum import CrossMonomial

    gl_datum = QuadDatum(
        F2, 2, [CrossMonomial(0, 1, 1, F2.one()), CrossMonomial(0, 1, 0, F2.one())]
    )
    ident = [[F2.one(), F2.zero()], [F2.zero(), F2.one()]]
    for n in (1, 2):
        assert invariance_check(gl_datum, [ident], n=n)
    _report(12, "t(g x) = t(x) exhaustively for the n = 1 unitary generators "
                "over F_4 and GL_1(F_2)")


def _run_cli(command, job, *args):
    argv = [sys.executable, "-m", "gausslab.cli", command, *args]
    return subprocess.run(
        argv, input=json.dumps(job), capture_output=True, text=True, timeout=600
    )


def test_criterion_13_determinism():
    strip = lambda s: re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', s)
    jobs = corpus()
    picks = ["diag-x3-f4-hd", "vdgv-f2-zeta", "heis-p2", "exeasy-z2"]
    for name in picks:
        entry = jobs[name]
        a = _run_cli(entry["command"], entry["input"])
        b = _run_cli(entry["command"], entry["input"])
        assert a.returncode == 0 and strip(a.stdout) == strip(b.stdout), name
    sum_job = {"datum": jobs["diag-x3-f4-hd"]["input"]["datum"], "n": 2}
    w1 = _run_cli("char-sum", sum_job, "--workers", "1")
    w3 = _run_cli("char-sum", sum_job, "--workers", "3")
    assert strip(w1.stdout) == strip(w3.stdout)
    _report(13, "suite jobs are byte-stable across runs and worker counts")
