"""Quadratic character data: trace functions, sums, pairings, kernels,
canonical forms and the Hasse-Davenport identities."""

import itertools
import random
from collections import Counter
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest

from gausslab.charsum import (
    ASLinear,
    CrossMonomial,
    DiagMonomial,
    HalfSquare,
    Precompose,
    QuadDatum,
    WittLinear,
    canonical_quadratic,
    char_sum,
    clb_cocycle_identity_check,
    derive_pairing,
    geometric_kernel,
    hasse_davenport_check,
    invariance_check,
    symbolic_pairing,
)
from gausslab.corpus import catalog_data, corpus
from gausslab.errors import (
    DegeneratePairing,
    NotSymmetric,
    ScaleCapExceeded,
    TheoremViolated,
    check_cap,
)
from gausslab.exactalg import abs_square, is_root_of_unity, weil_chain, zeta, zeta_sum
from gausslab import charsum, fields
from gausslab.fields import AdditivePolynomial, absolute_trace_int, extension, make_field

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def wittchar(field):
    return QuadDatum(field, 1, [WittLinear(0, field.one())])


def x_cubed(field, a=None):
    return QuadDatum(field, 1, [DiagMonomial(0, 1, a if a is not None else field.one())])


def frobpair(field, s):
    return QuadDatum(
        field, 2,
        [CrossMonomial(0, 1, s, field.one()), CrossMonomial(0, 1, 0, -field.one())],
    )


def _trace_values(datum, n):
    """point -> t(point) on (F_{q^n})^d as an exact root of unity: the
    evaluator's exponent e gives zeta_{p^2}^e."""
    ev = charsum._Evaluator(datum, n)
    return lambda point: zeta(ev.p * ev.p, ev.exponent(point))


def test_wittchar_reproduces_exeasy():
    d = wittchar(F2)
    t = _trace_values(d, 1)
    assert t((F2.zero(),)) == 1
    assert t((F2.one(),)) == zeta(4, 1)
    assert char_sum(d, 1) == 1 + zeta(4, 1)
    form = derive_pairing(d, 1)
    assert form.is_quadratic() and form.is_nondegenerate()
    assert form.gauss_sum() == 1 + zeta(4, 1)


def test_empty_datum_sums_to_point_count():
    d = QuadDatum(F4, 1, [])
    assert char_sum(d, 2) == 16
    d2 = QuadDatum(F2, 2, [])
    assert char_sum(d2, 3) == 64


def test_x3_norm_fiber_sum():
    # over F_4 the value x^3 is the norm to F_2; with a trace-one coefficient
    # the sum sees fibers of sizes 1 and 3
    w = F4.gen()
    d = x_cubed(F4, a=w)
    assert char_sum(d, 1) == -2


def test_frobenius_pairing_closed_form():
    d = frobpair(F2, 1)
    for m in (1, 2, 3):
        assert char_sum(d, m) == 2 * 2**m
    d4 = frobpair(F4, 2)
    for m in (1, 2):
        assert char_sum(d4, m) == 4 * 4**m


def test_value_orders_lemma():
    # no Witt terms: values in mu_p; with Witt terms (p=2): values in mu_{p^2}
    d3 = QuadDatum(F3, 1, [HalfSquare(0, F3.one()), DiagMonomial(0, 1, F3.one())])
    assert d3.value_order == 3
    t3 = _trace_values(d3, 1)
    for x in F3.elements():
        assert t3((x,)) ** 3 == 1
    dw = wittchar(F2)
    assert dw.value_order == 4
    tw = _trace_values(dw, 1)
    for x in F2.elements():
        assert tw((x,)) ** 4 == 1


def test_materialized_forms_are_quadratic():
    for name, datum, _, _ in catalog_data():
        q = datum.field.q
        if q ** (datum.d * 2) > 2**12:
            continue
        for n in (1, 2):
            if q ** (datum.d * n) > 2**8:
                continue
            form = derive_pairing(datum, n)
            assert form.is_quadratic(), name


def test_nondegenerate_data_materialize_nondegenerate():
    # trace functions of non-degenerate data are non-degenerate finite forms
    for datum in (wittchar(F2), wittchar(F4), QuadDatum(F3, 1, [HalfSquare(0, F3.one())])):
        form = derive_pairing(datum, 1)
        assert form.is_nondegenerate()
        s1 = char_sum(datum, 1)
        assert abs_square(s1) == datum.field.q**datum.d


def test_symbolic_pairing_diag():
    d = x_cubed(F3)
    f = symbolic_pairing(d).entry(0, 0)
    assert f.coeffs == {1: F3.one(), -1: F3.one()}
    assert f.adjoint() == f


def test_symbolic_pairing_halfsquare_and_witt():
    d5 = QuadDatum(F3, 1, [HalfSquare(0, F3.element([2]))])
    assert symbolic_pairing(d5).entry(0, 0).coeffs == {0: F3.element([2])}
    w = F4.gen()
    d6 = QuadDatum(F4, 1, [WittLinear(0, w)])
    assert symbolic_pairing(d6).entry(0, 0).coeffs == {0: w * w}


def test_symbolic_pairing_matches_pointwise():
    # b(x,y) from the symbolic matrix equals t(x+y)/t(x)t(y) pointwise
    for datum in (x_cubed(F4), QuadDatum(F3, 1, [HalfSquare(0, F3.one()),
                                                 DiagMonomial(0, 1, F3.element([2]))])):
        pairing = symbolic_pairing(datum)
        from gausslab.fields import absolute_trace_int, extension

        big, emb = extension(datum.field, 2, False)
        lifted = pairing.entry(0, 0).lift(emb)
        t = _trace_values(datum, 2)
        for x in big.elements():
            for y in big.elements():
                lhs = t((x + y,))
                rhs = t((x,)) * t((y,)) * zeta(datum.field.p, absolute_trace_int(lifted.evaluate(x) * y))
                assert lhs == rhs


def test_precompose_substitutes():
    # precompose x -> x^2 + x: t'(x) = t(f(x))
    f = AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()})
    base = x_cubed(F2)
    pre = QuadDatum(F2, 1, [DiagMonomial(0, 1, F2.one()), Precompose(0, f)])
    from gausslab.fields import extension

    big, emb = extension(F2, 3, False)
    lf = f.lift(emb)
    t_pre, t_base = _trace_values(pre, 3), _trace_values(base, 3)
    for x in big.elements():
        assert t_pre((x,)) == t_base((lf.evaluate(x),))


def test_geometric_kernel_examples():
    k = geometric_kernel(x_cubed(F2))
    assert (k.size, k.r, k.splitting_degree) == (4, 1, 2)
    k = geometric_kernel(x_cubed(F4, a=F4.gen()))
    assert (k.size, k.r, k.splitting_degree) == (4, 1, 3)
    k = geometric_kernel(QuadDatum(F3, 1, [HalfSquare(0, F3.one())]))
    assert (k.size, k.r) == (1, 0)
    k = geometric_kernel(frobpair(F2, 1))
    assert (k.size, k.r, k.splitting_degree) == (4, 1, 1)
    k = geometric_kernel(frobpair(F4, 2))
    assert (k.size, k.r, k.splitting_degree) == (16, 2, 1)
    # the listing order is part of the output: the span of the null basis in
    # itertools.product order over its coefficients
    k = geometric_kernel(QuadDatum(F2, 1, [DiagMonomial(0, 2, F2.one())]))
    assert [pt[0].as_int() for pt in k.elements] == [
        0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15]


def test_geometric_kernel_lists_k_only_when_read(monkeypatch):
    # x^17 over F_2: |K| = 256 from a basis of 8, and no span is made until
    # `elements` is read
    spans = []
    monkeypatch.setattr(charsum, "_span_mod_p", lambda *a: spans.append(a) or fields._span_mod_p(*a))
    k = geometric_kernel(QuadDatum(F2, 1, [DiagMonomial(0, 4, F2.one())]))
    assert (k.size, len(k.basis), spans) == (256, 8, [])
    assert len(k.elements) == 256 and len(spans) == 1


def test_geometric_kernel_diag_datum_ranks():
    # a x^{p^n+1} has kernel p^{2n}, r = n, for n in {1,2}, p in {2,3}
    for p, field in ((2, F2), (3, F3)):
        for n in (1, 2):
            k = geometric_kernel(QuadDatum(field, 1, [DiagMonomial(0, n, field.one())]))
            assert k.size == p ** (2 * n)
            assert k.r == n


def test_geometric_kernel_is_subspace():
    k = geometric_kernel(x_cubed(F2))
    pts = {pt[0].coeffs for pt in k.elements}
    els = [pt[0] for pt in k.elements]
    for a in els:
        for b in els:
            assert (a + b).coeffs in pts
    # the listed span against a sweep of (F_{q^n})^d for the zeros of
    # l_Q: x -> (sum_j f_jk(x_j))_k
    data = [x_cubed(F2), x_cubed(F4, a=F4.gen()), frobpair(F2, 1), frobpair(F4, 2),
            QuadDatum(F3, 1, [DiagMonomial(0, 2, F3.one())])]
    for datum in data:
        k = geometric_kernel(datum)
        big, emb = extension(datum.field, k.splitting_degree, False)
        pairing, d = symbolic_pairing(datum), datum.d
        f = {(j, c): pairing.entry(j, c).lift(emb) for j in range(d) for c in range(d)}
        sweep = [x for x in itertools.product(big.elements(), repeat=d)
                 if not any(sum((f[j, c].evaluate(x[j]) for j in range(d)), big.zero())
                            for c in range(d))]
        assert len(k.elements) == k.size == len(sweep), datum
        assert sorted(k.elements, key=lambda x: [e.coeffs for e in x]) == sweep, datum


def test_geometric_kernel_basis_spans_the_listing():
    # KernelData.basis is the F_p-basis that KernelData.elements lists, in
    # itertools.product order over its coefficients
    data = [x_cubed(F2), x_cubed(F4, a=F4.gen()), frobpair(F2, 1), frobpair(F4, 2),
            QuadDatum(F3, 1, [HalfSquare(0, F3.one())]),
            QuadDatum(F3, 1, [DiagMonomial(0, 2, F3.one())])]
    for datum in data:
        k = geometric_kernel(datum)
        p, d = datum.field.p, datum.d
        assert k.size == p ** len(k.basis), datum
        zero = (k.field.zero(),) * d
        span = [tuple(sum((b[j] * c for c, b in zip(cs, k.basis)), zero[j]) for j in range(d))
                for cs in itertools.product(range(p), repeat=len(k.basis))]
        assert span == k.elements, datum


def test_degenerate_pairing_rejected():
    with pytest.raises(DegeneratePairing):
        geometric_kernel(QuadDatum(F2, 1, []))
    with pytest.raises(DegeneratePairing):
        geometric_kernel(QuadDatum(F2, 2, [DiagMonomial(0, 1, F2.one())]))


def test_canonical_quadratic_round_trip():
    data = [
        x_cubed(F3),
        QuadDatum(F3, 1, [HalfSquare(0, F3.one())]),
        QuadDatum(F4, 1, [WittLinear(0, F4.gen())]),
        x_cubed(F4),
        QuadDatum(F3, 1, [HalfSquare(0, F3.element([2])), DiagMonomial(0, 1, F3.one())]),
    ]
    for datum in data:
        pairing = symbolic_pairing(datum)
        canon = canonical_quadratic(pairing)
        assert symbolic_pairing(canon) == pairing


def test_canonical_quadratic_p2_takes_sqrt():
    # pairing f = X over F_2 must produce the Witt character at sqrt(1) = 1,
    # i.e. the exeasy form
    pairing = symbolic_pairing(wittchar(F2))
    canon = canonical_quadratic(pairing)
    kinds = [t.kind for t in canon.terms]
    assert kinds == ["wittlin"]
    assert char_sum(canon, 1) == 1 + zeta(4, 1)


def test_clb_cocycle_identity():
    assert clb_cocycle_identity_check(1, F2.one(), F2, 2)
    assert clb_cocycle_identity_check(1, F4.zero(), F4, 1)
    for a in F4.elements():
        assert clb_cocycle_identity_check(1, a, F4, 2)
        assert clb_cocycle_identity_check(2, a, F4, 2)


def test_laurent_adjoint():
    f = AdditivePolynomial(F4, {1: F4.gen(), -1: F4.gen().pth_root()})
    assert f.adjoint().coeffs == {-1: F4.gen().pth_root(), 1: F4.gen()}


# -- Artin-Schreier reduction and the rank formula, kept as curve oracles ----------
# `varieties` read the Betti number and connectedness of a curve from these
# until its characters became data; tests/test_varieties.py compares them.

def as_reduce(poly):
    """Artin-Schreier reduction of a univariate polynomial {exp: coeff}.

    Inside psi(Tr(.)) a x^(p^k m) may be replaced by a^(1/p^k) x^m, and the
    p-th root is additive, so each term goes down to its exponent prime to p
    in one step; the constant term drops.  Returns the reduced {exp: coeff}.
    """
    out = {}
    for e, c in poly.items():
        e, k = int(e), 0
        if e <= 0 or not c:
            continue
        while e % c.field.p == 0:
            e //= c.field.p
            k += 1
        c = c.pth_root(k)
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def gos_rank(poly):
    """dim H^1_c for psi(Tr(h(x))) on the affine line: reduced degree - 1
    (the Swan conductor is the degree at infinity, prime to p after
    `as_reduce`); reduction to a linear polynomial is the character case: a
    nontrivial character, all cohomology vanishes, rank 0."""
    red = as_reduce(poly)
    if not red:
        raise ValueError("polynomial reduces to a constant: the trivial datum")
    deg = max(red)
    return 0 if deg == 1 else deg - 1


def test_gos_rank_examples():
    assert gos_rank({3: F2.one()}) == 2
    assert gos_rank({3: F4.one()}) == 2
    assert gos_rank({4: F3.one()}) == 3
    assert gos_rank({2: F2.one()}) == 0  # the character case
    assert gos_rank({6: F3.one()}) == 1  # x^6 -> x^2 by AS-reduction
    # x^3 + x over F_3 collapses to a character, not a Swan failure: terminal
    # exponents of the reduction are always prime to p
    assert gos_rank({3: F3.one(), 1: F3.one()}) == 0


def _restarting_as_reduce(poly):
    """Artin-Schreier reduction by one rewrite a x^(pm) -> a^(1/p) x^m at a
    time, rescanning after each: the loop that the one-pass `as_reduce`
    replaced, kept as the reference."""
    field = None
    work = {}
    for e, c in poly.items():
        if c:
            field = c.field
            work[int(e)] = work.get(int(e), c.field.zero()) + c
    if field is None:
        return {}
    p = field.p
    changed = True
    while changed:
        changed = False
        for e in sorted(work):
            c = work[e]
            if not c:
                del work[e]
                continue
            if e > 0 and e % p == 0:
                del work[e]
                tgt = e // p
                work[tgt] = work.get(tgt, field.zero()) + c.pth_root()
                changed = True
                break
    return {e: c for e, c in work.items() if e > 0 and c}


def _seeded_polys():
    """Seeded {exp: coeff} over F_2, F_4, F_3, F_9 and F_5: exponents from -2
    to 80, many of them p-power multiples that cascade, zeros among the
    coefficients."""
    F5 = make_field(5, 1)
    for field in (F2, F4, F3, F9, F5):
        rng = random.Random(field.q)
        els = list(field.elements())
        p = field.p
        for _ in range(60):
            poly = {}
            for _ in range(rng.randint(0, 6)):
                e = rng.choice([rng.randint(-2, 80), rng.randint(1, 9) * p ** rng.randint(1, 3)])
                poly[e] = rng.choice(els)
            yield field, poly


def test_as_reduce_matches_the_restarting_reference():
    a, b, c = (F2.one(),) * 3
    assert as_reduce({4: a, 2: b, 1: c}) == _restarting_as_reduce({4: a, 2: b, 1: c}) == {1: a}
    w = F4.gen()
    cascade = {4: w, 2: w + F4.one(), 1: F4.one()}
    assert as_reduce(cascade) == _restarting_as_reduce(cascade)
    assert as_reduce(cascade) == {1: w.pth_root(2) + (w + F4.one()).pth_root() + F4.one()}
    assert as_reduce({9: F3.one(), 3: -F3.one(), 0: F3.one()}) == {}  # x^9 - x^3 + 1 -> 0
    count = 0
    for field, poly in _seeded_polys():
        assert as_reduce(poly) == _restarting_as_reduce(poly), (field, poly)
        count += bool(as_reduce(poly))  # most draws keep a nonconstant part
    assert count > 200


def test_gos_rank_matches_diag_datum_prediction():
    # the Swan conductor of a*x^{p^n+1} is p^n + 1, so the rank is p^n
    for p, field in ((2, F2), (3, F3)):
        for n in (1, 2):
            assert gos_rank({p**n + 1: field.one()}) == p**n


def test_hasse_davenport_catalog():
    for name, datum, r, chain_expected in catalog_data():
        rep = hasse_davenport_check(datum, r)
        assert rep.chain_ok == chain_expected, name
        if chain_expected:
            assert rep.fev_abs_ok and rep.fev_ratio_order is not None, name
            assert abs_square(rep.sums[0]) == datum.field.p ** (2 * r) * datum.field.q ** datum.d


def _inline_hd_chain(sums, datum, r):
    """(tau, residuals, fev_abs_ok, fev_ratio_order) by the loop that
    `hasse_davenport_check` ran before it called `weil_chain`, kept as the
    oracle."""
    p, q, d = datum.field.p, datum.field.q, datum.d
    sign = -1 if d % 2 else 1
    tau = sums[0] * sign / p**r
    residuals = []
    for n in range(1, len(sums) + 1):
        predicted = tau**n * (p**r) * sign
        residuals.append(sums[n - 1] == predicted)
    ratio_order = is_root_of_unity(tau * tau / q**d)
    fev_abs_ok = ratio_order is not None or abs_square(tau) == q**d
    return tau, residuals, fev_abs_ok, ratio_order


def _hd_oracle_cases():
    """(name, datum, r, n_max): every corpus `hasse-davenport` fixture, the
    catalog with its two negative controls, and 8 seeded data with a nonzero
    pairing for each of F_2, F_4, F_3 and F_9 and each d <= 2, at r <= 2."""
    cases = [(name, QuadDatum.from_json(job["input"]["datum"]), job["input"]["r"],
              job["input"]["n_max"])
             for name, job in corpus().items() if job["command"] == "hasse-davenport"]
    cases += [(name, datum, r, 3) for name, datum, r, _ in catalog_data()]
    for field in (F2, F4, F3, F9):
        rng = random.Random(f"hd-nonzero-{field.q}")
        for d in (1, 2):
            for k in range(8):
                datum = _nonzero_pairing_datum(field, d, rng)
                cases += [(f"{field.tag}-d{d}-{k}-r{r}", datum, r, 3) for r in range(3)]
    return cases


def test_weil_chain_matches_the_inline_hasse_davenport_loop():
    # the helper's lambda, lead, r, weight, residuals, |lambda|^2 decision and
    # ratio order against the loop it replaced; the report is read off them
    cases, held = _hd_oracle_cases(), 0
    for name, datum, r, n_max in cases:
        p, q, d = datum.field.p, datum.field.q, datum.d
        sums = [char_sum(datum, n) for n in range(1, n_max + 1)]
        chain = weil_chain(sums, p, q, (-1) ** d * p**r, q**d)
        tau, residuals, abs_ok, order = _inline_hd_chain(sums, datum, r)
        assert chain.lam.to_json() == tau.to_json(), name
        assert (chain.lead, chain.r, chain.weight) == ((-1) ** d * p**r, r, d), name
        assert (chain.residuals, chain.abs_ok, chain.ratio_order) == (residuals, abs_ok, order), name
        # the lookup decides |tau|^2 = q^d as the conjugate does
        assert chain.abs_ok == (abs_square(tau) == q**d), name
        rep = hasse_davenport_check(datum, r, n_max)
        if 2 * r > datum.field.m * d:
            # refuted before p^r is formed, since |S_1|^2 <= q^(2d) < p^(2r) q^d:
            # the loop's |tau|^2 = q^d fails
            assert not abs_ok, name
            assert (rep.tau, rep.sums, rep.chain_ok, rep.residuals, rep.fev_abs_ok,
                    rep.fev_ratio_order) == (None, sums, False, None, False, None), name
            continue
        assert (rep.tau.to_json(), rep.sums, rep.chain_ok, rep.residuals, rep.fev_abs_ok,
                rep.fev_ratio_order) == (tau.to_json(), sums, all(residuals), residuals, abs_ok,
                                         order), name
        held += all(chain.residuals) and chain.abs_ok and chain.ratio_order is not None
    assert 30 < held < len(cases) - 30  # 41 of 209 chains hold


@pytest.mark.parametrize("n_max", [0, -1])
def test_hasse_davenport_degree_below_one_rejected(n_max):
    with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
        hasse_davenport_check(x_cubed(F4), 1, n_max=n_max)


def test_hasse_davenport_x3_base_f4_values():
    rep = hasse_davenport_check(x_cubed(F4), 1)
    assert rep.ok
    assert rep.tau == -2
    assert rep.sums[0] == 4 and rep.sums[1] == -8 and rep.sums[2] == 16


def test_nondegenerate_specialization_chain():
    # (-1)^d S_n = ((-1)^d S_1)^n for genuinely non-degenerate data
    for datum in (wittchar(F2), wittchar(F4),
                  QuadDatum(F3, 1, [HalfSquare(0, F3.one())])):
        rep = hasse_davenport_check(datum, 0)
        assert rep.ok
        sign = -1 if datum.d % 2 else 1
        for n in range(1, 4):
            assert sign * rep.sums[n - 1] == (sign * rep.sums[0]) ** n


def test_aslin_twist_abs_square():
    # a multiplicative twist preserves |S_n| exactly when the twisting
    # character's preimage under the pairing is rational at level n; the
    # omega-twist preimage lives in F_16, so even levels agree...
    base = x_cubed(F4)
    twisted = QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.one()), ASLinear(0, F4.gen())])
    assert abs_square(char_sum(base, 2)) == abs_square(char_sum(twisted, 2))
    # ...while at level 1 the twist moves the sum off the finite image
    # (pinned counterexample: 4 vs 0)
    assert char_sum(base, 1) == 4
    assert char_sum(twisted, 1).is_zero()
    # a twist whose character is realized rationally at level 1 (here the
    # pairing of omega*x^3 sends 1 to the coefficient 1) preserves every |S_n|
    rational_base = QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.gen())])
    rational = QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.gen()), ASLinear(0, F4.one())])
    for n in (1, 2, 3):
        assert abs_square(char_sum(rational_base, n)) == abs_square(char_sum(rational, n))
    # the geometric content that is unconditionally true: kernels agree
    assert geometric_kernel(base).size == geometric_kernel(twisted).size


def test_char_sum_worker_invariance():
    d = x_cubed(F4)
    assert char_sum(d, 2, workers=1) == char_sum(d, 2, workers=3)


def test_pullback_sum_identity_lang():
    lang = AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()})
    for datum in (wittchar(F2), x_cubed(F2)):
        lhs, rhs_img, rhs_chars = pullback_sum_identity(datum, [lang], n=2)
        assert lhs == rhs_img == rhs_chars


def test_pullback_sum_identity_identity_map():
    ident = AdditivePolynomial(F2, {0: F2.one()})
    d = wittchar(F2)
    lhs, rhs_img, rhs_chars = pullback_sum_identity(d, [ident], n=1)
    assert lhs == rhs_img == rhs_chars == char_sum(d, 1)


def test_pullback_frobenius_is_bijective_on_points():
    # x -> x^2 permutes the points of any finite field: kernel 1, sums equal
    frob = AdditivePolynomial(F2, {1: F2.one()})
    lhs, rhs_img, rhs_chars = pullback_sum_identity(wittchar(F2), [frob], n=2)
    assert lhs == rhs_img == rhs_chars == char_sum(wittchar(F2), 2)


def test_invariance_unitary_and_gl():
    w = F4.gen()
    # scaling by cube roots of unity preserves psi(Tr(x^3))
    mats = [[[w]], [[w * w]]]
    assert invariance_check(x_cubed(F4), mats, n=1)
    assert invariance_check(x_cubed(F4), mats, n=2)
    # identity always works
    assert invariance_check(x_cubed(F4), [[[F4.one()]]], n=1)
    # GL_1(F_q) on the Frobenius pairing datum: (x, y) -> (gx, y/g)
    for field, s in ((F2, 1), (F4, 2)):
        mats = []
        zero = [0] * field.m
        for u in field.elements():
            if u:
                mats.append([[list(u.coeffs), zero], [zero, list(u.inv().coeffs)]])
        mats = [[[field.element(c) for c in row] for row in m] for m in mats]
        assert invariance_check(frobpair(field, s), mats, n=1)
    # a non-symmetry is detected
    bad = [[[w], ]]
    assert not invariance_check(QuadDatum(F4, 1, [ASLinear(0, F4.one())]), [[[w]]], n=1)


def _lifted_pairing_kernel(pairing, n, override=False):
    """(F_{q^n}, flat F_p-basis of ker l_Q) from the symbolic pairing: every
    entry f_jk lifted into F_{q^n} and evaluated on the power basis, the
    nullspace of the (m*n*d)^2 matrix of x -> (sum_j f_jk(x_j))_k.  The path
    `geometric_kernel` took before it read the evaluator's polar rows, kept
    as the oracle."""
    d = pairing.d
    big, emb = extension(pairing.field, n, override)
    lifted = {(j, k): pairing.entry(j, k).lift(emb) for j in range(d) for k in range(d)
              if not pairing.entry(j, k).is_zero()}
    cols = []
    for j in range(d):
        for u in big._power_basis:
            images = (lifted[j, k].evaluate(u) if (j, k) in lifted else big.zero()
                      for k in range(d))
            cols.append([c for w in images for c in w.coeffs])
    matrix = [[col[r] for col in cols] for r in range(big.m * d)]
    return big, fields._nullspace_mod_p(matrix, big.p)


def _kernel_cases(table_bound):
    """(name, datum, n): the catalog at n <= 4, and 25 seeded data (all six
    term kinds over the two characteristics) for each field of p in {2, 3, 5}
    and m <= 2 and each d <= 2, at n <= 3 where q^(n*d) <= table_bound."""
    cases = [(name, datum, n) for name, datum, _, _ in catalog_data() for n in range(1, 5)]
    for field in (F2, F4, F3, F9, F5, make_field(5, 2)):
        rng = random.Random(f"kernel-{field.q}")
        for d in (1, 2):
            for k in range(25):
                datum = _random_datum(field, d, rng)
                cases += [(f"{field.tag}-d{d}-{k}", datum, n) for n in (1, 2, 3)
                          if field.q ** (n * d) <= table_bound]
    return cases


def _nonzero_kernel_cases(table_bound):
    """(name, datum, n): 12 `_nonzero_pairing_datum` draws for each field of
    p in {2, 3, 5} and m <= 2 and each d <= 2, at n <= 3 where q^(n*d) <=
    table_bound; a stream of their own, so the `_kernel_cases` draws stay."""
    cases = []
    for field in (F2, F4, F3, F9, F5, make_field(5, 2)):
        rng = random.Random(f"kernel-nonzero-{field.q}")
        for d in (1, 2):
            for k in range(12):
                datum = _nonzero_pairing_datum(field, d, rng)
                assert not symbolic_pairing(datum).is_zero(), datum.to_json()
                cases += [(f"{field.tag}-d{d}-nonzero-{k}", datum, n) for n in (1, 2, 3)
                          if field.q ** (n * d) <= table_bound]
    return cases


def test_kernel_from_polar_rows_matches_the_lifted_pairing():
    # the radical of the evaluator's polar form, both read off the term plan
    # with its precompositions resolved, against the nullspace of the lifted
    # symbolic pairing: the same field and the same reduced basis, on the
    # catalog, on the seeded data and on seeded data with a nonzero pairing
    cases = _kernel_cases(2**12)
    assert len(cases) >= 700
    nonzero = _nonzero_kernel_cases(2**12)
    for name, datum, n in cases + nonzero:
        ev = charsum._Evaluator(datum, n)
        expected = _lifted_pairing_kernel(symbolic_pairing(datum), n)
        assert (ev.big, charsum._kernel_basis(ev)) == expected, (name, n)


def test_radical_of_the_derived_form_is_the_geometric_kernel():
    # |radical(derive_pairing)| = p^dim K(F_{q^n}): the form's radical is the
    # radical of the polar form B, and B(x, y) = sum_j Tr(l_Q(x)_j y_j) with
    # the trace form non-degenerate
    for name, datum, n in _kernel_cases(2**8):
        basis = charsum._kernel_basis(charsum._Evaluator(datum, n))
        assert len(derive_pairing(datum, n).radical()) == datum.field.p ** len(basis), (name, n)


def test_value_constraints_rejected():
    with pytest.raises(ValueError):
        QuadDatum(F2, 1, [HalfSquare(0, F2.one())])
    with pytest.raises(ValueError):
        QuadDatum(F3, 1, [WittLinear(0, F3.one())])
    with pytest.raises(ValueError):
        QuadDatum(F2, 1, [DiagMonomial(0, 0, F2.one())])
    with pytest.raises(ValueError):
        QuadDatum(F2, 1, [ASLinear(1, F2.one())])


def test_datum_serialization_round_trip():
    lang = AdditivePolynomial(F4, {1: F4.one(), 0: F4.gen()})
    precomposed = QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.gen()), Precompose(0, lang)])
    data = [(name, datum) for name, datum, _, _ in catalog_data()]
    for name, datum in data + [("precompose", precomposed)]:
        again = QuadDatum.from_json(datum.to_json())
        assert again.terms == datum.terms and again.to_json() == datum.to_json(), name
        assert char_sum(again, 1) == char_sum(datum, 1), name
    obj = precomposed.to_json()
    assert obj["terms"][1] == {"kind": "precompose", "j": 0, "f": {"0": [0, 1], "1": [1, 0]}}
    with pytest.raises(ValueError, match="unknown term kind"):
        QuadDatum.from_json({**obj, "terms": [{"kind": "cubic", "j": 0}]})
    with pytest.raises(KeyError):
        QuadDatum.from_json({**obj, "terms": [{"kind": "diag", "j": 0, "a": [1, 0]}]})


def test_pullback_annihilators_match_brute_force(monkeypatch):
    # the annihilators of each coordinate image, found as the kernel of
    # c -> (Tr(c w))_w, against a sweep of the field by their definition
    recorded = []

    linear_kernel = fields._linear_kernel

    def recording(field, image):
        recorded.append(linear_kernel(field, image))
        return recorded[-1]

    monkeypatch.setattr(fields, "_linear_kernel", recording)
    lang = AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()})
    frob = AdditivePolynomial(F4, {1: F4.gen()})
    cases = [
        (wittchar(F2), [lang], 2),
        (x_cubed(F2), [AdditivePolynomial(F2, {2: F2.one(), 0: F2.one()})], 3),
        (x_cubed(F4), [AdditivePolynomial(F4, {1: F4.one(), 0: F4.gen()})], 1),
        (frobpair(F4, 1), [lang.lift(extension(F2, 2, False)[1]), frob], 1),
    ]
    for datum, isogeny, n in cases:
        recorded.clear()
        pullback_sum_identity(datum, isogeny, n)
        big, emb = extension(datum.field, n, False)
        expected = []
        for f in isogeny:
            image = {f.lift(emb).evaluate(x) for x in big.elements()}
            expected.append([c for c in big.elements()
                             if all(absolute_trace_int(c * w) == 0 for w in image)])
        assert recorded == expected, (datum, n)


# -- closed-form sums against enumeration -------------------------------------------

F5 = make_field(5, 1)
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _points(datum, n):
    """Every point of (F_{q^n})^d, for the enumerating oracles."""
    big, _ = extension(datum.field, n, False)
    return itertools.product(big.elements(), repeat=datum.d)


def _enumerated_histogram(datum, n):
    """{exponent: count} of t over (F_{q^n})^d by evaluating every point."""
    ev = charsum._Evaluator(datum, n)
    hist = {}
    for point in _points(datum, n):
        e = ev.exponent(point)
        hist[e] = hist.get(e, 0) + 1
    return hist


def _enumerated_sum(datum, n):
    """S_n as `char_sum` returns it, from the enumerated histogram."""
    hist, p = _enumerated_histogram(datum, n), datum.field.p
    if datum.has_witt:
        return zeta_sum(p * p, hist)
    return zeta_sum(p, {e // p: count for e, count in hist.items()})


def _closed_form_histogram(datum, n):
    ev = charsum._Evaluator(datum, n)
    basis = charsum._coordinate_basis(ev.big, [ev.big._power_basis] * datum.d)
    return charsum._histogram(*charsum._gram_data(ev, basis), ev.p)


def _random_datum(field, d, rng):
    """A datum mixing the five term kinds its characteristic allows (all six
    kinds over the odd and even fields together)."""
    p = field.p

    def coeff():
        return field.element([rng.randrange(p) for _ in range(field.m)])

    kinds = ["diag", "cross", "aslin", "precompose", "halfsq" if p != 2 else "wittlin"]
    terms = []
    for _ in range(rng.randint(1, 2 + d)):
        kind, j = rng.choice(kinds), rng.randrange(d)
        if kind == "diag":
            terms.append(DiagMonomial(j, rng.randint(1, 2), coeff()))
        elif kind == "cross":
            terms.append(CrossMonomial(j, rng.randrange(d), rng.randint(0, 2), coeff()))
        elif kind == "halfsq":
            terms.append(HalfSquare(j, coeff()))
        elif kind == "wittlin":
            terms.append(WittLinear(j, coeff()))
        elif kind == "aslin":
            terms.append(ASLinear(j, coeff()))
        else:
            f = {i: coeff() for i in rng.sample((-1, 0, 1), rng.randint(1, 2))}
            terms.append(Precompose(j, AdditivePolynomial(field, f)))
    return QuadDatum(field, d, terms)


def _unresolved_exponent(datum, n):
    """point -> e(point) over F_{q^n}, each term evaluated term kind by term
    kind at the substituted coordinates s_j(x_j): the evaluator before the
    term plan resolved precompositions, kept as the oracle of that
    resolution."""
    big, emb = extension(datum.field, n, False)
    p, zero = datum.field.p, big.zero()
    subs = [datum.substitution(j) for j in range(datum.d)]
    subs = [None if s is None else s.lift(emb) for s in subs]

    def exponent(point):
        v = [x if s is None else s.evaluate(x) for x, s in zip(point, subs)]
        acc, witt = zero, 0
        for t in datum.terms:
            if t.kind == "diag":
                acc = acc + emb(t.a) * v[t.j].frobenius(t.i) * v[t.j]
            elif t.kind == "cross":
                acc = acc + emb(t.a) * v[t.j].frobenius(t.i) * v[t.k]
            elif t.kind == "halfsq":
                acc = acc + emb(t.a) * ((p + 1) // 2) * v[t.j] * v[t.j]
            elif t.kind == "aslin":
                acc = acc + emb(t.c) * v[t.j]
            elif t.kind == "wittlin":
                witt += fields.witt_trace(fields.WittVector2(big, emb(t.c) * v[t.j], zero))
        return (p * absolute_trace_int(acc) + witt) % (p * p)

    return big, exponent


def _multi_precomposed(field, d, rng):
    """`_random_datum` with one to two more precompositions by two or three
    terms X^(p^u), u in -1..2, on one coordinate: multi-term substitutions,
    composed when they meet a drawn one."""
    datum = _random_datum(field, d, rng)
    j, extra = rng.randrange(d), []
    for _ in range(rng.randint(1, 2)):
        f = {u: _unit(field, rng) for u in rng.sample((-1, 0, 1, 2), rng.randint(2, 3))}
        extra.append(Precompose(j, AdditivePolynomial(field, f)))
    return QuadDatum(field, d, list(datum.terms) + extra)


def test_resolved_term_plan_agrees_with_the_substituted_terms_pointwise():
    # e from the term plan, where precompositions are resolved into plain
    # entries, against every term evaluated at s_j(x_j): at every point when
    # there are at most 81, else at 60 seeded ones.  F_8 and F_27 tell a
    # root f^(p^-u) from a power f^(p^u), which agree on F_4 and F_9.  The
    # plan holds one entry per monomial a x_j^(p^i) x_k and per twist c x_j
    rng, evaluations, witt, multi = random.Random("resolved-plan"), 0, 0, 0
    for field in (F2, F4, make_field(2, 3), F3, F9, make_field(3, 3)):
        for d in (1, 2):
            for _ in range(12):
                datum = _multi_precomposed(field, d, rng)
                witt += datum.has_witt
                multi += any(len(datum.substitution(j).coeffs) > 1 for j in range(d)
                             if datum.substitution(j) is not None)
                cross, linear, _ = charsum._term_plan(datum, lambda a: a)
                assert len({entry[:3] for entry in cross}) == len(cross)
                assert len({j for j, _ in linear}) == len(linear)
                for n in (1, 2):
                    big, oracle = _unresolved_exponent(datum, n)
                    ev = charsum._Evaluator(datum, n)
                    elements = list(big.elements())
                    points = (itertools.product(elements, repeat=d) if big.q ** d <= 81 else
                              [tuple(rng.choice(elements) for _ in range(d)) for _ in range(60)])
                    for point in points:
                        assert ev.exponent(point) == oracle(point), (datum.to_json(), n, point)
                        evaluations += 1
    assert witt >= 30 and multi >= 140 and evaluations >= 10000


def _unit(field, rng):
    return field.from_int(rng.randrange(1, field.q))


def _nonzero_pairing_datum(field, d, rng):
    """A datum whose symbolic pairing is nonzero by construction.  Each
    coordinate j carries one diagonal term with a unit coefficient, a
    x_j^(p^i + 1) with i in {1, 2}, a half square for odd p or a Witt term for
    p = 2, and only it adds to f_jj, which is then nonzero; cross terms join
    coordinates j < k only, AS-linear twists add nothing, and a precomposition
    by a nonzero additive polynomial keeps every entry nonzero (additive
    polynomials under composition have no zero divisors)."""
    p = field.p
    terms = []
    for j in range(d):
        kind = rng.choice(["diag", "halfsq" if p != 2 else "wittlin"])
        if kind == "diag":
            terms.append(DiagMonomial(j, rng.randint(1, 2), _unit(field, rng)))
        elif kind == "halfsq":
            terms.append(HalfSquare(j, _unit(field, rng)))
        else:
            terms.append(WittLinear(j, _unit(field, rng)))
    for j in range(d):
        for k in range(j + 1, d):
            for i in rng.sample(range(3), rng.randint(0, 2)):
                terms.append(CrossMonomial(j, k, i, _unit(field, rng)))
    for _ in range(rng.randint(0, d)):
        j = rng.randrange(d)
        if rng.random() < 0.5:
            terms.append(ASLinear(j, _unit(field, rng)))
        else:
            f = {i: _unit(field, rng) for i in rng.sample((-1, 0, 1), rng.randint(1, 2))}
            terms.append(Precompose(j, AdditivePolynomial(field, f)))
    rng.shuffle(terms)
    return QuadDatum(field, d, terms)



# -- |K| and the splitting degree from the pairing ----------------------------------

def _kernel_dim(datum, n, override=False):
    """dim_(F_p) K(F_{q^n}): the nullspace of the polar rows at n."""
    return len(charsum._kernel_basis(charsum._Evaluator(datum, n, override)))


def _scanned_kernel(datum):
    """(dim, n) as `geometric_kernel` found K before the pairing gave |K| and
    e, kept as the oracle where it was exact: the nullspace at n = 1, ...,
    24, stopping at the exact dimension span when each row and column of the
    pairing carries one nonzero entry (the removed `kernel_span`), else
    taking the first n of the largest dimension seen, when n <= 12; None
    where the scan gave up."""
    matrix = symbolic_pairing(datum).matrix
    exact = len({j for j, _ in matrix}) == len({k for _, k in matrix}) == len(matrix) == datum.d
    span = sum(f.span() for f in matrix.values()) if exact else None
    best = (-1, None)
    for n in range(1, 25):
        dim = _kernel_dim(datum, n)
        if dim > best[0]:
            best = (dim, n)
        if dim == span:
            return best
    return None if span is not None or 2 * best[1] > 24 else best


@lru_cache(maxsize=None)
def _kernel_degree_draws():
    """(datum, (s, e) or the DegeneratePairing raised) for seeded
    `_random_datum` and `_nonzero_pairing_datum` draws with a nonzero pairing
    over the fields of p <= 7, m <= 2, for d <= 3: the second kind couples
    its coordinates by cross terms.  Draws whose splitting field is past the
    field bound are left out; drawn once, and read, never changed, by the
    tests."""
    out = []
    for field in (F2, F4, F3, F9, F5, make_field(5, 2), make_field(7, 1)):
        rng = random.Random(f"kernel-degrees-{field.q}")
        for d, _, draw in itertools.product((1, 2, 3), range(10),
                                            (_random_datum, _nonzero_pairing_datum)):
            pairing = symbolic_pairing(datum := draw(field, d, rng))
            try:
                out.append((datum, pairing.kernel_degrees()))
            except DegeneratePairing as exc:
                out.append((datum, exc))
            except ScaleCapExceeded:
                pass
    return [(datum, got) for datum, got in out if not symbolic_pairing(datum).is_zero()]


def _prime_divisors(n):
    return [l for l in range(2, n + 1) if n % l == 0 and all(l % r for r in range(2, l))]


def test_kernel_degrees_are_the_least_splitting_nullspace():
    # K(F_{q^n}) = K meets (F_{q^n})^d, so e is least iff the nullspace has
    # dimension s at n = e and less at e / l for each prime l | e; checked
    # on every draw with q^e <= 2^64, coupled d = 2 and d = 3 pairings among them
    checked = coupled = 0
    for datum, got in _kernel_degree_draws():
        if isinstance(got, Exception) or datum.field.q ** got[1] > 2**64:
            continue
        s, e = got
        assert _kernel_dim(datum, e) == s, datum.to_json()
        assert all(_kernel_dim(datum, e // l) < s for l in _prime_divisors(e)), datum.to_json()
        checked += 1
        coupled += datum.d > 1 and any(j != k for j, k in symbolic_pairing(datum).matrix)
    assert checked >= 200 and coupled >= 60


def test_kernel_degrees_match_the_scan_where_it_was_exact():
    # where one nonzero entry sat in each row and column of the pairing
    # (`kernel_span`) and K split by n = 24, the scan's (dim, n) is (s, e)
    checked = 0
    for datum, got in _kernel_degree_draws():
        matrix = symbolic_pairing(datum).matrix
        if (isinstance(got, Exception) or got[1] > 24
                or not len({j for j, _ in matrix}) == len({k for _, k in matrix}) == len(matrix)):
            continue
        assert _scanned_kernel(datum) == got, datum.to_json()
        checked += 1
    assert checked >= 100


def test_kernel_degrees_refuse_only_infinite_kernels():
    # an infinite K is a positive-dimensional group over F_q, so its
    # connected part, unipotent, has at least q^n points over F_{q^n}: a
    # refused draw has dim K(F_{q^n}) >= m n at n = 1, 2, 3
    refused = [datum for datum, got in _kernel_degree_draws() if isinstance(got, Exception)]
    assert len(refused) >= 40
    for datum in refused:
        m = datum.field.m
        assert all(_kernel_dim(datum, n) >= m * n for n in (1, 2, 3)), datum.to_json()


def test_kernel_degrees_cap_the_module_before_the_echelon(monkeypatch):
    # the d unit vectors of M hold up to d^2 entries: a wide datum is refused
    # there, as the first Gram matrix of the scan refused it, and nothing is
    # reduced; the cap is the scale cap
    reduced = []
    monkeypatch.setattr(charsum, "_reduce", lambda *a: reduced.append(a))
    wide = QuadDatum(F2, 2000, [DiagMonomial(j, 1, F2.one()) for j in range(2000)])
    with pytest.raises(ScaleCapExceeded, match="module normal forms over 4000000 points"):
        geometric_kernel(wide)
    monkeypatch.setenv("GAUSSLAB_CAP", "3")
    with pytest.raises(ScaleCapExceeded, match="module normal forms over 4 points exceeds cap 3"):
        geometric_kernel(frobpair(F2, 1))
    assert reduced == []


def test_geometric_kernel_builds_one_evaluator(monkeypatch):
    # the pairing gives e, so one field F_{q^e}, one evaluator and one
    # nullspace serve every datum
    built = []
    evaluator = charsum._Evaluator
    monkeypatch.setattr(charsum, "_Evaluator",
                        lambda datum, n, override=False: built.append(n) or evaluator(datum, n, override))
    for datum, n in ((x_cubed(F2), 2), (x_cubed(F4, a=F4.gen()), 3), (frobpair(F4, 2), 1),
                     (QuadDatum.from_json(_CRAFTED), 66)):
        built.clear()
        assert geometric_kernel(datum).splitting_degree == n
        assert built == [n]


# x^3 on y0 + y1 plus B(y1), B = x^5 + x^33 + Witt(x), over F_2: the scan
# stopped at n = 2 with |K| = 4, while the nullspace at n = 66 has dimension 12
_CRAFTED = {"field": {"p": 2, "m": 1}, "d": 2, "terms": [
    {"kind": "diag", "j": 1, "i": 2, "a": [1]}, {"kind": "diag", "j": 1, "i": 5, "a": [1]},
    {"kind": "wittlin", "j": 1, "c": [1]}, {"kind": "diag", "j": 0, "i": 1, "a": [1]},
    {"kind": "cross", "j": 0, "k": 1, "i": 1, "a": [1]},
    {"kind": "cross", "j": 1, "k": 0, "i": 1, "a": [1]}, {"kind": "diag", "j": 1, "i": 1, "a": [1]}]}
# B alone: the scan found no kernel of size 2^10 below degree 24
_B_ALONE = {"field": {"p": 2, "m": 1}, "d": 1, "terms": [
    {"kind": "diag", "j": 0, "i": 2, "a": [1]}, {"kind": "diag", "j": 0, "i": 5, "a": [1]},
    {"kind": "wittlin", "j": 0, "c": [1]}]}
# a seeded d = 2 draw over F_25: the scan reported |K| = 1; s = 6 and e = 124
_F25_DRAW = {"field": {"p": 5, "m": 2, "modulus": [1, 1, 1]}, "d": 2, "terms": [
    {"kind": "diag", "j": 1, "i": 1, "a": [0, 2]}, {"kind": "cross", "j": 0, "k": 1, "i": 0, "a": [3, 1]},
    {"kind": "diag", "j": 0, "i": 2, "a": [1, 0]}]}


def test_geometric_kernel_of_data_the_scan_got_wrong(monkeypatch):
    for obj, size, r, e in ((_CRAFTED, 4096, 6, 66), (_B_ALONE, 1024, 5, 33)):
        k = geometric_kernel(QuadDatum.from_json(obj))
        assert (k.size, k.r, k.splitting_degree, len(k.basis)) == (size, r, e, 2 * r)
    f25 = QuadDatum.from_json(_F25_DRAW)
    assert symbolic_pairing(f25).kernel_degrees(override=True) == (6, 124)
    with pytest.raises(ScaleCapExceeded, match="extension field"):
        geometric_kernel(f25)
    # x^(2^13+1): K splits at e = 26, past the old scan, and nothing is listed
    spans = []
    monkeypatch.setattr(charsum, "_span_mod_p", lambda *a: spans.append(a) or fields._span_mod_p(*a))
    x8193 = QuadDatum(F2, 1, [DiagMonomial(0, 13, F2.one())])
    with pytest.raises(ScaleCapExceeded, match="kernel listing over 67108864 points"):
        geometric_kernel(x8193)
    k = geometric_kernel(x8193, override=True)
    assert (k.size, k.splitting_degree, len(k.basis), spans) == (2**26, 26, 26, [])
    # x^(2^64+1): s = e = 128 from the pairing alone
    pairing = symbolic_pairing(QuadDatum(F2, 1, [DiagMonomial(0, 64, F2.one())]))
    assert pairing.kernel_degrees() == (128, 128)


def test_kernel_degrees_of_dependent_equations():
    # coordinate 1 appears only through x0 + x1 in both equations: the
    # columns are dependent, and K is infinite though no entry vanishes
    one = AdditivePolynomial(F2, {0: F2.one()})
    pairing = charsum.PairingDatum(F2, 2, {(j, k): one for j in (0, 1) for k in (0, 1)})
    with pytest.raises(DegeneratePairing, match="coordinate 1 is free modulo"):
        pairing.kernel_degrees()
    with pytest.raises(DegeneratePairing, match="coordinate 1 is unconstrained"):
        charsum.PairingDatum(F2, 2, {(0, 0): one}).kernel_degrees()


def test_kernel_degrees_stop_at_the_field_bound_with_the_cap_lifted():
    # x^(2^65+1) splits at e = 130: F_(2^129) is past 2^128, so the cap
    # refuses degree 129, and with the cap lifted the search ends there too
    # (a tau^m of large order on M would otherwise make it run on)
    pairing = symbolic_pairing(QuadDatum(F2, 1, [DiagMonomial(0, 65, F2.one())]))
    with pytest.raises(ScaleCapExceeded, match=f"extension field over {2**129} points"):
        pairing.kernel_degrees()
    with pytest.raises(DegeneratePairing, match="splitting degree above 129"):
        pairing.kernel_degrees(override=True)


def test_closed_form_matches_enumeration_on_catalog():
    for name, datum, _, _ in catalog_data():
        for n in (1, 2, 3):
            if datum.field.q ** (n * datum.d) > 2**12:
                continue
            assert _closed_form_histogram(datum, n) == _enumerated_histogram(datum, n), (name, n)


def test_closed_form_matches_enumeration_on_benchmark_shapes(monkeypatch):
    # the seeded char-sum data of the benchmark's `points` workload, at n = 4
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import CHAR_SUM_SLOTS, char_sum_job

    for shape in CHAR_SUM_SLOTS:
        for s in range(8):
            datum = QuadDatum.from_json(char_sum_job(*shape, s).input["datum"])
            assert _closed_form_histogram(datum, 4) == _enumerated_histogram(datum, 4), (shape, s)


@pytest.mark.parametrize("field", [F2, F4, F3, F9, F5], ids=["F2", "F4", "F3", "F9", "F5"])
def test_closed_form_matches_enumeration_on_random_data(field):
    rng = random.Random(f"gram-{field.q}")
    for d in (1, 2, 3):
        for _ in range(12):
            datum = _random_datum(field, d, rng)
            for n in (1, 2):
                if field.q ** (n * d) > 750:
                    continue
                closed = _closed_form_histogram(datum, n)
                assert closed == _enumerated_histogram(datum, n), (datum.to_json(), n)


def _swept_pairing(datum, n, override=False):
    """`derive_pairing` by evaluating t at all q^(nd) points in index order:
    the sweep that the fill from Gram data replaced, kept as the oracle."""
    from gausslab.quadform import FiniteAbelianGroup, QuadraticForm

    ev = charsum._Evaluator(datum, n, override)
    big = ev.big
    check_cap(big.q ** datum.d, override, "quadratic form table")
    group = FiniteAbelianGroup((ev.p,) * (big.m * datum.d))
    exps = [0] * group.order
    p2 = ev.p * ev.p
    scale = ev.p if datum.value_order == ev.p else 1
    for idx, tup in enumerate(group.tuples()):
        point = tuple(
            big.element(tup[j * big.m : (j + 1) * big.m]) for j in range(datum.d)
        )
        e = ev.exponent(point)
        exps[idx] = (e // scale) % (p2 // scale)
    return QuadraticForm(group, p2 // scale, exps)


def test_derive_pairing_matches_the_swept_table():
    # the catalog, and seeded data with Witt, precompose and cross terms at
    # d = 1 and d = 2, at n <= 3: the same group, order and table
    data = [(name, datum) for name, datum, _, _ in catalog_data()]
    for field in (F2, F4, F3, F9, F5):
        rng = random.Random(f"pairing-{field.q}")
        data += [(f"{field.tag}-d{d}-{k}", _random_datum(field, d, rng))
                 for d in (1, 2) for k in range(6)]
    covered = set()
    for name, datum in data:
        for n in (1, 2, 3):
            if datum.field.q ** (n * datum.d) > 2**10:
                continue
            form, swept = derive_pairing(datum, n), _swept_pairing(datum, n)
            assert form.group == swept.group, (name, n)
            assert form.value_order == swept.value_order, (name, n)
            assert form.exponents == swept.exponents, (name, n)
            covered.update((t.kind, datum.d) for t in datum.terms)
    assert {("wittlin", 1), ("precompose", 1), ("precompose", 2), ("cross", 2)} <= covered


def test_derive_pairing_evaluates_n_plus_two_points(monkeypatch):
    # the table is filled from Gram data on the N = m n d coordinate basis
    # vectors: N + 2 values of t, not q^(nd)
    calls = []
    exponent = charsum._Evaluator.exponent
    monkeypatch.setattr(charsum._Evaluator, "exponent",
                        lambda self, point: calls.append(point) or exponent(self, point))
    x4 = QuadDatum(F3, 1, [DiagMonomial(0, 1, F3.one())])
    for datum, n in ((x_cubed(F2), 12), (wittchar(F4), 5), (x4, 7), (frobpair(F2, 1), 6)):
        calls.clear()
        form = derive_pairing(datum, n)
        big_n = datum.field.m * n * datum.d
        assert form.group.order == datum.field.p ** big_n
        assert len(calls) == big_n + 2, (datum, n)


def test_gram_fill_traces_no_zero_coordinate(monkeypatch):
    # a coordinate basis vector is zero in d - 1 of its d coordinates and
    # Tr(u * 0) = 0, so the fill traces one product per entry k <= l, besides
    # the one trace in each of the N + 2 values of e
    traced = []
    trace = charsum.absolute_trace_int
    monkeypatch.setattr(charsum, "absolute_trace_int", lambda x: traced.append(x) or trace(x))
    for datum, n in ((frobpair(F2, 1), 6), (frobpair(F3, 1), 2), (x_cubed(F4), 3)):
        ev = charsum._Evaluator(datum, n)
        basis = _power_coordinate_basis(datum, n)
        traced.clear()
        data = charsum._gram_data(ev, basis)
        big_n = len(basis)
        assert len(traced) == big_n * (big_n + 1) // 2 + big_n + 2, (datum, n)
        assert data == _pair_sum_gram_data(ev.exponent, basis, ev.p), (datum, n)


def test_closed_form_radical_linear_part():
    # a radical coordinate carrying a linear character kills the sum...
    killed = [
        QuadDatum(F3, 2, [HalfSquare(0, F3.one()), ASLinear(1, F3.one())]),
        QuadDatum(F2, 2, [WittLinear(0, F2.one()), ASLinear(1, F2.one())]),
        QuadDatum(F4, 1, [ASLinear(0, F4.gen())]),
    ]
    # ...while a radical on which the linear part vanishes multiplies it by
    # p^(dim radical); over F_2, psi(Tr(x^3 + x)) is trivial at n = 1
    kept = [
        QuadDatum(F3, 2, [HalfSquare(0, F3.one())]),
        QuadDatum(F4, 2, [WittLinear(1, F4.gen())]),
        QuadDatum(F2, 1, [DiagMonomial(0, 1, F2.one()), ASLinear(0, F2.one())]),
        QuadDatum(F9, 1, []),
    ]
    for datum in killed + kept:
        for n in (1, 2):
            assert _closed_form_histogram(datum, n) == _enumerated_histogram(datum, n), datum
    for datum in killed:
        assert char_sum(datum, 1).is_zero() and char_sum(datum, 2).is_zero(), datum
    assert char_sum(kept[0], 1) == 3 * char_sum(QuadDatum(F3, 1, [HalfSquare(0, F3.one())]), 1)
    assert char_sum(kept[2], 1) == 2
    assert char_sum(kept[3], 2) == 81


def test_closed_form_rejects_a_non_quadratic_exponent(monkeypatch):
    # e(x + y) - e(x) - e(y) must be divisible by p; an exponent that is not
    # a quadratic function is a fault, exit 4
    datum = QuadDatum(F3, 1, [HalfSquare(0, F3.one())])
    monkeypatch.setattr(charsum._Evaluator, "exponent", lambda self, point: 1)
    with pytest.raises(TheoremViolated):
        char_sum(datum, 1)


def test_char_sum_does_not_enumerate(monkeypatch):
    # N + 2 evaluations for N = m*n*d: the basis, 0 and the sum of the basis,
    # never the q^(nd) points
    calls = []
    exponent = charsum._Evaluator.exponent
    monkeypatch.setattr(charsum._Evaluator, "exponent",
                        lambda self, point: calls.append(point) or exponent(self, point))
    _forbid_field_sweeps(monkeypatch)
    datum = frobpair(F4, 2)
    char_sum(datum, 6)
    assert len(calls) == 24 + 2


def _reference_symbolic_pairing(datum):
    """`symbolic_pairing` term kind by term kind, before it read the term
    plan: the reference the plan's polarization rules must reproduce."""
    field = datum.field
    matrix = {}
    zero = AdditivePolynomial(field, {})
    identity = AdditivePolynomial(field, {0: field.one()})

    def add_to(j, k, f):
        matrix[(j, k)] = matrix.get((j, k), zero) + f

    def sub_of(j):
        s = datum.substitution(j)
        return s if s is not None else identity

    for t in datum.terms:
        if t.kind in ("precompose", "aslin"):
            continue
        if t.kind == "diag":
            s = sub_of(t.j)
            si = s.twist(t.i)
            add_to(t.j, t.j, s.adjoint().compose(si.scale(t.a)))
            add_to(t.j, t.j, si.adjoint().compose(s.scale(t.a)))
        elif t.kind == "cross":
            sj, sk = sub_of(t.j), sub_of(t.k)
            sji = sj.twist(t.i)
            add_to(t.j, t.k, sk.adjoint().compose(sji.scale(t.a)))
            add_to(t.k, t.j, sji.adjoint().compose(sk.scale(t.a)))
        elif t.kind == "halfsq":
            s = sub_of(t.j)
            add_to(t.j, t.j, s.adjoint().compose(s.scale(t.a)))
        elif t.kind == "wittlin":
            s = sub_of(t.j)
            add_to(t.j, t.j, s.adjoint().compose(s.scale(t.c * t.c)))
    return charsum.PairingDatum(field, datum.d, matrix)


def test_symbolic_pairing_from_the_term_plan_matches_the_reference():
    # every corpus and catalog datum, and seeded draws mixing precompose,
    # cross, Witt and the other kinds: the same PairingDatum, entry for entry
    data = [QuadDatum.from_json(entry["input"].get("datum") or entry["input"]["from_datum"])
            for entry in corpus().values()
            if "datum" in entry["input"] or "from_datum" in entry["input"]]
    data += [datum for _, datum, _, _ in catalog_data()]
    rng = random.Random("term-plan")
    for field in (F2, F4, F3, F9, F5):
        data += [_random_datum(field, d, rng) for d in (1, 2, 3) for _ in range(12)]
    kinds = {t.kind for datum in data for t in datum.terms}
    assert kinds == {"diag", "cross", "halfsq", "aslin", "wittlin", "precompose"}
    for datum in data:
        assert symbolic_pairing(datum) == _reference_symbolic_pairing(datum), datum.to_json()


def test_symbolic_pairing_asymmetry_is_a_fault(monkeypatch):
    # an expanded pairing that fails r_B = l_B is a construction bug (exit
    # 4), while an asymmetric pairing given as input stays invalid input
    monkeypatch.setattr(charsum.PairingDatum, "is_symmetric", lambda self: False)
    with pytest.raises(TheoremViolated):
        symbolic_pairing(x_cubed(F3))
    with pytest.raises(NotSymmetric):
        canonical_quadratic(charsum.PairingDatum(F3, 1, {}))


def test_sum_path_caps_what_it_builds(monkeypatch):
    # a sum counts its N^2 Gram entries against the cap, and so do the
    # invariance and pullback checks built on it; the pullback also counts its
    # p^(N - rank) annihilator characters
    monkeypatch.setenv("GAUSSLAB_CAP", "100")
    datum = QuadDatum(F2, 3, [DiagMonomial(0, 1, F2.one())])
    with pytest.raises(ScaleCapExceeded, match="Gram matrix over 441 points exceeds cap 100"):
        char_sum(datum, 7)
    with pytest.raises(ScaleCapExceeded, match="Gram matrix over 144 points exceeds cap 100"):
        char_sum(datum, 4)
    assert char_sum(datum, 4, override=True) == 2**8 * char_sum(x_cubed(F2), 4)
    one = [[F2.one() if r == c else F2.zero() for c in range(3)] for r in range(3)]
    with pytest.raises(ScaleCapExceeded, match="Gram matrix over 144 points exceeds cap 100"):
        invariance_check(datum, [one], n=4)
    with pytest.raises(ScaleCapExceeded, match="Gram matrix over 144 points exceeds cap 100"):
        pullback_sum_identity(datum, [AdditivePolynomial(F2, {0: F2.one()})] * 3, n=4)
    # x -> x^16 + x vanishes on F_16: rank 0, so 2^8 characters at N = 8
    plane = QuadDatum(F2, 2, [DiagMonomial(0, 1, F2.one())])
    lang16 = [AdditivePolynomial(F2, {4: F2.one(), 0: F2.one()})] * 2
    with pytest.raises(ScaleCapExceeded,
                       match="annihilator characters over 256 points exceeds cap 100"):
        pullback_sum_identity(plane, lang16, n=4)
    assert pullback_sum_identity(plane, lang16, n=4, override=True) == (256, 256, 256)
    # its extension field counts against the field bound, which GAUSSLAB_CAP
    # does not move: F_{2^129} is refused before it is built
    monkeypatch.setenv("GAUSSLAB_CAP", str(2**200))
    with pytest.raises(ScaleCapExceeded,
                       match=f"extension field over {2**129} points exceeds cap {2**128}"):
        char_sum(x_cubed(F2), 129)


def test_derive_pairing_caps_its_value_table(monkeypatch):
    # the cap counts the q^(n*d) values the form is built from: x^3 over F_2
    # at n = 11 builds its 2048 values under the default cap; its radical is
    # F_4 meet F_2048 = F_2
    form = derive_pairing(x_cubed(F2), 11)
    assert form.group.order == 2048 and len(form.radical()) == 2
    # at d = 2, n = 3 the table has 64 values, the field 8 and the Gram matrix 36
    plane = QuadDatum(F2, 2, [DiagMonomial(0, 1, F2.one()), DiagMonomial(1, 1, F2.one())])
    monkeypatch.setenv("GAUSSLAB_CAP", "63")
    with pytest.raises(ScaleCapExceeded,
                       match="quadratic form table over 64 points exceeds cap 63"):
        derive_pairing(plane, 3)
    monkeypatch.setenv("GAUSSLAB_CAP", "64")
    assert derive_pairing(plane, 3).group.order == 64


# -- Gram-data checks against their enumerating oracles ------------------------------

def _enumerated_invariance(datum, matrices, n):
    """t(g x) == t(x) at every point x and every matrix g, point by point."""
    ev = charsum._Evaluator(datum, n)
    big, emb = ev.big, ev.emb
    lifted = [[[emb(datum.field.element(c)) for c in row] for row in mat] for mat in matrices]
    for point in _points(datum, n):
        base = ev.exponent(point)
        for g in lifted:
            moved = tuple(sum((g[r][c] * point[c] for c in range(datum.d)), big.zero())
                          for r in range(datum.d))
            if ev.exponent(moved) != base:
                return False
    return True


def pullback_sum_identity(datum, isogeny, n=1, override=False):
    """Exact sum identities for pulling back a datum along a coordinatewise
    isogeny, a list of d nonzero AdditivePolynomials (a purely inseparable
    factor is fine: Frobenius is bijective on the points of a perfect field):
      sum_x t(f(x)) = |ker f(F_{q^n})| * sum_{v in image} t(v)
                    = sum over annihilator characters of S_n(twisted datum).
    Returns (lhs, rhs_image, rhs_characters).  Each side is a sum of a
    quadratic exponent taken from its Gram data, with no point enumeration;
    the p^(N - rank) annihilator characters count against the cap.
    `_enumerated_pullback` is its sweep oracle."""
    ev = charsum._Evaluator(datum, n, override)
    big, p, p2 = ev.big, ev.p, ev.p * ev.p
    lifted = [f.lift(ev.emb) for f in isogeny]
    basis = charsum._coordinate_basis(big, [big._power_basis] * datum.d)

    # left side: f is F_p-linear, so e o f is quadratic with the Gram data
    # of e on the images f(b_k)
    images = [tuple(f.evaluate(x) for f, x in zip(lifted, b)) for b in basis]
    lhs = zeta_sum(p2, charsum._histogram(*charsum._gram_data(ev, images), p))

    # right side 1: |ker f| = p^(N - rank) times the sum over the image, on
    # the pivot columns among the images f(X^t) in each coordinate
    image_bases = []
    for f in lifted:
        cols = [f.evaluate(u) for u in big._power_basis]
        _, pivots = fields._row_reduce_mod_p(list(zip(*(w.coeffs for w in cols))), p)
        image_bases.append([cols[c] for c in pivots])
    image_basis = charsum._coordinate_basis(big, image_bases)
    corank = len(basis) - len(image_basis)
    rhs_image = p**corank * zeta_sum(p2, charsum._histogram(*charsum._gram_data(ev, image_basis), p))

    # right side 2: c annihilates the image when c -> (Tr(c w))_w sends its
    # basis to 0; the twist psi(Tr(c x)) is additive, so it keeps the Gram
    # matrix and shifts each a[k] by p Tr(c b_k)
    check_cap(p**corank, override, "annihilator characters")
    annihilators = [
        fields._linear_kernel(big, lambda c, ws=ws: [absolute_trace_int(c * w) for w in ws])
        for ws in image_bases
    ]
    a, gram = charsum._gram_data(ev, basis)
    hist = Counter()
    for cs in itertools.product(*annihilators):
        shifted = [(e + p * sum(absolute_trace_int(c * x) for c, x in zip(cs, b))) % p2
                   for e, b in zip(a, basis)]
        hist.update(charsum._histogram(shifted, gram, p))
    return lhs, rhs_image, zeta_sum(p2, hist)


def _enumerated_pullback(datum, isogeny, n):
    """(lhs, rhs_image, rhs_chars) of `pullback_sum_identity` by sweeping the
    points, each coordinate image and the field for its annihilators."""
    ev = charsum._Evaluator(datum, n)
    big, p2 = ev.big, ev.p * ev.p
    lifted = [f.lift(ev.emb) for f in isogeny]

    def histogram_sum(points, twist=lambda point: 0):
        hist = {}
        for point in points:
            e = (ev.exponent(point) + ev.p * twist(point)) % p2
            hist[e] = hist.get(e, 0) + 1
        return zeta_sum(p2, hist)

    lhs = histogram_sum(tuple(f.evaluate(x) for f, x in zip(lifted, point))
                        for point in _points(datum, n))
    images = [sorted({f.evaluate(x) for x in big.elements()}, key=lambda e: e.coeffs)
              for f in lifted]
    kernel_size = big.q ** datum.d // prod(len(img) for img in images)
    rhs_image = kernel_size * histogram_sum(itertools.product(*images))
    annihilators = [[c for c in big.elements() if all(absolute_trace_int(c * w) == 0 for w in img)]
                    for img in images]
    rhs_chars = zeta_sum(p2, {0: 0})
    for cs in itertools.product(*annihilators):
        rhs_chars = rhs_chars + histogram_sum(
            _points(datum, n),
            lambda point, cs=cs: sum(absolute_trace_int(c * x) for c, x in zip(cs, point)))
    return lhs, rhs_image, rhs_chars


def _enumerated_cocycle(i, a, field, n):
    """`clb_cocycle_identity_check` at every pair (x, y) of F_{q^n}."""
    big, emb = extension(field, n, False)
    aa = emb(field.element(a))
    ar = aa.pth_root(i)

    def fval(x):
        return aa * x.frobenius(i) + ar * x.pth_root(i)

    for x in big.elements():
        for y in big.elements():
            expr = fval(x) * y - x * fval(y)
            if absolute_trace_int(expr) != 0:
                return False
            g = big.zero()
            base = ar * x * y.pth_root(i) - ar * x.pth_root(i) * y
            for jj in range(i):
                g = g + base.frobenius(jj)
            if expr != g.frobenius() - g:
                return False
    return True


def _random_matrix(field, d, rng):
    return [[field.element([rng.randrange(field.p) for _ in range(field.m)])
             for _ in range(d)] for _ in range(d)]


def _forbid_field_sweeps(monkeypatch):
    def sweep(self):
        raise AssertionError(f"a sweep of {self.tag}")

    monkeypatch.setattr(fields.FiniteField, "elements", sweep)


def test_gram_histogram_leaves_its_inputs_alone():
    ev = charsum._Evaluator(frobpair(F4, 2), 1)
    basis = charsum._coordinate_basis(ev.big, [ev.big._power_basis] * 2)
    a, gram = charsum._gram_data(ev, basis)
    copies = (list(a), [list(row) for row in gram])
    assert charsum._histogram(a, gram, 2) == charsum._histogram(a, gram, 2)
    assert (a, gram) == copies


# -- the Wall split against its reference ------------------------------------------

def _reference_histogram(a, gram, p):
    """`_histogram` before its projection was written out: each piece's
    values and each projected row through `_value`, each Gram entry by a
    generator sum.  The reference the closed form must reproduce."""
    p2 = p * p
    a, gram = list(a), [list(row) for row in gram]
    hist = Counter({0: 1})
    live = list(range(len(a)))
    while live:
        # a line, else a plane, else a vector of the radical, where e is additive
        piece = next(([k] for k in live if gram[k][k]), None) or next(
            ([k, l] for k in live for l in live if gram[k][l]), None) or live[:1]
        live = [k for k in live if k not in piece]
        convolved = Counter()
        for cs in itertools.product(range(p), repeat=len(piece)):
            e = charsum._value(a, gram, p, list(zip(piece, cs)))
            for e1, c1 in hist.items():
                convolved[(e1 + e) % p2] += c1
        hist = convolved
        g = gram[piece[0]][piece[-1]]
        if not g:  # a radical vector: orthogonal to the rest already
            continue
        # x - B(x, v)/B(v, v) v off a line; x - (B(x, w) v + B(x, v) w)/B(v, w)
        # off a plane, where B(v, v) = B(w, w) = 0
        inv = pow(g, -1, p)
        for r in live:
            proj = list(zip(piece, (gram[r][k] * inv % p for k in reversed(piece))))
            a[r] = charsum._value(a, gram, p, [(r, 1)] + [(k, -c) for k, c in proj])
            row = gram[r]
            for r2 in live:
                row[r2] = (row[r2] - sum(c * gram[k][r2] for k, c in proj)) % p
    return hist


def _seeded_gram_data(p, witt, rng):
    """Gram data on N <= 16 points w_k = sum_j P[k][j] v_j, P random, of block
    data on v_0 .. v_(M-1), M <= 16, in a random order: lines with B(v, v) !=
    0 (at p = 2 only Z/4-valued Witt data have them), hyperbolic planes and a
    radical.  a_k = e(w_k) by `_value`, so e is quadratic on the span and
    the data pass the conditions `_gram_data` checks (checked below)."""
    m = rng.randint(1, 16)
    kinds = rng.choices(["line", "plane", "radical"] if p != 2 or witt else ["plane", "radical"],
                        k=m)
    blocks, used = [], 0
    for kind in kinds:
        if used + (2 if kind == "plane" else 1) > m:
            kind = "radical"
        blocks.append(kind)
        used += 2 if kind == "plane" else 1
        if used == m:
            break
    a0, gram0 = [], [[0] * m for _ in range(m)]
    for kind in blocks:
        k = len(a0)
        if kind == "line":
            gram0[k][k] = rng.randrange(1, p)
            a0.append((p * rng.randrange(p) + gram0[k][k]) % (p * p) if p == 2
                      else p * rng.randrange(p))
        elif kind == "plane":
            gram0[k][k + 1] = gram0[k + 1][k] = rng.randrange(1, p)
            a0 += [p * rng.randrange(p), p * rng.randrange(p)]
        else:
            a0.append(p * rng.randrange(p))
    order = rng.sample(range(m), m)
    a0 = [a0[i] for i in order]
    gram0 = [[gram0[i][j] for j in order] for i in order]
    n = rng.randint(1, 16)
    P = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    a = [charsum._value(a0, gram0, p, list(enumerate(row))) for row in P]
    gram = [[sum(x * gram0[i][j] * y for i, x in enumerate(rk) for j, y in enumerate(rl)) % p
             for rl in P] for rk in P]
    return a, gram, blocks


@pytest.mark.parametrize("p,witt", [(2, False), (2, True), (3, False), (5, False)],
                         ids=["p2", "p2-witt", "p3", "p5"])
def test_wall_split_matches_the_reference_on_seeded_gram_data(p, witt):
    # up to N = 16 points, p^16 of them: beyond what enumeration can check
    rng = random.Random(f"wall-split-{p}-{witt}")
    seen, sizes = set(), set()
    for _ in range(40):
        a, gram, blocks = _seeded_gram_data(p, witt, rng)
        for k in range(len(a)):
            assert gram[k] == [row[k] for row in gram]
            assert (a[k] - gram[k][k]) % 2 == 0 if p == 2 else a[k] % p == 0
        copies = (list(a), [list(row) for row in gram])
        hist = charsum._histogram(a, gram, p)
        assert hist == _reference_histogram(a, gram, p), (a, gram)
        assert sum(hist.values()) == p ** len(a) and (a, gram) == copies
        seen.update(blocks)
        sizes.add(len(a))
    assert seen == ({"line", "plane", "radical"} if p != 2 or witt else {"plane", "radical"})
    assert max(sizes) >= 12


def test_wall_split_matches_the_reference_on_corpus_and_catalog():
    data = [QuadDatum.from_json(entry["input"].get("datum") or entry["input"]["from_datum"])
            for entry in corpus().values()
            if "datum" in entry["input"] or "from_datum" in entry["input"]]
    data += [datum for _, datum, _, _ in catalog_data()]
    for datum in data:
        for n in (1, 2, 3):
            ev = charsum._Evaluator(datum, n)
            a, gram = charsum._gram_data(ev, _power_coordinate_basis(datum, n))
            assert charsum._histogram(a, gram, ev.p) == _reference_histogram(a, gram, ev.p), (
                datum.to_json(), n)


def _pair_sum_gram_data(exponent, basis, p):
    """Gram data by their definition, N(N+3)/2 values of e: a[k] = e(b_k)
    and p B(b_k, b_l) = e(b_k + b_l) - e(b_k) - e(b_l) mod p^2."""
    a = [exponent(b) for b in basis]
    gram = [[0] * len(basis) for _ in basis]
    for k, bk in enumerate(basis):
        for l in range(k, len(basis)):
            diff = exponent(tuple(x + y for x, y in zip(bk, basis[l]))) - a[k] - a[l]
            assert diff % p == 0, "e(x + y) - e(x) - e(y) is not divisible by p"
            gram[k][l] = gram[l][k] = diff // p % p
    return a, gram


def _symbolic_gram(datum, ev, basis):
    """B(b_k, b_l) = Tr(sum_jk f_jk(x_j) y_k) from the rows f_jk of
    `symbolic_pairing`, lifted to the extension."""
    rows = {jk: f.lift(ev.emb) for jk, f in symbolic_pairing(datum).matrix.items()}
    return [[absolute_trace_int(sum((f.evaluate(x[j]) * y[k] for (j, k), f in rows.items()),
                                    ev.big.zero())) for y in basis] for x in basis]


def _check_polar_gram(datum, n, basis):
    """The polar-form Gram data against both oracles on points `basis`."""
    ev = charsum._Evaluator(datum, n)
    a, gram = charsum._gram_data(ev, basis)
    assert (a, gram) == _pair_sum_gram_data(ev.exponent, basis, ev.p), (datum.to_json(), n)
    assert gram == _symbolic_gram(datum, ev, basis), (datum.to_json(), n)


def _power_coordinate_basis(datum, n):
    big, _ = extension(datum.field, n, False)
    return charsum._coordinate_basis(big, [big._power_basis] * datum.d)


def test_polar_gram_matches_pair_sums_on_catalog():
    for name, datum, _, _ in catalog_data():
        for n in (1, 2, 3):
            if datum.field.m * n * datum.d <= 12:
                _check_polar_gram(datum, n, _power_coordinate_basis(datum, n))


@pytest.mark.parametrize("field", [F2, F4, F3, F9, F5], ids=["F2", "F4", "F3", "F9", "F5"])
def test_polar_gram_matches_pair_sums_on_random_data(field):
    rng = random.Random(f"polar-{field.q}")
    kinds = set()
    for d in (1, 2):
        for _ in range(10):
            datum = _random_datum(field, d, rng)
            kinds.update(t.kind for t in datum.terms)
            for n in range(1, 5):
                if field.m * n * d <= 12:
                    _check_polar_gram(datum, n, _power_coordinate_basis(datum, n))
    wanted = {"diag", "cross", "aslin", "precompose", "halfsq" if field.p != 2 else "wittlin"}
    assert kinds == wanted


def test_polar_gram_matches_pair_sums_on_moved_points():
    # the images of `pullback_sum_identity` and the moved bases of
    # `invariance_check`: points that are not a coordinate basis
    rng = random.Random("polar-moved")
    for datum, isogeny, n in _pullback_cases(random.Random("pullback")):
        big, emb = extension(datum.field, n, False)
        lifted = [f.lift(emb) for f in isogeny]
        images = [tuple(f.evaluate(x) for f, x in zip(lifted, b))
                  for b in _power_coordinate_basis(datum, n)]
        _check_polar_gram(datum, n, images)
        g = [[emb(c) for c in row] for row in _random_matrix(datum.field, datum.d, rng)]
        moved = [tuple(sum((g[r][c] * b[c] for c in range(datum.d)), big.zero())
                       for r in range(datum.d)) for b in _power_coordinate_basis(datum, n)]
        _check_polar_gram(datum, n, moved)


def test_polar_gram_guard_catches_a_wrong_polar_form(monkeypatch):
    # the polar form without the F^(-i)(a x) half of each diagonal term: the
    # guard sees it on every diagonal datum of the catalog and on x^3 over
    # F_2, F_3 and F_4 at n = 1..3, exit 4.  For p = 2 it is the diagonal
    # B(b_k, b_k) = e(b_k) mod 2; for odd p the value at 2 sum_k b_k, which
    # weighs every B(b_k, b_l) (at the sum of the basis, 6 of these 18 cases
    # raised: that point never sees the diagonal mod 2, nor anything at N = 1)
    polar = charsum._Evaluator.polar

    def half_diag(self, v):
        u = polar(self, v)
        for j, k, i, a in self._cross:
            if j == k and i:
                u[j] = u[j] - (a * v[j]).frobenius(-i)
        return u

    diagonal = [datum for name, datum, _, _ in catalog_data() if name.startswith("diag-")]
    data = [(datum, n) for datum in [x_cubed(F2), x_cubed(F3), x_cubed(F4)] + diagonal
            for n in (1, 2, 3)]
    assert len(data) == 18
    expected = [char_sum(datum, n) for datum, n in data]
    monkeypatch.setattr(charsum._Evaluator, "polar", half_diag)
    for datum, n in data:
        with pytest.raises(TheoremViolated, match="disagrees with its Gram data"):
            char_sum(datum, n)
    monkeypatch.undo()
    assert [char_sum(datum, n) for datum, n in data] == expected


def test_invariance_matches_enumeration():
    rng = random.Random("invariance")
    cases = []
    for name, datum, _, _ in catalog_data():
        field, d = datum.field, datum.d
        one = [[field.one() if r == c else field.zero() for c in range(d)] for r in range(d)]
        zero = [[field.zero()] * d for _ in range(d)]
        mats = [one, zero] + [_random_matrix(field, d, rng) for _ in range(3)]
        for n in (1, 2):
            if field.q ** (n * d) <= 256:
                cases += [(datum, [g], n) for g in mats] + [(datum, [one, mats[-1]], n)]
    for field in (F2, F4, F3, F9, F5):
        for d in (1, 2):
            for _ in range(6):
                datum = _random_datum(field, d, rng)
                # a rank-one matrix: every row a multiple of one random row
                row = _random_matrix(field, d, rng)[0]
                scales = _random_matrix(field, d, rng)[0]
                singular = [[s * c for c in row] for s in scales]
                for n in (1, 2):
                    if field.q ** (n * d) <= 256:
                        cases += [(datum, [_random_matrix(field, d, rng)], n),
                                  (datum, [singular], n)]
    outcomes = []
    for datum, mats, n in cases:
        expected = _enumerated_invariance(datum, mats, n)
        assert invariance_check(datum, mats, n) == expected, (datum.to_json(), mats, n)
        outcomes.append(expected)
    assert outcomes.count(True) > 30 and outcomes.count(False) > 30


def _pullback_cases(rng):
    lang = AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()})
    cases = [  # the isogenies of test_pullback_annihilators_match_brute_force
        (wittchar(F2), [lang], 2),
        (x_cubed(F2), [AdditivePolynomial(F2, {2: F2.one(), 0: F2.one()})], 3),
        (x_cubed(F4), [AdditivePolynomial(F4, {1: F4.one(), 0: F4.gen()})], 1),
        (frobpair(F4, 1),
         [lang.lift(extension(F2, 2, False)[1]), AdditivePolynomial(F4, {1: F4.gen()})], 1),
    ]
    for field in (F2, F4, F3, F9):
        for d in (1, 2):
            for _ in range(3):
                datum = _random_datum(field, d, rng)
                isogeny = []
                while len(isogeny) < d:
                    f = AdditivePolynomial(field, {i: field.element(
                        [rng.randrange(field.p) for _ in range(field.m)]) for i in (-1, 0, 1, 2)})
                    if not f.is_zero():
                        isogeny.append(f)
                cases += [(datum, isogeny, n) for n in (1, 2) if field.q ** (n * d) <= 81]
    return cases


def test_pullback_matches_enumeration():
    for datum, isogeny, n in _pullback_cases(random.Random("pullback")):
        got = pullback_sum_identity(datum, isogeny, n)
        assert got == _enumerated_pullback(datum, isogeny, n), (datum.to_json(), n)
        assert got[0] == got[1] == got[2]


def test_cocycle_matches_enumeration():
    # the identity holds for i >= 0; at i = -1 the sum defining g is empty
    # while the expression is not 0, so the sweep also meets failures
    outcomes = []
    for field, n_max in ((F2, 2), (F4, 2), (F9, 1)):
        for a in field.elements():
            for i in (-1, 0, 1, 2):
                for n in range(1, n_max + 1):
                    expected = _enumerated_cocycle(i, a, field, n)
                    assert clb_cocycle_identity_check(i, a, field, n) == expected, (field, a, i, n)
                    outcomes.append(expected)
    assert outcomes.count(False) > 5 and outcomes.count(True) > 50
    # one element of F_9 at n = 2, swept over all 81^2 pairs
    w = F9.gen()
    assert clb_cocycle_identity_check(1, w, F9, 2) == _enumerated_cocycle(1, w, F9, 2)


def test_checks_do_not_sweep_points(monkeypatch):
    # with every field sweep refused, the four sums and checks still return
    # what their enumerating oracles return
    w = F4.gen()
    inv_cases = [(x_cubed(F4), [[[w]], [[w * w]]], 2),
                 (QuadDatum(F4, 1, [ASLinear(0, F4.one())]), [[[w]]], 1),
                 (frobpair(F4, 2), [_random_matrix(F4, 2, random.Random(3))], 1)]
    pull_cases = _pullback_cases(random.Random("pullback"))[:4]
    cocycle_cases = [(1, F4.one(), F4, 2), (2, w, F4, 2), (2, F9.gen(), F9, 1)]
    sum_cases = [(frobpair(F4, 2), 1), (wittchar(F4), 2),
                 (QuadDatum(F9, 1, [HalfSquare(0, F9.gen())]), 2)]
    expected = ([_enumerated_invariance(*c) for c in inv_cases],
                [_enumerated_pullback(*c) for c in pull_cases],
                [_enumerated_cocycle(*c) for c in cocycle_cases],
                [_enumerated_sum(*c) for c in sum_cases])
    _forbid_field_sweeps(monkeypatch)
    with pytest.raises(AssertionError, match="a sweep of F4"):
        list(F4.elements())
    assert ([invariance_check(*c) for c in inv_cases],
            [pullback_sum_identity(*c) for c in pull_cases],
            [clb_cocycle_identity_check(*c) for c in cocycle_cases],
            [char_sum(*c) for c in sum_cases]) == expected
