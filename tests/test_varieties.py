"""Curves and surfaces: counting, L-polynomials, certificates, W2 endomorphisms."""

import hashlib
import json
import random
from collections import Counter
from itertools import islice

import pytest

from gausslab.charsum import clb_cocycle_identity_check
from gausslab.corpus import corpus
from gausslab.errors import ScaleCapExceeded, check_cap
from gausslab.exactalg import IntPolynomial, abs_square, is_root_of_unity, weil_chain, zeta_sum
from gausslab.fields import (
    AdditivePolynomial,
    WittVector2,
    absolute_trace_int,
    additive_kernel,
    extension,
    gamma_value,
    make_field,
    witt_trace,
)
from gausslab.varieties import (
    CurveSpec,
    _dual_kernel,
    SurfaceSpec,
    betti_closure_check,
    betti_prediction,
    count_points,
    is_geometrically_connected,
    W2Endomorphism,
    mutated_endomorphism,
    random_curve_spec,
    surface_counts,
    surface_summand_certificates,
    verify_additive,
    w2_endomorphism,
    zeta_pipeline,
)
from test_charsum import as_reduce, gos_rank

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F8 = make_field(2, 3)
F9 = make_field(3, 2)


def vdgv():
    # y^2 + y = x^3 (f = Y^2 - Y, g1 = X, g2 = X^2, a = 0)
    return CurveSpec(
        F2,
        AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),
        AdditivePolynomial(F2, {0: F2.one()}),
        AdditivePolynomial(F2, {1: F2.one()}),
        F2.zero(),
    )


def f3_curve():
    return CurveSpec(
        F3,
        AdditivePolynomial(F3, {1: F3.one(), 0: -F3.one()}),
        AdditivePolynomial(F3, {0: F3.one()}),
        AdditivePolynomial(F3, {0: F3.one()}),
        F3.zero(),
    )


def test_curve_spec_invariants():
    with pytest.raises(ValueError):
        CurveSpec(F2, AdditivePolynomial(F2, {1: F2.one()}),  # inseparable f
                  AdditivePolynomial(F2, {0: F2.one()}),
                  AdditivePolynomial(F2, {0: F2.one()}), F2.zero())
    with pytest.raises(ValueError):
        CurveSpec(F2, AdditivePolynomial(F2, {0: F2.one()}),
                  AdditivePolynomial(F2, {}),  # g1 = 0
                  AdditivePolynomial(F2, {0: F2.one()}), F2.zero())


def test_vdgv_counts():
    spec = vdgv()
    assert count_points(spec, 1) == 2
    assert count_points(spec, 2) == 8


def test_vdgv_full_pipeline():
    spec = vdgv()
    assert is_geometrically_connected(spec)
    assert betti_prediction(spec) == 2
    data = zeta_pipeline(spec)
    assert data.counts == [2, 8]
    assert data.power_sums == [0, -4]
    assert data.l_poly == IntPolynomial([2, 0, 1])
    assert data.certificate[0] == 2
    ok, _ = betti_closure_check(spec)
    assert ok


def test_f3_curve_pipeline():
    spec = f3_curve()
    assert betti_prediction(spec) == 2  # p - 1 characters of rank 1
    data = zeta_pipeline(spec)
    assert data.counts[0] == 3
    assert data.l_poly == IntPolynomial([3, 0, 1])
    assert data.certificate is not None
    ok, _ = betti_closure_check(spec)
    assert ok


# -- the curve counts against their sweeping oracles ----------------------------------

def _fibre_count(spec, n):
    """N_n by fibres: |ker f| points over each x whose rhs(x) lies in the
    image of f (a subgroup, listed once), none over the others."""
    big, emb = extension(spec.field, n, False)
    f, g1, g2, a = spec.f.lift(emb), spec.g1.lift(emb), spec.g2.lift(emb), emb(spec.a)
    image = {f.evaluate(y).coeffs for y in big.elements()}
    hits = sum((g1.evaluate(x) * g2.evaluate(x) + a * x).coeffs in image for x in big.elements())
    return big.q // len(image) * hits


def counts_vs_character_sums(spec, n, override=False):
    """The two-way count identity N_n = sum over characters of S_n(c * rhs),
    c over ker f_dual(F_{q^n}).  Returns (the fibre count, count_points)."""
    check_cap(spec.field.q**n, override, "count assembly")
    return _fibre_count(spec, n), count_points(spec, n, override=override)


def test_counts_vs_character_sums():
    for spec in (vdgv(), f3_curve()):
        for n in (1, 2, 3):
            direct, assembled = counts_vs_character_sums(spec, n)
            assert direct == assembled


def _seeded_curve_cases():
    """(spec, n) for seeded random curves over F_2, F_3, F_4 and F_5 at every
    n <= b + 2 with q^n <= 2^10."""
    cases = []
    for field in (F2, F3, F4, F5):
        for seed in range(4):
            spec = random_curve_spec(field, seed)
            b = betti_prediction(spec)
            cases += [pytest.param(spec, n, id=f"q{field.q}-seed{seed}-n{n}")
                      for n in range(1, b + 3) if field.q**n <= 2**10]
    return cases


@pytest.mark.parametrize("spec, n", _seeded_curve_cases())
def test_count_points_matches_fibre_count(spec, n):
    # character sums from Gram data against |ker f| times the x with rhs(x) in im f
    assert count_points(spec, n) == _fibre_count(spec, n)


def test_count_points_does_not_sweep_the_field(monkeypatch):
    # y^2 + y = x^2 at n = 16: Gram data on 16 basis vectors per character
    # and one linear kernel, never a listing of F_{2^16}
    import gausslab.fields as fields

    spec = CurveSpec(F2, AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),
                     AdditivePolynomial(F2, {0: F2.one()}),
                     AdditivePolynomial(F2, {0: F2.one()}), F2.zero())
    extension(F2, 16, False)
    monkeypatch.setattr(fields.FiniteField, "elements", lambda self: pytest.fail("swept"))
    assert count_points(spec, 16) == 2**16


def _y2_y_power(h):
    """y^2 + y = x^(2^h + 1) over F_2: g1 = X^(2^h), g2 = X."""
    return CurveSpec(F2, AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),
                     AdditivePolynomial(F2, {h: F2.one()}),
                     AdditivePolynomial(F2, {0: F2.one()}), F2.zero())


@pytest.mark.parametrize("h", range(3, 10))
def test_y2_y_power_counts_at_degree_2h(h):
    # the supersingular curve y^2 + y = x^(2^h + 1) has N_(2h) = 2^(2h+1)
    # points: a 2h x 2h Gram matrix, F_(2^(2h)) never listed
    assert count_points(_y2_y_power(h), 2 * h) == 2 ** (2 * h + 1)


def test_supersingular_curves_above_the_old_point_caps(monkeypatch):
    # under the default cap, the caps count Gram entries, not points of
    # F_{2^n}: h = 12 at n = 24 has N = 2^25, so s_24 = 2^12 * (-2^12), the
    # b = 2^h eigenvalues with alpha^(2h) = -2^h; zeta at h = 5 counts
    # n = 1..32 and certifies b = 32
    monkeypatch.delenv("GAUSSLAB_CAP", raising=False)
    assert count_points(_y2_y_power(12), 24) == 2**25
    data = zeta_pipeline(_y2_y_power(5))
    assert data.betti == 32 and data.certificate is not None


def test_count_points_builds_gram_data_per_nontrivial_character(monkeypatch):
    # the trivial character adds q^n to h_0 by itself: |ker f_dual| - 1
    # histograms, for kernels of size 2, 3 and 4
    import gausslab.charsum as charsum

    calls = []
    histogram = charsum._histogram
    monkeypatch.setattr(charsum, "_histogram",
                        lambda a, gram, p: calls.append(len(a)) or histogram(a, gram, p))
    y4_y_x3 = CurveSpec(F2, AdditivePolynomial(F2, {2: F2.one(), 0: F2.one()}),
                        AdditivePolynomial(F2, {0: F2.one()}),
                        AdditivePolynomial(F2, {1: F2.one()}), F2.zero())
    cases = [(vdgv(), 3), (f3_curve(), 2), (y4_y_x3, 2)]
    for spec, n in cases:
        calls.clear()
        kernel = additive_kernel(spec.f.adjoint(), n)
        assert count_points(spec, n) == _fibre_count(spec, n), spec
        assert calls == [spec.field.m * n] * (len(kernel) - 1), spec
    assert sorted(len(additive_kernel(spec.f.adjoint(), n)) for spec, n in cases) == [2, 3, 4]


def test_zeta_job_counts_each_degree_once(monkeypatch):
    # a zeta job counts N_1..N_b for the L-polynomial and N_(b+1), N_(b+2) for
    # the closure check: b + 2 counts, each degree once
    import gausslab.varieties as varieties
    from gausslab.cli import dispatch
    from gausslab.corpus import corpus

    calls = []
    count = varieties.count_points
    monkeypatch.setattr(varieties, "count_points",
                        lambda spec, n, override=False: calls.append(n) or count(spec, n, override))
    report = dispatch("zeta", corpus()["curve-rand-f4"]["input"], {"workers": 1})
    assert report["ok"]
    assert calls == list(range(1, report["result"]["betti"] + 3))


def test_disconnected_curve_detected():
    # y^2 + y = x^2 + x splits into two lines
    spec = CurveSpec(
        F2,
        AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),
        AdditivePolynomial(F2, {0: F2.one()}),
        AdditivePolynomial(F2, {0: F2.one()}),
        F2.one(),
    )
    # rhs = x*x + x = x^2 + x; AS-reduces to 0 for c = 1
    assert not is_geometrically_connected(spec)


def test_random_curve_specs_certify():
    for field, seed in ((F2, 1), (F2, 3), (F4, 2), (F4, 4)):
        spec = random_curve_spec(field, seed, max_b=4)
        data = zeta_pipeline(spec)
        assert data.certificate is not None, (field.tag, seed)
        ok, _ = betti_closure_check(spec)
        assert ok


def test_dual_kernel_matches_brute_force():
    # ker f_dual by the nullspace routine against a sweep of each F_{q^n}:
    # the same roots in the same order, at the least n reaching p^span
    for field, seed in ((F2, 1), (F2, 5), (F3, 2), (F4, 3), (F4, 6)):
        spec = random_curve_spec(field, seed)
        big, emb, roots = _dual_kernel(spec)
        fd = spec.f.adjoint()
        n = big.m // field.m
        sweeps = []
        for k in range(1, n + 1):
            k_big, k_emb = extension(field, k, False)
            lifted = fd.lift(k_emb)
            sweeps.append([c for c in k_big.elements() if not lifted.evaluate(c)])
        expected = field.p ** fd.span()
        assert roots == sweeps[-1] and len(roots) == expected, (field.tag, seed)
        assert all(len(sweep) < expected for sweep in sweeps[:-1]), (field.tag, seed)


# -- the character data against the Gram fill and the Swan-conductor oracles ----------

def _rhs_poly(spec, emb):
    """g1(x)g2(x) + a x as {exponent: coefficient} over emb.big, as the
    removed `CurveSpec.rhs_poly` gave it before the embedding."""
    out = {}
    for i, b in spec.g1.coeffs.items():
        for j, c in spec.g2.coeffs.items():
            e = spec.field.p**i + spec.field.p**j
            out[e] = out.get(e, emb.big.zero()) + emb(b * c)
    if spec.a:
        out[1] = out.get(1, emb.big.zero()) + emb(spec.a)
    return out


def _character_polys(spec):
    """c (g1 g2 + a x) for each nonzero c in ker f_dual, over its splitting field."""
    _, emb, roots = _dual_kernel(spec)
    rhs = _rhs_poly(spec, emb)
    return [{e: c * v for e, v in rhs.items()} for c in roots if c]


def _swan_connected(spec):
    """The connectedness that `varieties` read from Artin-Schreier reduction
    before a curve's characters became data, kept as the oracle."""
    return all(as_reduce(poly) for poly in _character_polys(spec))


def _swan_betti(spec):
    """The Betti number by the Swan-conductor rank formula, likewise."""
    return sum(gos_rank(poly) for poly in _character_polys(spec))


def _gram_fill_count(spec, n):
    """N_n by the Gram fill that `count_points` kept before it summed the
    character sums of the data, kept as the oracle: on the power basis, rhs
    and the products g1 g2 + g1 g2 are shared by every c != 0, whose Gram
    data are traces of c times them; c = 0 adds q^n to h_0, and N_n = h_0 -
    h_1 with h_1 = ... = h_(p-1)."""
    from gausslab.charsum import _histogram

    cs = additive_kernel(spec.f.adjoint(), n)
    big, emb = extension(spec.field, n, False)
    p, g1, g2, a = big.p, spec.g1.lift(emb), spec.g2.lift(emb), emb(spec.a)
    basis = big._power_basis
    g12 = [(g1.evaluate(x), g2.evaluate(x)) for x in basis]
    values = [u1 * u2 + a * x for x, (u1, u2) in zip(basis, g12)]
    pairs = [[u1 * v2 + v1 * u2 for v1, v2 in g12] for u1, u2 in g12]
    hist = Counter({0: big.q})
    for c in filter(None, cs):
        hist.update(_histogram([p * absolute_trace_int(c * v) for v in values],
                               [[absolute_trace_int(c * w) for w in row] for row in pairs], p))
    h = [hist[p * k] for k in range(p)]
    assert len(set(h[1:])) == 1, h
    return h[0] - h[1]


def _raw_curve_specs():
    """384 seeded CurveSpecs over F_2, F_4, F_8, F_3, F_9 and F_5, not filtered
    by `random_curve_spec`: f with a Y^(p^2) term half the time (up to p^2 - 1
    characters), g1 and g2 with one or two terms, and g1 = g2 = X^(p^i) a
    quarter of the time, where some a makes a character trivial."""
    for field in (F2, F4, F8, F3, F9, F5):
        rng = random.Random(f"raw-curve-{field.q}")
        els = list(field.elements())
        for _ in range(64):
            f = {0: rng.choice(els[1:]), 1: rng.choice(els)}
            if rng.random() < 0.5:
                f[2] = rng.choice(els[1:])
            if rng.random() < 0.25:
                i = rng.randint(0, 1)
                g1 = g2 = {i: rng.choice(els[1:])}
            else:
                g1, g2 = ({i: rng.choice(els[1:]) for i in rng.sample(range(3), rng.randint(1, 2))}
                          for _ in range(2))
            yield CurveSpec(field, AdditivePolynomial(field, f), AdditivePolynomial(field, g1),
                            AdditivePolynomial(field, g2), rng.choice(els))


def test_character_data_match_the_gram_fill_and_swan_oracles():
    # connectedness, Betti number and the counts up to q^n <= 2^9 from the
    # data, against Artin-Schreier reduction and the shared Gram fill
    disconnected = several = 0
    for spec in _raw_curve_specs():
        connected = _swan_connected(spec)
        assert is_geometrically_connected(spec) == connected, spec
        if connected:
            assert betti_prediction(spec) == _swan_betti(spec), spec
        else:
            disconnected += 1
            with pytest.raises(ValueError):
                betti_prediction(spec)
        several += len(_character_polys(spec)) > spec.field.p - 1
        for n in range(1, 10):
            if spec.field.q**n > 2**9:
                break
            assert count_points(spec, n) == _gram_fill_count(spec, n), (spec, n)
    assert disconnected >= 5 and several >= 100, (disconnected, several)


def test_random_curve_determinism():
    a = random_curve_spec(F2, 7)
    b = random_curve_spec(F2, 7)
    assert a.to_json() == b.to_json()


# SHA-256 of the JSON specs of seeds 0..300 at the default max_b; the
# benchmark's curve slots and the corpus fixtures depend on these seeds
PINNED_SPECS = [
    pytest.param(F2, "087089e8b887be6d8702c88f8b8c172d0ac6730a20a3875183dda911f9f030b2", id="F2"),
    pytest.param(F3, "b96c69b847eb11ae172fdda27b30bbf51fb70399e6871466d016de4caefb059c", id="F3"),
    pytest.param(F4, "3a52823ca3b4f862751754f6adfac7b2bc7790d6264403e280fcdae79190fe04", id="F4"),
]


@pytest.mark.parametrize("field,digest", PINNED_SPECS)
def test_random_curve_specs_pinned(field, digest):
    specs = (json.dumps(random_curve_spec(field, s).to_json(), sort_keys=True) for s in range(301))
    assert hashlib.sha256("\n".join(specs).encode()).hexdigest() == digest


def test_random_curve_spec_propagates_unexpected_errors(monkeypatch):
    import gausslab.varieties as varieties
    from gausslab.errors import ScaleCapExceeded

    for exc in (RuntimeError, ScaleCapExceeded):
        def fail(spec, override=False, exc=exc):
            raise exc("not a rejected draw")

        monkeypatch.setattr(varieties, "is_geometrically_connected", fail)
        with pytest.raises(exc):
            random_curve_spec(F2, 7)


def test_w2_endomorphism_examples():
    # f = X: h = identity
    e_id = w2_endomorphism(F2, {0: F2.one()})
    assert verify_additive(e_id, 1)
    # f = X^2: h = Witt Frobenius
    e_frob = w2_endomorphism(F4, {1: F4.one()})
    assert verify_additive(e_frob, 1)
    from gausslab.fields import WittVector2

    for a in F4.elements():
        for b in F4.elements():
            w = WittVector2(F4, a, b)
            assert e_frob(w) == WittVector2(F4, a * a, b * b)


def test_w2_endomorphism_general_and_negative_control():
    w = F4.gen()
    r_poly = AdditivePolynomial(F4, {0: F4.one()})
    endo = w2_endomorphism(F4, {0: w, 1: F4.one()}, r_poly)
    assert verify_additive(endo, 1)
    bad = mutated_endomorphism(endo, delta_exp=0)
    assert not verify_additive(bad, 1)
    bad2 = mutated_endomorphism(endo, delta_exp=1)
    assert not verify_additive(bad2, 1)
    # a zero f_i and unsorted keys give the same h: (s, t) + (0, 0) = (s, t) in W2
    padded = w2_endomorphism(F4, {2: F4.zero(), 1: F4.one(), 0: w}, r_poly)
    assert all(padded(v) == endo(v)
               for v in (WittVector2(F4, a, b) for a in F4.elements() for b in F4.elements()))
    for n in (1, 2):
        assert verify_additive(padded, n) == verify_additive(endo, n)
        for delta in (0, 1):
            assert (verify_additive(mutated_endomorphism(padded, delta), n)
                    == verify_additive(mutated_endomorphism(endo, delta), n))


def _swept_additive(endo, n):
    """h(u + v) = h(u) + h(v) on all q^(4n) pairs of W2(F_{q^n}): the sweep
    that the reduction to Teichmueller pairs replaced, kept as the oracle."""
    big, emb = extension(endo.field, n, False)
    lifted = endo.lift(emb)
    vectors = [WittVector2(big, a, b) for a in big.elements() for b in big.elements()]
    return all(lifted(u + v) == lifted(u) + lifted(v) for u in vectors for v in vectors)


def _endomorphism_cases():
    """Classified endomorphisms and their g2 mutations over F_2, F_3 and F_4
    at n = 1, and over F_2 at n = 2."""
    cases = []
    for field, n in ((F2, 1), (F3, 1), (F4, 1), (F2, 2)):
        unit = field.gen() if field.m > 1 else -field.one()
        endos = {
            "x": w2_endomorphism(field, {0: unit}),
            "frob": w2_endomorphism(field, {1: field.one()}),
            "two-term-r": w2_endomorphism(field, {0: unit, 1: field.one()},
                                          AdditivePolynomial(field, {0: field.one()})),
        }
        for name, endo in list(endos.items()):
            for delta in (0, 1):
                endos[f"{name}-mutated{delta}"] = mutated_endomorphism(endo, delta)
        cases += [pytest.param(endo, n, id=f"q{field.q}-n{n}-{name}")
                  for name, endo in endos.items()]
    return cases


@pytest.mark.parametrize("endo, n", _endomorphism_cases())
def test_verify_additive_matches_the_full_sweep(endo, n):
    assert verify_additive(endo, n) == _swept_additive(endo, n)


def _teichmueller_additive(endo, n=1, override=False):
    """h([x] + [y]) = h([x]) + h([y]) on all q^(2n) pairs of Teichmueller
    vectors: the sweep that the grid of the degree of D replaced, kept as the
    oracle."""
    check_cap(endo.field.q ** (2 * n), override, "W2 additivity sweep")
    big, emb = extension(endo.field, n, override)
    lifted = endo.lift(emb)
    teich = [WittVector2(big, x, big.zero()) for x in big.elements()]
    images = [lifted(u) for u in teich]
    return all(lifted(u + v) == hu + hv
               for u, hu in zip(teich, images) for v, hv in zip(teich, images))


def _grid_size(endo, n):
    """|S| = min(Q, delta + 1) of `verify_additive`, from the exponents."""
    p, e = endo.field.p, endo.field.m * n
    degree = [max((p ** (i % e) for i in poly.coeffs), default=0)
              for poly in (endo.f, endo.r_poly, endo.g2)]
    return min(p**e, max(p * degree[0], degree[1], (p - 1) * degree[2]) + 1)


def _seeded_endomorphism_cases():
    """(endo, n) over F_2, F_3, F_4, F_5 and F_9 with q^(2n) <= 2^12: seeded
    f with exponents from -1 to e + 1 (e = m n), some with an R, each with a
    g2 mutated at an exponent from -2 to 3 and a g2 drawn at random."""
    import random

    cases = []
    for field, n in ((F2, 2), (F2, 3), (F2, 4), (F3, 1), (F3, 2), (F4, 1), (F4, 2),
                     (F5, 1), (F9, 1)):
        rng = random.Random(100 * field.q + n)
        units = list(field.elements())[1:]
        e = field.m * n
        for seed in range(4):
            f = {rng.randint(-1, e + 1): rng.choice(units) for _ in range(rng.randint(1, 2))}
            r = AdditivePolynomial(field, {rng.randint(0, e): rng.choice(units)}
                                   if seed % 2 else {})
            endo = w2_endomorphism(field, f, r)
            g2 = AdditivePolynomial(field, {rng.randint(-1, e): rng.choice(units)})
            mutated = mutated_endomorphism(endo, rng.randint(-2, 3))
            for name, case in (("", endo), ("-mutated", mutated),
                               ("-g2", W2Endomorphism(endo.f, r, g2))):
                cases.append(pytest.param(case, n, id=f"q{field.q}-n{n}-seed{seed}{name}"))
    return cases


@pytest.mark.parametrize("endo, n", _seeded_endomorphism_cases())
def test_verify_additive_matches_the_teichmueller_sweep(endo, n):
    assert verify_additive(endo, n) == _teichmueller_additive(endo, n)


def test_seeded_endomorphisms_cover_small_grids_and_both_answers():
    # the cases above include grids S x S smaller than F_Q^2, at p = 2 and
    # p = 3, additive and not
    cases = [param.values for param in _seeded_endomorphism_cases()]
    small = [(endo, n) for endo, n in cases if _grid_size(endo, n) < endo.field.q**n]
    assert len(small) >= len(cases) // 4
    assert ({(endo.field.p, verify_additive(endo, n)) for endo, n in small}
            == {(2, True), (2, False), (3, True), (3, False)})


def test_verify_additive_evaluates_the_grid(monkeypatch):
    # the endw2-f4 endomorphism (f = wX + X^2, R = X over F_4) at n = 8:
    # delta = max(2 * 2, 1, 1 * 2) = 4, so h is evaluated at the |S| = 5
    # first Teichmueller vectors [x] and at the |S|^2 = 25 sums [x] + [y],
    # not at the 2^32 pairs of F_(2^16)
    import gausslab.varieties as varieties

    seen = []
    call = varieties.W2Endomorphism.__call__
    monkeypatch.setattr(varieties.W2Endomorphism, "__call__",
                        lambda self, w: seen.append(w) or call(self, w))
    endo = w2_endomorphism(F4, {0: F4.gen(), 1: F4.one()}, AdditivePolynomial(F4, {0: F4.one()}))
    assert _grid_size(endo, 8) == 5
    assert verify_additive(endo, 8)
    big, _ = extension(F4, 8, False)
    assert [w.x0 for w in seen[:5]] == list(islice(big.elements(), 5))
    assert len(seen) == 5 + 25
    seen.clear()
    assert not verify_additive(mutated_endomorphism(endo, 0), 8)
    assert 5 < len(seen) <= 5 + 25


def test_w2_endomorphisms_compose_additively():
    w = F4.gen()
    e1 = w2_endomorphism(F4, {0: w})
    e2 = w2_endomorphism(F4, {1: F4.one()})
    from gausslab.fields import WittVector2

    vecs = [WittVector2(F4, a, b) for a in F4.elements() for b in F4.elements()]
    for u in vecs:
        for v in vecs:
            assert e1(e2(u + v)) == e1(e2(u)) + e1(e2(v))


def test_surface_rejects_degenerate_f():
    with pytest.raises(ValueError):
        SurfaceSpec(F2, {0: F2.zero()})


def test_surface_counts_flag_free_w():
    spec = SurfaceSpec(F2, {0: F2.one()})
    count, flags = surface_counts(spec, 1)
    assert flags["w_is_free"] and flags["free_factor"] == 2
    assert count % 2 == 0


# the q^(2n) sweep of W2(F_{q^n}), the oracle of the summand sums
def corrected_surface_count(spec, n, override=False):
    """Count of the corrected fiber product {L(z,w) = a * h(a)} over F_{q^n}.

    Equals the sum over all p^2 character summands, which is verified by the
    caller; the kernel criterion is witt_trace(target) = 0.
    """
    check_cap(spec.field.q ** (2 * n), override, "corrected surface count")
    big, emb = extension(spec.field, n, override)
    endo = spec.endo.lift(emb)
    p2 = big.p * big.p
    count = 0
    for x in big.elements():
        for y in big.elements():
            a = WittVector2(big, x, y)
            if witt_trace(a * endo(a)) % p2 == 0:
                count += p2
    return count


def test_surface_summands_p2():
    spec = SurfaceSpec(F2, {0: F2.one()})
    summands = surface_summand_certificates(spec, 3)
    assert all(s.ok for s in summands)
    kinds = {s.psi_exponent: s.kind for s in summands}
    assert kinds[0] == "trivial"
    assert kinds[2] == "vanishing"  # the order-2 character collapses
    weights = {s.psi_exponent: s.weight for s in summands}
    assert weights[1] == weights[3] == 3  # descent adds a Tate twist
    # two-way count identity on the corrected model
    for n in (1, 2):
        total = sum((s.sums[n - 1] for s in summands), zeta_sum(1, {0: 0}))
        assert total == corrected_surface_count(spec, n)


def test_surface_summands_p3():
    spec = SurfaceSpec(F3, {0: F3.one()})
    summands = surface_summand_certificates(spec, 3)
    assert all(s.ok for s in summands)
    for n in (1, 2):
        total = sum((s.sums[n - 1] for s in summands), zeta_sum(1, {0: 0}))
        assert total == corrected_surface_count(spec, n)


def test_surface_nonscalar_frobenius_is_reported_not_hidden():
    # richer surfaces can fail the scalar chain (eigenvalue orbits of size 2);
    # the report must carry the failure rather than normalize it away
    spec = SurfaceSpec(F2, {0: F2.one(), 1: F2.one()})
    summands = surface_summand_certificates(spec, 3)
    trivial = [s for s in summands if s.psi_exponent == 0]
    assert trivial[0].ok
    assert any(not s.ok for s in summands)


def test_surface_count_sanity_envelope():
    # |N_1 - q^2| is bounded through Cauchy-Schwarz by the nontrivial summand
    # norms: (N_1 - q^2)^2 <= (p^2 - 1) * sum |S_1(psi)|^2, all exact
    for field in (F2, F3):
        spec = SurfaceSpec(field, {0: field.one()})
        summands = surface_summand_certificates(spec, 1)
        q = field.q
        n1 = corrected_surface_count(spec, 1)
        deviation = (n1 - q * q) ** 2
        bound = 0
        from gausslab.exactalg import abs_square

        for s in summands:
            if s.psi_exponent:
                bound += abs_square(s.sums[0]).as_rational()
        assert deviation <= (field.p**2 - 1) * bound


# -- the surface sums and counts against their sweeping oracles ----------------------

def _enumerated_surface_sums(spec, n):
    """[S_n(psi_j) for j < p^2], S_n(psi_j) = sum of psi_j(witt_trace(a * h(a)))
    over every a in W2(F_{q^n}): the q^(2n) sweep that the Teichmueller--
    Verschiebung split replaced, kept as the oracle."""
    big, emb = extension(spec.field, n, False)
    endo = spec.endo.lift(emb)
    p2 = big.p * big.p
    hist = {}
    for x in big.elements():
        for y in big.elements():
            a = WittVector2(big, x, y)
            t = witt_trace(a * endo(a))
            hist[t] = hist.get(t, 0) + 1
    sums = []
    for j in range(p2):
        folded = {}
        for t, c in hist.items():
            folded[j * t % p2] = folded.get(j * t % p2, 0) + c
        sums.append(zeta_sum(p2, folded))
    return sums


def _scanned_surface_count(spec, n):
    """surface_counts by scanning every y for each x: the sweep that the row
    reduction of the y-equation replaced, kept as the oracle."""
    big, emb = extension(spec.field, n, False)
    endo = spec.endo.lift(emb)
    count = 0
    for z in big.elements():
        for x in big.elements():
            if x.frobenius() - x != z * endo.f.evaluate(z):
                continue
            xp, fxp = x.frobenius(), endo.f.evaluate(x).frobenius()
            if big.p == 2:
                cx = x * x + x * x * x + xp * endo.g1_value(x)
            else:
                cx = -gamma_value(xp, -x) + xp * endo.g1_value(x)
            count += sum(y.frobenius() - y - xp * endo.g2.evaluate(y) - fxp * y == cx
                         for y in big.elements())
    return count * big.q


def _seeded_surface_cases():
    """(spec, n_max) over F_2, F_3, F_4, F_5 and F_9: per field a one-term f
    without R and a multi-term f with R, seeded coefficients, n_max = 3 (2 for
    q >= 5); and one F_4 spec whose g2 is mutated, so that h is not additive."""
    import random

    cases = []
    for field in (F2, F3, F4, F5, F9):
        rng = random.Random(field.q)
        units = list(field.elements())[1:]
        n_max = 3 if field.q < 5 else 2
        one_term = SurfaceSpec(field, {rng.randint(0, 1): rng.choice(units)})
        multi = SurfaceSpec(
            field,
            {0: rng.choice(units), 1: rng.choice(units), 2: rng.choice(units)},
            AdditivePolynomial(field, {rng.randint(0, 1): rng.choice(units)}),
        )
        cases += [pytest.param(one_term, n_max, id=f"q{field.q}-one-term"),
                  pytest.param(multi, n_max, id=f"q{field.q}-multi-term-r")]
    mutated = SurfaceSpec(F4, {0: F4.gen(), 1: F4.one()}, AdditivePolynomial(F4, {0: F4.one()}))
    mutated.endo = mutated_endomorphism(mutated.endo, delta_exp=0)
    cases.append(pytest.param(mutated, 3, id="q4-mutated"))
    return cases


_SURFACE_CASES = _seeded_surface_cases()


@pytest.mark.parametrize("spec, n_max", _SURFACE_CASES)
def test_surface_sums_match_enumeration(spec, n_max):
    summands = surface_summand_certificates(spec, n_max)
    assert [s.psi_exponent for s in summands] == list(range(spec.field.p ** 2))
    for n in range(1, n_max + 1):
        assert [s.sums[n - 1] for s in summands] == _enumerated_surface_sums(spec, n), n


def _nested_summand_shape(j, sums, p, q):
    """(kind, r, weight, ok) of one summand by the nested classifier that the
    flat chain check `_chain_shape` replaced, kept as the reference."""
    n_max = len(sums)
    if j == 0:
        return "trivial", 0, 4, all(s == q ** (2 * n) for n, s in zip(range(1, n_max + 1), sums))
    if all(s.is_zero() for s in sums):
        return "vanishing", None, None, True
    ok = False
    r = weight = None
    if not sums[0].is_zero() and len(sums) >= 2 and not sums[1].is_zero():
        tau = sums[1] / sums[0]
        lead = sums[0] / tau
        if lead.is_rational() and lead.den == 1 and lead.nums[0]:
            ival = abs(lead.nums[0])
            rr = 0
            while ival % p == 0:
                ival //= p
                rr += 1
            if ival == 1:
                chain = all(sums[n - 1] == lead * tau**n for n in range(1, n_max + 1))
                a2 = abs_square(tau)
                if chain and a2.is_rational() and a2.den == 1:
                    ai = a2.nums[0]
                    i_deg = 0
                    while ai % q == 0:
                        ai //= q
                        i_deg += 1
                    if ai == 1:
                        ratio = tau * tau / q**i_deg
                        if is_root_of_unity(ratio) is not None:
                            ok = True
                            r = rr
                            weight = i_deg
    return "chain", r, weight, ok


@pytest.mark.parametrize("spec, n_max", _SURFACE_CASES)
def test_surface_summands_match_the_nested_classifier(spec, n_max):
    p, q = spec.field.p, spec.field.q
    summands = surface_summand_certificates(spec, n_max)
    assert ([(s.kind, s.r, s.weight, s.ok) for s in summands]
            == [_nested_summand_shape(s.psi_exponent, s.sums, p, q) for s in summands])


def _exact_log(z, base):
    """k with z = +-base^k for a cyclotomic z that is a rational integer,
    else None."""
    if not (z.is_rational() and z.den == 1 and z.nums[0]):
        return None
    value, k = abs(z.nums[0]), 0
    while value % base == 0:
        value //= base
        k += 1
    return k if value == 1 else None


def _chain_shape(sums, p, q):
    """(r, i) when S_1, S_2, ... form a chain S_n = +-p^r tau^n with
    |tau|^2 = q^i and tau^2 / q^i a root of unity, else None.  tau = S_2/S_1,
    so S_1 and S_2 must be nonzero.  The flat chain check that
    `surface_summand_certificates` ran before it called `weil_chain`, kept
    as the oracle."""
    if len(sums) < 2 or sums[0].is_zero() or sums[1].is_zero():
        return None
    tau = sums[1] / sums[0]
    lead = sums[0] / tau
    r = _exact_log(lead, p)
    if r is None or any(s != lead * tau**n for n, s in enumerate(sums, 1)):
        return None
    i = _exact_log(abs_square(tau), q)
    if i is None or is_root_of_unity(tau * tau / q**i) is None:
        return None
    return r, i


_CORPUS_SURFACES = [
    pytest.param(SurfaceSpec.from_json(job["input"]["surface"]), job["input"]["n_max"], id=name)
    for name, job in corpus().items() if "surface" in job["input"]]


@pytest.mark.parametrize("spec, n_max", _CORPUS_SURFACES + _SURFACE_CASES)
def test_weil_chain_matches_the_flat_chain_check(spec, n_max):
    # on every summand that is neither trivial nor vanishing: lambda = S_2/S_1,
    # lead = S_1/lambda, r and the weight as exact logs, the residuals, the
    # |lambda|^2 decision and the ratio order, and (r, weight) when it holds
    p, q = spec.field.p, spec.field.q
    chains = [s.sums for s in surface_summand_certificates(spec, n_max) if s.kind == "chain"]
    for sums in chains:
        chain = weil_chain(sums, p, q)
        holds = (chain is not None and all(chain.residuals) and chain.abs_ok
                 and None not in (chain.r, chain.ratio_order))
        assert ((chain.r, chain.weight) if holds else None) == _chain_shape(sums, p, q)
        if chain is None:
            assert len(sums) < 2 or sums[0].is_zero() or sums[1].is_zero()
            continue
        tau = sums[1] / sums[0]
        lead = sums[0] / tau
        i = _exact_log(abs_square(tau), q)
        assert (chain.lam, chain.lead, chain.r, chain.weight) == (tau, lead, _exact_log(lead, p), i)
        assert chain.residuals == [s == lead * tau**n for n, s in enumerate(sums, 1)]
        assert chain.abs_ok == (i is not None)
        assert chain.ratio_order == (None if i is None else is_root_of_unity(tau * tau / q**i))


@pytest.mark.parametrize("spec, n_max", _SURFACE_CASES)
def test_surface_counts_match_y_scan(spec, n_max):
    for n in range(1, 3):
        count, flags = surface_counts(spec, n)
        assert count == _scanned_surface_count(spec, n), n
        assert flags == {"w_is_free": True, "free_factor": spec.field.q**n}


def test_mutated_endomorphism_is_not_additive_on_its_surface():
    # the mutated oracle case really exercises a non-additive h
    spec, _ = _SURFACE_CASES[-1].values
    assert not verify_additive(spec.endo, 1)


def test_surface_sums_evaluate_each_teichmueller_point_once(monkeypatch):
    # per degree n: one Witt trace per x0 in F_{q^n} and one linear kernel,
    # never a sweep over all q^(2n) Witt vectors
    import gausslab.varieties as varieties

    traces, kernels = [], []
    trace, kernel = varieties.witt_trace, varieties._linear_kernel
    monkeypatch.setattr(varieties, "witt_trace", lambda w: traces.append(w) or trace(w))
    monkeypatch.setattr(varieties, "_linear_kernel",
                        lambda field, image: kernels.append(field) or kernel(field, image))
    surface_summand_certificates(SurfaceSpec(F3, {0: F3.one()}), 3)
    assert len(traces) == 3 + 9 + 27
    assert [field.q for field in kernels] == [3, 9, 27]


@pytest.mark.parametrize("n_max", [0, -1])
def test_surface_summands_degree_below_one_rejected(n_max):
    with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
        surface_summand_certificates(SurfaceSpec(F2, {0: F2.one()}), n_max)


def test_surface_caps_count_the_field_swept(monkeypatch):
    # the summands and the displayed count sweep F_{q^n}, so they cap q^n;
    # the q^(2n) sweep of corrected_surface_count keeps q^(2n), and
    # verify_additive caps its grid: |S|^2 = 9 for f = X (delta = 2), and
    # |S|^2 = Q^2 = 16 for f = X^2 (delta = 4) at n = 2
    spec = SurfaceSpec(F2, {0: F2.one()})
    monkeypatch.setenv("GAUSSLAB_CAP", "8")
    at_cap = surface_summand_certificates(spec, 3)
    assert len(at_cap) == 4
    assert surface_counts(spec, 3)[0] == _scanned_surface_count(spec, 3)
    monkeypatch.setenv("GAUSSLAB_CAP", "7")
    with pytest.raises(ScaleCapExceeded, match="surface summands over 8 points exceeds cap 7"):
        surface_summand_certificates(spec, 3)
    with pytest.raises(ScaleCapExceeded, match="surface count over 8 points exceeds cap 7"):
        surface_counts(spec, 3)
    assert surface_summand_certificates(spec, 3, override=True) == at_cap
    monkeypatch.setenv("GAUSSLAB_CAP", "15")
    with pytest.raises(ScaleCapExceeded, match="corrected surface count over 16 points exceeds cap 15"):
        corrected_surface_count(spec, 2)
    assert verify_additive(spec.endo, 2)
    with pytest.raises(ScaleCapExceeded, match="W2 additivity sweep over 16 points exceeds cap 15"):
        verify_additive(w2_endomorphism(F2, {1: F2.one()}), 2)


def _y2_y_x2():
    # y^2 + y = x^2 over F_2
    return CurveSpec(F2, AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),
                     AdditivePolynomial(F2, {0: F2.one()}),
                     AdditivePolynomial(F2, {0: F2.one()}), F2.zero())


@pytest.mark.parametrize("call, what, degree, points", [
    (lambda: count_points(_y2_y_x2(), 5), "Gram matrix", 5, 25),  # (m n)^2 entries
    (lambda: clb_cocycle_identity_check(1, [1], F2, 5), "basis pairs", 5, 25),
    (lambda: surface_counts(SurfaceSpec(F2, {0: F2.one()}), 5), "surface count", 5, 32),
    (lambda: surface_summand_certificates(SurfaceSpec(F2, {0: F2.one()}), 5),
     "surface summands", 5, 32),
    (lambda: extension(make_field(2, 5), 2, False), "embedding search", 10, 32),
    (lambda: verify_additive(w2_endomorphism(F2, {2: F2.one()}), 3),  # delta = 8, |S| = 8
     "W2 additivity sweep", 3, 64),
    (lambda: additive_kernel(AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}), 5),
     "additive kernel roots", 5, 2),  # p^span roots
], ids=["count_points", "clb_cocycle_identity_check", "surface_counts",
        "surface_summand_certificates", "extension", "verify_additive", "additive_kernel"])
def test_caps_refuse_before_building_the_field(call, what, degree, points, monkeypatch):
    # each cap of the library counts what its call would build and refuses
    # before make_field builds the field of that degree over F_p that it
    # refuses (the summands build lower degrees first); the extension cache is
    # emptied first, since a cached extension is not built, nor checked, again
    import gausslab.fields as fields

    built = []
    monkeypatch.setattr(fields, "make_field",
                        lambda p, m, modulus=None: built.append(m) or make_field(p, m, modulus))
    fields.extension.cache_clear()
    monkeypatch.setenv("GAUSSLAB_CAP", str(points - 1))
    with pytest.raises(ScaleCapExceeded, match=f"{what} over {points} points exceeds cap"):
        call()
    assert all(m < degree for m in built), built


def test_surface_serialization():
    spec = SurfaceSpec(F4, {0: F4.gen()}, AdditivePolynomial(F4, {0: F4.one()}))
    again = SurfaceSpec.from_json(spec.to_json())
    assert surface_counts(again, 1) == surface_counts(spec, 1)
    # f is written canonically: sorted exponents, no zero coefficient
    padded = SurfaceSpec(F4, {1: F4.zero(), 0: F4.gen()}, AdditivePolynomial(F4, {0: F4.one()}))
    assert padded.to_json() == spec.to_json()


def test_zeta_data_serialization():
    data = zeta_pipeline(vdgv())
    js = data.to_json()
    assert js["l_poly"] == [2, 0, 1]
    assert js["certificate"]["m"] == 2
    assert js["counts"] == ["2", "8"]
