"""Supersingular curves and surfaces: point counting, L-polynomials,
Weil-number certificates, Betti predictions and W2 endomorphisms.

Curves are f(y) = g1(x)g2(x) + a*x with f, g1, g2 additive and f separable
(the Van der Geer--Van der Vlugt family for f = Y^q - Y, g1 = X, a = 0).
A curve is a family of quadratic data: one d = 1 `QuadDatum` for each
nonzero c in ker f_dual (`CurveSpec.character_data`).  Its point counts are
sums of their character sums, and its Betti number and connectedness are
read from their pairings, through `charsum` alone.
Surfaces are counted exactly as displayed in their defining equations, with
the free variable w contributing a factor q^n that is flagged in the output.
Their W2 character sums split each Witt vector as a = [x0] + V(x1), and
    Tr_W(a h(a)) = Tr_W([x0] h([x0])) + p Tr(x0^p g2(x1) + f(x0)^p x1)
is F_p-linear in x1 whether or not h is additive, so each sum over W2(F_{q^n})
is q^n times a sum over x0 alone.  A W2 endomorphism is three additive
polynomials f, R and g2 over one field, and every summand that is neither
trivial nor vanishing is certified by one Weil chain, `exactalg.weil_chain`.
"""

from collections import Counter
from itertools import islice

from .charsum import ASLinear, CrossMonomial, PairingDatum, QuadDatum, char_sum, symbolic_pairing
from .errors import Record, TheoremViolated, check_cap
from .exactalg import (
    CyclotomicNumber,
    IntPolynomial,
    power_sums_from_char_poly,
    power_sums_to_char_poly,
    weil_certificate,
    weil_chain,
    zeta_sum,
)
from .fields import (
    AdditivePolynomial,
    WittVector2,
    _linear_kernel,
    _row_reduce_mod_p,
    absolute_trace_int,
    additive_kernel,
    check_extension,
    exponent_dict_from_json,
    extension,
    gamma_value,
    witt_trace,
    witt_zero,
)


class CurveSpec:
    """f(y) = g1(x) g2(x) + a x over F_q, smooth by construction."""

    def __init__(self, field, f, g1, g2, a):
        self.field = field
        self.f = f
        self.g1 = g1
        self.g2 = g2
        self.a = field.element(a)
        if f.is_zero() or 0 not in f.coeffs:
            raise ValueError("f must be separable: nonzero coefficient of Y")
        if g1.is_zero() or g2.is_zero():
            raise ValueError("g1 and g2 must be nonzero")
        self._dims = None  # `_character_dims`, computed once

    def __repr__(self):
        return (
            f"CurveSpec({self.field.tag}: f={sorted(self.f.coeffs)}, "
            f"g1={sorted(self.g1.coeffs)}, g2={sorted(self.g2.coeffs)}, a={self.a!r})"
        )

    def character_data(self, emb, roots):
        """The curve as a family of quadratic data: for each nonzero c among
        `roots`, elements of ker f_dual in the field E = emb.big, the d = 1
        datum x -> psi(Tr(c (g1(x) g2(x) + a x))) over E.  With g1 = sum b_i
        X^(p^i) and g2 = sum b'_j X^(p^j), c b_i b'_j x^(p^i) x^(p^j) has the
        trace of the cross term (c b_i b'_j)^(p^-min(i,j)) x^(p^|i-j|) x, and
        c a x is an AS-linear twist."""
        products = [(abs(i - j), min(i, j), emb(b1 * b2))
                    for i, b1 in self.g1.coeffs.items() for j, b2 in self.g2.coeffs.items()]
        a = emb(self.a)
        return [QuadDatum(emb.big, 1, [
            *(CrossMonomial(0, 0, k, (c * b).frobenius(-u)) for k, u, b in products),
            *([ASLinear(0, c * a)] if a else [])]) for c in roots if c]

    def to_json(self):
        return {
            "kind": "curve",
            "field": self.field.to_json(),
            "f": self.f.to_json(),
            "g1": self.g1.to_json(),
            "g2": self.g2.to_json(),
            "a": list(self.a.coeffs),
        }

    @staticmethod
    def from_json(obj):
        from .fields import FiniteField

        field = FiniteField.from_json(obj["field"])
        return CurveSpec(
            field,
            AdditivePolynomial.from_json(field, obj["f"]),
            AdditivePolynomial.from_json(field, obj["g1"]),
            AdditivePolynomial.from_json(field, obj["g2"]),
            field.element_from_json(obj["a"]),
        )


def count_points(spec, n, override=False):
    """Exact number of F_{q^n}-points of the affine curve, from character sums.

    im f is the annihilator of ker f_dual under the trace pairing and
    |ker f| = |ker f_dual|, so N_n = sum of S_n(c * rhs) over c in
    ker f_dual(F_{q^n}), rhs = g1 g2 + a x: c = 0 adds q^n, and every other c
    adds the closed-form `char_sum` of its datum (`CurveSpec.character_data`),
    from Gram data capped at (mn)^2 entries, no sweep of F_{q^n}.  The total
    is an integer exactly when it is rational.
    """
    check_cap((spec.field.m * n) ** 2, override, "Gram matrix")
    roots = additive_kernel(spec.f.adjoint(), n, override)
    _, emb = extension(spec.field, n, override)
    sums = [char_sum(datum, 1, override=override) for datum in spec.character_data(emb, roots)]
    total = sum(sums, CyclotomicNumber.from_rational(emb.big.q))
    if not total.is_rational() or total.den != 1:
        raise TheoremViolated(
            f"the character sums of a point count are not rational: {total.to_json()}")
    return total.nums[0]


def _dual_kernel(spec, override=False):
    """(E, emb, ker f_dual listed in E): the characters of the covering, over
    the splitting field E = F_{q^e}, e from `PairingDatum.kernel_degrees`."""
    fd = spec.f.adjoint()
    _, e = PairingDatum(spec.field, 1, {(0, 0): fd}).kernel_degrees(override)
    roots = additive_kernel(fd, e, override)
    return (*extension(spec.field, e, override), roots)


def _character_dims(spec, override=False):
    """dim H^1_c of each nonzero character's sheaf over the splitting field E
    of ker f_dual, None for a trivial one.  A nonzero pairing f_00 has |K| =
    p^span (`PairingDatum.kernel_degrees`), so the dimension is p^(span/2) by
    the theorem |K| = p^(2r); a zero pairing makes the datum an additive
    character of E, with no cohomology, trivial exactly when its sum over E
    is |E|.  They are computed once per spec: `random_curve_spec` reads them
    for connectedness and then for the Betti number."""
    if spec._dims is None:
        big, emb, roots = _dual_kernel(spec, override=override)
        dims = []
        for datum in spec.character_data(emb, roots):
            pairing = symbolic_pairing(datum)
            if pairing.is_zero():
                dims.append(None if char_sum(datum, 1, override=override) == big.q else 0)
            else:
                dims.append(big.p ** (pairing.entry(0, 0).span() // 2))
        spec._dims = dims
    return spec._dims


def is_geometrically_connected(spec, override=False):
    """No nonzero character component collapses to the trivial sheaf."""
    return None not in _character_dims(spec, override)


def betti_prediction(spec, override=False):
    """Predicted dim H^1_c: the sum of p^r_c over the nonzero characters c,
    |K_c| = p^(2 r_c); a trivial character is refused."""
    dims = _character_dims(spec, override)
    if None in dims:
        raise ValueError("a character is trivial: the curve is not geometrically connected")
    return sum(dims)


class ZetaData(Record):
    q: int
    betti: int
    counts: list
    power_sums: list
    l_poly: object
    certificate: object
    flags: dict = {}  # copied per instance by Record

    def to_json(self):
        cert = None
        if self.certificate is not None:
            m, orders = self.certificate
            cert = {"m": m, "root_orders": {str(k): v for k, v in orders.items()}}
        return {
            "q": self.q,
            "betti": self.betti,
            "counts": [str(c) for c in self.counts],
            "power_sums": [str(s) for s in self.power_sums],
            "l_poly": self.l_poly.to_json(),
            "certificate": cert,
            "flags": self.flags,
        }


def zeta_pipeline(spec, b=None, override=False):
    """Counts -> power sums -> L-polynomial -> Weil certificate, all exact.

    Convention: N_n = q^n - s_n (affine smooth geometrically connected curve:
    no H^0_c, H^2_c contributes q^n, s_n the H^1_c eigenvalue power sums).
    The largest field, F_{q^b}, is refused before the first count.
    """
    if b is None:
        b = betti_prediction(spec, override=override)
    q = spec.field.q
    if b == 0:
        return ZetaData(q, 0, [], [], IntPolynomial([1]), (1, {}))
    check_extension(spec.field, b, override)
    counts = [count_points(spec, n, override=override) for n in range(1, b + 1)]
    s = [q**n - c for n, c in zip(range(1, b + 1), counts)]
    poly = power_sums_to_char_poly(s, b)
    cert = weil_certificate(poly, q, 1)
    return ZetaData(q, b, counts, s, poly, cert)


def betti_closure_check(spec, override=False):
    """Newton closes integrally at B = betti_prediction and the next two
    power sums match the companion recursion of the L-polynomial exactly.
    F_{q^(B+2)} is refused before the first count."""
    b = betti_prediction(spec, override=override)
    check_extension(spec.field, b + 2, override)
    data = zeta_pipeline(spec, b, override=override)
    q = spec.field.q
    fresh = data.power_sums + [q**n - count_points(spec, n, override=override)
                               for n in (b + 1, b + 2)]
    predicted = power_sums_from_char_poly(data.l_poly, b + 2)
    return fresh == predicted, data


def random_curve_spec(field, seed, max_b=6, max_tries=200, override=False):
    """Deterministic pseudorandom valid CurveSpec with small Betti number.

    Draws additive f (separable), nonzero g1, g2 and a; keeps specs that are
    geometrically connected and have 0 < betti_prediction <= max_b.
    ScaleCapExceeded is raised, not retried.
    """
    import random

    rng = random.Random(seed)
    els = list(field.elements())
    for _ in range(max_tries):
        f_coeffs = {0: rng.choice(els[1:])}
        if rng.random() < 0.7:
            f_coeffs[rng.randint(1, 2)] = rng.choice(els)
        g1 = {rng.randint(0, 1): rng.choice(els[1:])}
        g2 = {rng.randint(0, 1): rng.choice(els[1:])}
        try:
            spec = CurveSpec(
                field,
                AdditivePolynomial(field, f_coeffs),
                AdditivePolynomial(field, g1),
                AdditivePolynomial(field, g2),
                rng.choice(els),
            )
        except ValueError:
            continue  # rejected by CurveSpec
        if not is_geometrically_connected(spec, override=override):
            continue
        b = betti_prediction(spec, override=override)
        if 0 < b <= max_b and field.q ** (b + 2) <= 2**16:
            return spec
    raise ValueError(f"no valid curve spec found for seed {seed}")


# -- classified additive W2 endomorphisms -------------------------------------------

class W2Endomorphism:
    """h(x, y) = (f(x), g1(x) + g2(y)) with f, R and g2 additive polynomials
    over one field and g1 = gamma(f_0 X, f_1 X^p, ..., f_n X^{p^n}) + R; the
    classified g2 is f(X^{1/p})^p (`w2_endomorphism`)."""

    def __init__(self, f, r_poly, g2):
        self.field = f.field
        self.f = f
        self.r_poly = r_poly
        self.g2 = g2

    def lift(self, emb):
        return W2Endomorphism(self.f.lift(emb), self.r_poly.lift(emb), self.g2.lift(emb))

    def g1_value(self, x):
        """gamma(f_0 x, f_1 x^p, ...) + R(x), via the Witt-sum identity
        sum (x_i, 0) = (sum x_i, gamma(x_0, ..., x_n))."""
        big = x.field
        acc = witt_zero(big)
        for i, c in self.f.coeffs.items():
            acc = acc + WittVector2(big, c * x.frobenius(i), big.zero())
        return acc.x1 + self.r_poly.evaluate(x)

    def __call__(self, w):
        return WittVector2(
            w.field, self.f.evaluate(w.x0), self.g1_value(w.x0) + self.g2.evaluate(w.x1)
        )


def w2_endomorphism(field, f_coeffs, r_poly=None):
    """The classified endomorphism of f = sum f_i X^(p^i), given as {i: f_i},
    with g2 = sum f_i^p X^(p^i)."""
    f = AdditivePolynomial(field, f_coeffs)
    g2 = AdditivePolynomial(field, {i: c.frobenius() for i, c in f.coeffs.items()})
    return W2Endomorphism(f, r_poly if r_poly is not None else AdditivePolynomial(field, {}), g2)


def verify_additive(endo, n=1, override=False):
    """h(u + v) = h(u) + h(v) for all u, v in W2(F_Q), Q = q^n = p^e, decided
    on the pairs of Teichmueller vectors [x] = (x, 0) with x, y in S, the
    first min(Q, delta + 1) elements of F_Q.

    V(s) = (0, s) is additive and (w0, w1) + V(s) = (w0, w1 + s), so, g2 being
    additive, h(w + V(s)) = (f(w0), g1(w0) + g2(w1) + g2(s)) = h(w) + V(g2(s))
    for every w.  With u = [x] + V(s) and v = [y] + V(t) this gives
        h(u + v) - h(u) - h(v) = h([x] + [y]) - h([x]) - h([y]),
    so h is additive iff h([x] + [y]) = h([x]) + h([y]) for all x, y.  As
    [x] + [y] = (x + y, gamma(x, y)) and f is additive, that difference is
    (0, D(x, y)) with
        D(x, y) = g1(x + y) - g1(x) - g1(y) + g2(gamma(x, y)) - gamma(f(x), f(y)).
    On F_Q, x^(p^i) = x^(p^(i mod e)), so an additive P is a polynomial of
    degree deg P = max p^(i mod e) over its exponents i.  g1 is gamma, of
    degree p, of the f_i x^(p^i), plus R, and gamma(x, y) has degree p - 1 in
    each variable, so D has degree at most delta = max(p deg f, deg R,
    (p - 1) deg g2) in each.  If D vanishes on S x S with |S| > delta, then
    for y in S each D(-, y) has more roots than its degree, so each
    coefficient of D in x, of degree at most delta in y, vanishes on S: D is
    zero.  With |S| = Q the pairs are all of F_Q^2.  The cap counts |S|^2.
    """
    p, e = endo.field.p, endo.field.m * n

    def degree(poly):
        return max((p ** (i % e) for i in poly.coeffs), default=0)

    delta = max(p * degree(endo.f), degree(endo.r_poly), (p - 1) * degree(endo.g2))
    size = min(p**e, delta + 1)
    check_cap(size * size, override, "W2 additivity sweep")
    big, emb = extension(endo.field, n, override)
    lifted = endo.lift(emb)
    teich = [WittVector2(big, x, big.zero()) for x in islice(big.elements(), size)]
    images = [lifted(u) for u in teich]
    return all(lifted(u + v) == hu + hv
               for u, hu in zip(teich, images) for v, hv in zip(teich, images))


def mutated_endomorphism(endo, delta_exp=0):
    """Negative control: perturb g2 away from f(X^{1/p})^p."""
    bad_g2 = endo.g2 + AdditivePolynomial(endo.field, {delta_exp: endo.field.one()})
    return W2Endomorphism(endo.f, endo.r_poly, bad_g2)


# -- surfaces -----------------------------------------------------------------------

class SurfaceSpec:
    """A surface datum built from a classified W2 endomorphism: coefficients
    f_0..f_n and an additive correction R.

    The defining equations (exactly as displayed, parity-dependent) are
      p odd: x^p - x - z f(z) = 0,
             y^p - y + gamma(x^p, -x) - x^p g1(x) - x^p g2(y) - f(x)^p y = 0
      p = 2: x^2 - x - z f(z) = 0,
             y^2 - y - x^2 + x^3 - x^2 g1(x) - x^2 g2(y) - f(x)^2 y = 0
    in k[x, y, z, w]; the variable w appears in neither relation, so every
    count carries a free factor q^n, flagged as w_is_free.
    """

    def __init__(self, field, f_coeffs, r_poly=None):
        self.field = field
        self.endo = w2_endomorphism(field, f_coeffs, r_poly)
        if self.endo.f.is_zero():
            raise ValueError("all f_i = 0: h is degenerate, not an isogeny datum")

    def defining_equations(self):
        """The two displayed relations in k[x, y, z, w], as rendered strings."""
        p = self.field.p
        if p == 2:
            return (
                "x^2 - x - z*f(z)",
                "y^2 - y - x^2 + x^3 - x^2*g1(x) - x^2*g2(y) - f(x)^2*y",
            )
        return (
            f"x^{p} - x - z*f(z)",
            f"y^{p} - y + gamma(x^{p}, -x) - x^{p}*g1(x) - x^{p}*g2(y) - f(x)^{p}*y",
        )

    def to_json(self):
        return {
            "kind": "surface",
            "field": self.field.to_json(),
            "f": self.endo.f.to_json(),
            "r": self.endo.r_poly.to_json(),
        }

    @staticmethod
    def from_json(obj):
        from .fields import FiniteField

        field = FiniteField.from_json(obj["field"])
        return SurfaceSpec(
            field,
            exponent_dict_from_json(field, obj["f"]),
            AdditivePolynomial.from_json(field, obj["r"]),
        )


def surface_counts(spec, n, override=False):
    """Count (x, y, z) solutions of the displayed equations over F_{q^n},
    times the free factor q^n for w.  Returns (count, flags).  The second
    equation is A_x(y) = c(x) with A_x F_p-linear in y: |ker A_x| solutions
    when c(x) is in the image of A_x, else none, from one row reduction."""
    check_cap(spec.field.q**n, override, "surface count")
    big, emb = extension(spec.field, n, override)
    endo = spec.endo.lift(emb)
    p, m = big.p, big.m
    basis = big._power_basis
    z_hits = {}  # key -> how many z have z f(z) = key, the right side of x^p - x
    for z in big.elements():
        key = (z * endo.f.evaluate(z)).coeffs
        z_hits[key] = z_hits.get(key, 0) + 1
    count3 = 0
    for x in big.elements():
        xp = x.frobenius()
        hits = z_hits.get((xp - x).coeffs)
        if not hits:
            continue
        fxp = endo.f.evaluate(x).frobenius()
        if p == 2:
            cx = x * x + x * x * x + xp * endo.g1_value(x)
        else:
            cx = -gamma_value(xp, -x) + xp * endo.g1_value(x)
        columns = [(y.frobenius() - y - xp * endo.g2.evaluate(y) - fxp * y).coeffs
                   for y in basis]
        _, pivots = _row_reduce_mod_p(list(zip(*columns, cx.coeffs)), p)
        if m not in pivots:  # c(x) is in the column space of A_x
            count3 += hits * p ** (m - len(pivots))
    return count3 * big.q, {"w_is_free": True, "free_factor": big.q}


class SurfaceSummand(Record):
    psi_exponent: int
    kind: str  # "trivial" | "vanishing" | "chain"
    r: object  # p-power multiplicity exponent, or None
    weight: object  # i with |tau|^2 = q^i (cohomological degree), or None
    sums: list
    ok: bool


def surface_summand_certificates(spec, n_max=3, override=False):
    """Per-character certification of the surface through its W2 covering.

    The corrected fiber product of the W2 Lang isogeny along a -> a * h(a)
    splits into character summands S_n(psi) = sum psi(witt_trace(a * h(a))).
    Each summand is a quadratic-sheaf sum, so it must be one of: the trivial
    summand (S_n = q^{2n}), identically vanishing (degenerate datum with
    nontrivial restriction to the kernel), or a Weil chain S_n = +-p^r tau^n
    with |tau|^2 = q^i and tau^2 / q^i a root of unity (`weil_chain`), i the
    cohomological degree (Tate twists from descent raise i above 2).

    The sums use the Teichmueller--Verschiebung split a = [x0] + V(x1).  With
    h(a) = (f(x0), g1(x0) + g2(x1)), the W2 product (x0 y0, x0^p y1 + y0^p x1)
    and Tr_W(u, v) = Tr_W(u, 0) + p Tr(v), t(a) = witt_trace(a * h(a)) is
        t(x0, x1) = t(x0, 0) + p Tr(x0^p g2(x1) + f(x0)^p x1),
    F_p-linear in x1 with a coefficient F_p-linear in x0.  Summing over x1,
    S_n(psi_j) = q^n sum psi_j(t(x0, 0)) over all x0 in F_{q^n} when p | j and
    over the kernel K of that coefficient (one linear kernel) otherwise: q^n
    Witt evaluations per degree, not q^(2n).  The additivity of h is never
    used (g1 is arbitrary), so the sums hold for mutated endomorphisms too.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    p, q = spec.field.p, spec.field.q
    p2 = p * p
    check_cap(q**n_max, override, "surface summands")
    sums_by_psi = {j: [] for j in range(p2)}
    for n in range(1, n_max + 1):
        big, emb = extension(spec.field, n, override)
        endo = spec.endo.lift(emb)
        g2_basis = [(b, endo.g2.evaluate(b)) for b in big._power_basis]

        def cross(x0):  # x1 -> Tr(x0^p g2(x1) + f(x0)^p x1) on the basis
            xp, fp = x0.frobenius(), endo.f.evaluate(x0).frobenius()
            return tuple(absolute_trace_int(xp * g2b + fp * b) for b, g2b in g2_basis)

        kernel = {x0.coeffs for x0 in _linear_kernel(big, cross)}
        full, on_kernel = Counter(), Counter()  # t(x0, 0) over F_{q^n} and over K
        for x0 in big.elements():
            a = WittVector2(big, x0, big.zero())
            t = witt_trace(a * endo(a))
            full[t] += big.q  # q^n x1 each
            if x0.coeffs in kernel:
                on_kernel[t] += big.q
        for j in range(p2):
            folded = Counter()
            for t, c in (on_kernel if j % p else full).items():
                folded[(j * t) % p2] += c
            sums_by_psi[j].append(zeta_sum(p2, folded))
    results = []
    for j, sums in sums_by_psi.items():
        if j == 0:
            ok = all(s == q ** (2 * n) for n, s in enumerate(sums, 1))
            results.append(SurfaceSummand(0, "trivial", 0, 4, sums, ok))
        elif all(s.is_zero() for s in sums):
            results.append(SurfaceSummand(j, "vanishing", None, None, sums, True))
        else:
            chain = weil_chain(sums, p, q)
            ok = (chain is not None and all(chain.residuals) and chain.abs_ok
                  and None not in (chain.r, chain.ratio_order))
            r, weight = (chain.r, chain.weight) if ok else (None, None)
            results.append(SurfaceSummand(j, "chain", r, weight, sums, ok))
    return results
