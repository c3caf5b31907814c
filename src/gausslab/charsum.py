"""Symbolic quadratic character data on U = (F_q)^d and their exact sums.

A QuadDatum describes a function t on points of U over every extension
F_{q^n}: an additive character psi = zeta_p composed with traces of polynomial
terms, plus (for p = 2) Witt-vector character terms psi' = zeta_{p^2} composed
with Witt traces.  All sums, pairings, kernels and identity checks are exact.

The term kinds and substitutions of a datum are read in two places only,
`QuadDatum` and `_term_plan`: every term, through the precompositions of its
coordinates, becomes entries a x_j^(p^i) x_k, linear twists c x_j or Witt
terms psi'((c x_j, 0)) of the same trace, their coefficients embedded once.
The Gram evaluator (and with it the sums), `symbolic_pairing` and the deck
construction of `heisenberg` all read that plan, and none of them applies a
substitution.  The geometric kernel K has |K| = p^s and its splitting degree e
read off the pairing (`PairingDatum.kernel_degrees`), and K itself from one
nullspace at n = e.  The curves of `varieties` read the plan through
`char_sum` and `symbolic_pairing`: each character of a curve is a
one-dimensional datum, whose sums give the point counts and whose pairings
give the Betti number and connectedness.
"""

import itertools
from collections import Counter
from functools import reduce
from operator import add

from .errors import (
    DegeneratePairing,
    NotSymmetric,
    Record,
    TheoremViolated,
    check_cap,
    checked_int,
)
from .exactalg import weil_chain, zeta_sum
from .fields import (
    FIELD_CAP,
    AdditivePolynomial,
    WittVector2,
    _nullspace_mod_p,
    _span_mod_p,
    absolute_trace_int,
    check_extension,
    extension,
    witt_trace,
)


# -- term types ----------------------------------------------------------------

class DiagMonomial(Record, frozen=True):
    """Contributes a * x_j^(p^i + 1) inside psi(Tr(...)); i >= 1."""

    j: int
    i: int
    a: object

    kind = "diag"


class CrossMonomial(Record, frozen=True):
    """Contributes a * x_j^(p^i) * x_k inside psi(Tr(...)); i >= 0."""

    j: int
    k: int
    i: int
    a: object

    kind = "cross"


class HalfSquare(Record, frozen=True):
    """Contributes (a/2) * x_j^2; p odd only."""

    j: int
    a: object

    kind = "halfsq"


class WittLinear(Record, frozen=True):
    """Contributes psi'(witt_trace((c*x_j, 0))); p = 2 only."""

    j: int
    c: object

    kind = "wittlin"


class ASLinear(Record, frozen=True):
    """Multiplicative twist psi(Tr(c*x_j))."""

    j: int
    c: object

    kind = "aslin"


class Precompose(Record, frozen=True):
    """Replaces x_j by f(x_j) in all terms for coordinate j."""

    j: int
    f: object  # AdditivePolynomial

    kind = "precompose"


class QuadDatum:
    """A quadratic character datum on (F_q)^d.

    psi is the fixed primitive p-th root zeta_p; when p = 2 and Witt terms
    appear, psi' is zeta_4 with psi'(V(1)) = psi(1) enforced by the canonical
    W2(F_2) = Z/4 identification.
    """

    def __init__(self, field, d, terms):
        self.field = field
        self.d = d
        self.terms = tuple(terms)
        p = field.p
        subs = {}
        for t in self.terms:
            if t.kind == "precompose":
                if not isinstance(t.f, AdditivePolynomial) or t.f.field is not field:
                    raise ValueError("precompose needs an AdditivePolynomial over the base")
                prev = subs.get(t.j)
                subs[t.j] = t.f if prev is None else prev.compose(t.f)
                continue
            if t.kind == "halfsq" and p == 2:
                raise ValueError("half-square terms need odd characteristic")
            if t.kind == "wittlin" and p != 2:
                raise ValueError("Witt-linear terms are a p = 2 construction")
            if t.kind == "diag" and t.i < 1:
                raise ValueError("diagonal monomials need Frobenius exponent >= 1")
            for attr in ("j", "k"):
                if hasattr(t, attr) and not (0 <= getattr(t, attr) < d):
                    raise ValueError(f"coordinate {getattr(t, attr)} out of range")
        self._subs = subs
        self.has_witt = any(t.kind == "wittlin" for t in self.terms)
        self.value_order = p * p if self.has_witt else p

    def __repr__(self):
        return f"QuadDatum({self.field.tag}^{self.d}, {len(self.terms)} terms)"

    def substitution(self, j):
        """The effective additive substitution for coordinate j (None = identity)."""
        return self._subs.get(j)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        terms = [
            {"kind": t.kind, **{name: _encode_field(name, getattr(t, name)) for name in t._fields}}
            for t in self.terms
        ]
        return {"field": self.field.to_json(), "d": self.d, "terms": terms}

    @staticmethod
    def from_json(obj):
        from .fields import FiniteField

        field = FiniteField.from_json(obj["field"])
        decoders = {
            "a": field.element_from_json,
            "c": field.element_from_json,
            "f": lambda f: AdditivePolynomial.from_json(field, f),
        }
        terms = []
        for t in obj["terms"]:
            kind = t["kind"]
            cls = _TERM_KINDS.get(kind) if isinstance(kind, str) else None
            if cls is None:
                raise ValueError(f"unknown term kind {kind!r}")
            # every other field is a coordinate or Frobenius index j, k or i
            values = (decoders[n](t[n]) if n in decoders else checked_int(t[n], n)
                      for n in cls._fields)
            terms.append(cls(*values))
        return QuadDatum(field, checked_int(obj["d"], "d"), terms)


_TERM_KINDS = {
    cls.kind: cls
    for cls in (DiagMonomial, CrossMonomial, HalfSquare, WittLinear, ASLinear, Precompose)
}


def _encode_field(name, value):
    """JSON form of a term field: coefficient lists for the elements `a` and
    `c`, the exponent object for `f`, indices as they are."""
    if name == "f":
        return value.to_json()
    return list(value.coeffs) if name in ("a", "c") else value


# -- pointwise evaluation --------------------------------------------------------

def _term_plan(datum, emb):
    """The terms of a datum as (cross, linear, witt), each coefficient
    embedded once by `emb`: a x_j^(p^i) x_k as (j, k, i, a) in `cross`, with a
    diagonal monomial at k = j and a half square (a/2) x_j^2 at k = j, i = 0
    and a/2 = a (p + 1)/2; an AS-linear twist c x_j as (j, c) in `linear`; a
    Witt term psi'((c x_j, 0)) as (j, c) in `witt`.

    Precompositions are resolved here, the one reader of term kinds and
    substitutions besides `QuadDatum`: each term is expanded through the
    substitutions s_j = sum_u f_u X^(p^u) of its coordinates into entries
    with the same trace, since Tr is Frobenius-invariant.  With c = a f_u^(p^i)
    g_v and alpha = u + i, a s_j(x_j)^(p^i) s_k(x_k) gives (j, k, alpha - v,
    c^(p^-v)) for alpha >= v, else (k, j, v - alpha, c^(p^-alpha)), for each
    (u, f_u) in s_j and (v, g_v) in s_k; c s_j(x_j) gives (j, (c f_u)^(p^-u));
    with y_u = c f_u x^(2^u), (sum y_u, 0) = sum (y_u, 0) + V(sum_(u<v) y_u
    y_v) and `witt_trace` is F-invariant, so psi'((c s_j(x_j), 0)) gives the
    Witt entries (j, (c f_u)^(2^-u)) and the cross entries (j, j, v - u,
    (c^2 f_u f_v)^(2^-u)) for u < v.  A coordinate with no substitution is
    read as s_j = X.  Entries of one monomial, (j, k, i) in `cross` or j in
    `linear`, are summed into one; Witt entries are not, since (c x, 0) +
    (c' x, 0) carries."""
    half, one = (datum.field.p + 1) // 2, datum.field.one()
    cross, linear, witt = {}, {}, []

    def sub(j):  # s_j as (u, f_u) pairs, s_j = X with no substitution
        s = datum.substitution(j)
        return [(0, one)] if s is None else s.coeffs.items()

    def add(entries, key, c):
        entries[key] = entries[key] + c if key in entries else c

    def scaled(j, c):
        return [(u, c * f) for u, f in sub(j)]

    def quadratic(j, k, i, a):
        for (u, f), (v, g) in itertools.product(sub(j), scaled(k, a)):
            c, alpha = f.frobenius(i) * g, u + i
            if alpha >= v:
                add(cross, (j, k, alpha - v), c.frobenius(-v))
            else:
                add(cross, (k, j, v - alpha), c.frobenius(-alpha))

    for t in datum.terms:
        if t.kind in ("diag", "cross"):
            quadratic(t.j, getattr(t, "k", t.j), t.i, t.a)
        elif t.kind == "halfsq":
            quadratic(t.j, t.j, 0, t.a * half)
        elif t.kind == "aslin":
            for u, y in scaled(t.j, t.c):
                add(linear, t.j, y.frobenius(-u))
        elif t.kind == "wittlin":
            ys = scaled(t.j, t.c)
            witt.extend((t.j, emb(y.frobenius(-u))) for u, y in ys)
            for (u, y), (v, z) in itertools.combinations(ys, 2):
                add(cross, (t.j, t.j, v - u), (y * z).frobenius(-u))
    return ([(*key, emb(a)) for key, a in cross.items()],
            [(j, emb(c)) for j, c in linear.items()], witt)


def _ga_value(cross, linear, v, zero):
    """The untraced G_a value sum a v_j^(p^i) v_k + sum c v_j of the `cross`
    and `linear` terms of a plan at the point v."""
    acc = zero
    for j, k, i, a in cross:
        acc = acc + a * v[j].frobenius(i) * v[k]
    for j, c in linear:
        acc = acc + c * v[j]
    return acc


class _Evaluator:
    """Per-extension evaluation plan for a datum; exponents modulo p^2."""

    def __init__(self, datum, n, override=False):
        # the N^2 Gram entries, N = m*n*d, count before anything is built
        check_cap((datum.field.m * n * datum.d) ** 2, override, "Gram matrix")
        big, emb = extension(datum.field, n, override)
        self.big = big
        self.emb = emb
        self.p, self.d = datum.field.p, datum.d
        self._cross, self._linear, self._witt = _term_plan(datum, emb)

    def exponent(self, point):
        """Exponent e with t(point) = zeta_{p^2}^e."""
        big = self.big
        e = self.p * absolute_trace_int(_ga_value(self._cross, self._linear, point, big.zero()))
        for j, c in self._witt:
            e += witt_trace(WittVector2(big, c * point[j], big.zero()))
        return e % (self.p * self.p)

    def polar(self, x):
        """u with B(x, y) = sum_j Tr(u_j y_j) mod p: the polar form of
        `exponent`, term by term, where Tr(a x y^(p^i)) = Tr((a x)^(p^-i) y);
        linear terms add nothing."""
        u = [self.big.zero()] * len(x)
        for j, k, i, a in self._cross:
            u[k] = u[k] + a * x[j].frobenius(i)
            u[j] = u[j] + (a * x[k]).frobenius(-i)
        for j, c in self._witt:
            # the carry: (c(x+y), 0) = (cx, 0) + (cy, 0) - V(c^2 xy)
            u[j] = u[j] + c * c * x[j]
        return u


def _coordinate_basis(big, columns):
    """F_p-basis of W_0 x ... x W_(d-1) from bases columns[j] of the W_j:
    each vector in its own coordinate, 0 elsewhere."""
    return [tuple(w if k == j else big.zero() for k in range(len(columns)))
            for j, ws in enumerate(columns) for w in ws]


def _gram_data(ev, basis):
    """Gram data of the exponent of an `_Evaluator` on points b_k: a[k] =
    e(b_k) and gram[k][l] = B(b_k, b_l), where p*B(x, y) = e(x + y) - e(x) -
    e(y) mod p^2 is F_p-bilinear (odd p, p = 2 and the Z/4-valued Witt case
    alike), from N values of e and N polar rows: B(b_k, b_l) = sum_j Tr(u_kj
    v_lj) mod p, a sum of traces, since the trace is F_p-linear; a zero v_lj
    adds nothing, and a coordinate basis vector has d - 1 of them.  They fix e
    on the span (see `_value`), so two quadratic exponents agree on it iff
    their Gram data agree.

    The data are returned once more values of e agree with them: e(0) = 0;
    e(c sum b_k) as `_value` predicts it, c = 2 for odd p, where every a_k
    and B(b_k, b_l) has a unit weight; for p = 2, B(b_k, b_k) = e(b_k) mod 2,
    since e(2x) = 0 = 2 e(x) + 2 B(x, x) mod 4.  A fault in the polar form,
    or an exponent that is not quadratic, shows there: exit 4."""
    p, rows = ev.p, [ev.polar(b) for b in basis]
    a = [ev.exponent(b) for b in basis]
    nonzero = [[(j, v) for j, v in enumerate(b) if v] for b in basis]
    gram = [[0] * len(basis) for _ in basis]
    for k, row in enumerate(rows):
        for l in range(k, len(basis)):
            t = 0
            for j, v in nonzero[l]:
                t += absolute_trace_int(row[j] * v)
            gram[k][l] = gram[l][k] = t % p
    c = 1 if p == 2 else 2
    origin = (ev.big.zero(),) * ev.d
    total = reduce(lambda x, b: tuple(map(add, x, b)), basis * c, origin)
    if (ev.exponent(origin) or ev.exponent(total) != _value(a, gram, p, [(k, c) for k in range(len(a))])
            or p == 2 and any((gram[k][k] - a[k]) % 2 for k in range(len(a)))):
        raise TheoremViolated("the exponent disagrees with its Gram data")
    return a, gram


def _value(a, gram, p, coeffs):
    """e(sum c v_k) for (index k, integer c) pairs from Gram data (a, gram):
    e(x + y) = e(x) + e(y) + p B(x, y) gives e(c x) = c e(x) + p B(x, x) c (c - 1) / 2."""
    total = sum(c * a[k] + p * gram[k][k] * (c * (c - 1) // 2) for k, c in coeffs)
    for (k, c), (l, c2) in itertools.combinations(coeffs, 2):
        total += p * c * c2 * gram[k][l]
    return total % (p * p)


def _histogram(a, gram, p):
    """{exponent: count} over F_p^N of the quadratic exponent with Gram data
    (a, gram), which are left unmodified.  Lines <v> with B(v, v) != 0, else
    planes <v, w> with B(v, w) != 0, split off orthogonally and their
    histograms convolve; on the radical left over e is additive, so each of
    its basis vectors is a piece too (C.T.C. Wall, "Quadratic forms on finite
    groups", 1963).  Every value is `_value` written out: e(c v) on a line
    or radical vector, e(c v + d w) on a plane, where B(v, v) = B(w, w) = 0,
    and e(r - sum c_k v_k) for a live row r projected off the piece."""
    p2 = p * p
    a, gram = list(a), [list(row) for row in gram]
    hist = Counter({0: 1})
    live = list(range(len(a)))
    while live:
        # a line, else a plane, else a vector of the radical, where e is additive
        piece = next(([k] for k in live if gram[k][k]), None) or next(
            ([k, l] for k in live for l in live if gram[k][l]), None) or live[:1]
        live = [k for k in live if k not in piece]
        v, w = piece[0], piece[-1]
        g, av, aw, gv, gw = gram[v][w], a[v], a[w], gram[v], gram[w]
        if v == w:
            values = [(c * av + p * g * (c * (c - 1) // 2)) % p2 for c in range(p)]
        else:
            values = [(c * av + d * aw + p * c * d * g) % p2 for c in range(p) for d in range(p)]
        convolved = Counter()
        for e in values:
            for e1, c1 in hist.items():
                convolved[(e1 + e) % p2] += c1
        hist = convolved
        if not g:  # a radical vector: orthogonal to the rest already
            continue
        # r - B(r, v)/B(v, v) v off a line; r - (B(r, w) v + B(r, v) w)/B(v, w)
        # off a plane; each live row of B in one pass
        inv = pow(g, -1, p)
        for r in live:
            row = gram[r]
            if v == w:
                c = row[v] * inv % p
                a[r] = (a[r] - c * av + p * (g * (c * (c + 1) // 2) - c * row[v])) % p2
                for r2 in live:
                    row[r2] = (row[r2] - c * gv[r2]) % p
            else:
                cv, cw = row[w] * inv % p, row[v] * inv % p
                a[r] = (a[r] - cv * av - cw * aw + p * (cv * cw * g - cv * row[v] - cw * row[w])) % p2
                for r2 in live:
                    row[r2] = (row[r2] - cv * gv[r2] - cw * gw[r2]) % p
    return hist


def char_sum(datum, n, workers=1, override=False):
    """S_n = sum of t over all points of (F_{q^n})^d, exactly, from the Gram
    data of its exponent: N + 2 values of t, N(N+1)/2 traces of the polar
    form and O(N^3) F_p work for N = m*n*d, no point enumeration.  `workers`
    never changes the result."""
    ev = _Evaluator(datum, n, override)
    basis = _coordinate_basis(ev.big, [ev.big._power_basis] * datum.d)
    hist = _histogram(*_gram_data(ev, basis), ev.p)
    if datum.value_order == ev.p:
        return zeta_sum(ev.p, {k // ev.p: v for k, v in hist.items()})
    return zeta_sum(ev.p * ev.p, hist)


def derive_pairing(datum, n, override=False):
    """Materialize t as a QuadraticForm on the additive group of (F_{q^n})^d.

    The group is (Z/p)^(m*n*d) in the coefficient basis, enabling the whole
    finite-quadratic-form machinery (Gauss sum, radical, non-degeneracy).
    Its generators are the coordinate basis of `char_sum`, in the same order,
    so the table is `quadform._fill` of the Gram data of t there, with no
    sweep of the points: q_s = e(b_s)/p and G = B mod p when t takes p-th
    roots of unity, q_s = e(b_s) and G = p B mod p^2 with Witt terms.  The
    cap counts the value table, q^(n*d) entries.
    """
    from .quadform import FiniteAbelianGroup, QuadraticForm, _fill

    ev = _Evaluator(datum, n, override)
    big, p = ev.big, ev.p
    check_cap(big.q ** datum.d, override, "quadratic form table")
    a, gram = _gram_data(ev, _coordinate_basis(big, [big._power_basis] * datum.d))
    if datum.value_order == p:
        q = [e // p for e in a]
    else:
        q, gram = a, [[p * b for b in row] for row in gram]
    mods = [p] * len(a)
    return QuadraticForm(FiniteAbelianGroup(mods), datum.value_order,
                         _fill(mods, datum.value_order, q, gram))


class PairingDatum:
    """The symmetric biadditive pairing of a datum: b(x,y) = psi(Tr(sum f_jk(x_j) y_k)),
    held by its nonzero entries f_jk, so that its size follows the terms of
    the datum and not d^2."""

    def __init__(self, field, d, matrix):
        self.field = field
        self.d = d
        self.matrix = {key: f for key, f in matrix.items() if not f.is_zero()}

    def entry(self, j, k):
        return self.matrix.get((j, k)) or AdditivePolynomial(self.field, {})

    def __eq__(self, other):
        return (
            isinstance(other, PairingDatum)
            and self.field is other.field
            and self.d == other.d
            and self.matrix == other.matrix
        )

    def is_symmetric(self):
        """r_B = l_B: f_kj must be the trace-adjoint of f_jk."""
        return all(f.adjoint() == self.entry(k, j) for (j, k), f in self.matrix.items())

    def is_zero(self):
        return not self.matrix

    def kernel_degrees(self, override=False):
        """(s, e): |K| = p^s and e is the least n with K in (F_{q^n})^d, for K
        the zeros of sum_j f_jk(x_j), k < d, over the closure, read with no
        field built from M = L^d/N, L = F_q{tau, tau^-1}, N spanned by the
        equations (O. Ore, Trans. AMS 35, 1933).  Right division (`_reduce`)
        echelons them; each pivot h_j is onto with p^(span h_j) roots.  K =
        Hom_L(M, closure) lies in (F_{q^n})^d iff tau^(mn), central, fixes the
        unit vectors of M; n is sought up to 129, where q^n > FIELD_CAP."""
        field, d = self.field, self.d
        # a coordinate with no constraint in any column makes the kernel infinite
        cols = {j for j, _ in self.matrix}
        if len(cols) < d:
            j = next(j for j in range(d) if j not in cols)
            raise DegeneratePairing(f"coordinate {j} is unconstrained (f = 0)")
        check_cap(d * d, override, "module normal forms")  # d unit vectors of M, d entries each
        pool = {}  # equation k -> {j: f_jk}, nonzero entries only
        for (j, k), f in self.matrix.items():
            pool.setdefault(k, {})[j] = f
        pool, pivots = list(pool.values()), {}
        for j in range(d):
            live, pool = [r for r in pool if j in r], [r for r in pool if j not in r]
            while len(live) > 1:  # Euclid on column j: spans fall below the least
                h, *rest = sorted(live, key=lambda r: r[j].span())
                live = [h] + [r for r in rest if j in _reduce(r, {j: h})]
                pool += [r for r in rest if r and j not in r]
            if not live:
                raise DegeneratePairing(f"coordinate {j} is free modulo the other equations")
            pivots[j] = live[0]
        units = moved = [_reduce({j: AdditivePolynomial(field, {0: 1})}, pivots) for j in range(d)]
        # q^n > FIELD_CAP once n > 128, for every q: with the cap lifted, the search stops there
        for n in range(1, FIELD_CAP.bit_length() + 1):
            check_extension(field, n, override)
            moved = [_reduce({k: f.twist(field.m) for k, f in v.items()}, pivots) for v in moved]
            if moved == units:
                return sum(h[j].span() for j, h in pivots.items()), n
        raise DegeneratePairing(f"splitting degree above {n}, past the field bound 2^128")


def _reduce(v, pivots):
    """v - sum g_j h_j in place, g_j in L, for the pivots h_j = pivots[j] (zero
    left of column j) at the columns of v from the left: c tau^t h_j cancels
    the top terms of v[j], then the bottom ones, into the window [lo, hi)
    of the exponents of h_j[j]."""
    j = -1
    while True:
        cols = [k for k in v if k > j and k in pivots]
        if not cols:
            return v
        j = min(cols)
        h = pivots[j]
        lo, hi = min(h[j].coeffs), max(h[j].coeffs)
        while j in v and max(v[j].coeffs) >= hi:
            _cancel(v, h, j, max(v[j].coeffs), hi)
        while j in v and min(v[j].coeffs) < lo:
            _cancel(v, h, j, min(v[j].coeffs), lo)


def _cancel(v, h, j, i, i0):
    """v - c tau^(i - i0) h in place, with c clearing the term tau^i of v[j]."""
    c = -v[j].coeffs[i] / h[j].coeffs[i0].frobenius(i - i0)
    for k, g in h.items():
        g = g.twist(i - i0).scale(c)
        v[k] = v[k] + g if k in v else g
        if v[k].is_zero():
            del v[k]


def symbolic_pairing(datum):
    """Expand t(x+y)/t(x)t(y) into a PairingDatum, exactly, from the term
    plan, where precompositions are already resolved: a x_j^(p^i) x_k adds a
    X^(p^i) to f_jk and its adjoint a^(p^-i) X^(p^-i) to f_kj (a half
    square's two halves a (p + 1)/2 add up to a); a Witt term c adds c^2 X to
    f_jj, since (c(x+y),0) - (cx,0) - (cy,0) = -V(c^2 xy) contributes
    psi(Tr(c^2 x y)) (see gamma(x,z) = xz for p = 2); linear terms add
    nothing.

    Asserts the classified symmetric shape (a_i paired with a_i^(p^-i) on
    the diagonal); failure means a construction bug and raises
    TheoremViolated.
    """
    field = datum.field
    matrix = {}  # (j, k) -> {i: coefficient of X^(p^i) in f_jk}

    def add_to(j, k, i, a):
        f = matrix.setdefault((j, k), {})
        f[i] = f[i] + a if i in f else a

    cross, _, witt = _term_plan(datum, lambda a: a)
    for j, k, i, a in cross:
        add_to(j, k, i, a)
        add_to(k, j, -i, a.frobenius(-i))
    for j, c in witt:
        add_to(j, j, 0, c * c)
    out = PairingDatum(field, datum.d, {key: AdditivePolynomial(field, f) for key, f in matrix.items()})
    if not out.is_symmetric():
        raise TheoremViolated("expanded pairing fails r_B = l_B (construction bug)")
    return out


# -- geometric kernel -----------------------------------------------------------

class KernelData(Record):
    r: int
    size: int
    splitting_degree: int
    field: object
    d: int
    basis: list  # an F_p-basis of K, points in field^d

    @property
    def elements(self):
        """All of K, listed only when read (the `kernel` job): the F_p-span of
        `basis` in itertools.product order over its coefficients."""
        m, vectors = self.field.m, [[c for x in pt for c in x.coeffs] for pt in self.basis]
        return [tuple(self.field.element(vec[j * m:(j + 1) * m]) for j in range(self.d))
                for vec in _span_mod_p(vectors, self.field.p, m * self.d)]


def _kernel_basis(ev):
    """Flat F_p-basis of K(F_{q^n}) = ker l_Q, the radical of the polar form
    of an `_Evaluator`: B(x, y) = sum_j Tr(u_j(x) y_j) for u the polar rows,
    so l_Q(x) = u(x), and the trace form is non-degenerate.  The nullspace of
    an (m*n*d)^2 matrix over F_p, no point enumeration."""
    cols = [[c for w in ev.polar(b) for c in w.coeffs]
            for b in _coordinate_basis(ev.big, [ev.big._power_basis] * ev.d)]
    return _nullspace_mod_p(list(zip(*cols)), ev.p)


def geometric_kernel(datum, override=False):
    """ker l_Q over its splitting field: size p^(2r), returns KernelData.

    |K| = p^s and the splitting degree e come from the pairing
    (`PairingDatum.kernel_degrees`) before any field is built; K is then the
    nullspace of the polar rows at n = e, which must have dimension s.
    """
    pairing = symbolic_pairing(datum)
    if pairing.is_zero():
        raise DegeneratePairing("the pairing vanishes identically")
    s, e = pairing.kernel_degrees(override)
    p, d, size = datum.field.p, datum.d, datum.field.p ** s
    if s % 2:
        raise DegeneratePairing(f"kernel size {size} is not an even power of {p}")
    # caps the listing that `KernelData.elements` makes when read
    check_cap(size, override, "kernel listing")
    ev = _Evaluator(datum, e, override)
    basis, big = _kernel_basis(ev), ev.big
    if len(basis) != s:
        raise TheoremViolated(f"K(F_(q^{e})) has dimension {len(basis)}, not {s}")
    return KernelData(r=s // 2, size=size, splitting_degree=e, field=big, d=d, basis=[
        tuple(big.element(vec[j * big.m:(j + 1) * big.m]) for j in range(d)) for vec in basis])


# -- canonical one-dimensional representatives ------------------------------------

def canonical_quadratic(pairing):
    """The canonical 1-dimensional datum with the given symmetric pairing.

    p odd: psi((1/2) f(x) x) expanded into a half-square plus diagonal
    monomials; p = 2: the Witt character at sqrt(a_0) plus diagonal monomials.
    Verified: symbolic_pairing(result) equals the input.
    """
    if pairing.d != 1:
        raise ValueError("canonical representatives are one-dimensional")
    if not pairing.is_symmetric():
        raise NotSymmetric("pairing must satisfy r_B = l_B")
    field = pairing.field
    f = pairing.entry(0, 0)
    p = field.p
    a0 = f.coeffs.get(0, field.zero())
    terms = []
    if p == 2:
        if a0:
            terms.append(WittLinear(0, a0.pth_root()))
    else:
        if a0:
            terms.append(HalfSquare(0, a0))
    for i, a in f.coeffs.items():
        if i >= 1:
            terms.append(DiagMonomial(0, i, a))
    datum = QuadDatum(field, 1, terms)
    if symbolic_pairing(datum) != pairing:
        raise NotSymmetric("canonical representative does not reproduce the pairing")
    return datum


def clb_cocycle_identity_check(i, a, field, n, override=False):
    """Check of the explicit coboundary behind the classification of
    symmetric pairings.

    Over (F_{q^n})^2, the antisymmetrized expression
    (a X^{p^i} + a^{p^-i} X^{p^-i}) Y - X (a Y^{p^i} + a^{p^-i} Y^{p^-i})
    must equal g^p - g for g = sum_{j<i} (a^{p^-i} X Y^{p^-i} - a^{p^-i} X^{p^-i} Y)^{p^j},
    hence die under the trace character.  Returns True iff both hold at every
    point.  Both sides are biadditive: X -> a X^{p^i} + a^{p^-i} X^{p^-i} is
    additive, and g is a sum of Frobenius images of biadditive terms.  So
    checking the (m n)^2 pairs of F_p-basis vectors X^s, X^t proves both.
    """
    check_cap((field.m * n) ** 2, override, "basis pairs")
    big, emb = extension(field, n, override)
    aa = emb(field.element(a))
    ar = aa.pth_root(i)

    def fval(x):
        return aa * x.frobenius(i) + ar * x.pth_root(i)

    for x, y in itertools.product(big._power_basis, repeat=2):
        expr = fval(x) * y - x * fval(y)
        base = ar * x * y.pth_root(i) - ar * x.pth_root(i) * y
        g = sum((base.frobenius(jj) for jj in range(i)), big.zero())
        if absolute_trace_int(expr) or expr != g.frobenius() - g:
            return False
    return True


# -- Hasse-Davenport checks -------------------------------------------------------

class HDReport(Record):
    datum: object
    r: int
    tau: object
    sums: list
    chain_ok: bool
    residuals: list
    fev_abs_ok: bool
    fev_ratio_order: object

    @property
    def ok(self):
        return self.chain_ok and self.fev_abs_ok and self.fev_ratio_order is not None


def hasse_davenport_check(datum, r, n_max=3, workers=1, override=False):
    """The Weil chain (`weil_chain`) of S_1, ..., S_n_max with lead (-1)^d p^r
    and norm q^d: S_n = (-1)^d p^r tau^n, |tau|^2 = q^d and tau^2/q^d a root of
    unity.  F_{q^n_max} is refused before the first sum.  Failures are
    reported in the HDReport (the Galois hypothesis may simply fail for the
    datum); the sums are closed-form (`char_sum`), so `workers` never changes
    the result.  A claimed r > m d / 2 is refuted before p^r is formed: |S_1|
    <= q^d < p^r q^(d/2), so no chain has that lead, and the report has no
    tau and no residuals.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    check_extension(datum.field, n_max, override)
    sums = [char_sum(datum, n, workers=workers, override=override) for n in range(1, n_max + 1)]
    p, q, d = datum.field.p, datum.field.q, datum.d
    if 2 * r > datum.field.m * d:
        return HDReport(datum, r, None, sums, False, None, False, None)
    chain = weil_chain(sums, p, q, (-1) ** d * p**r, q**d)
    return HDReport(datum, r, chain.lam, sums, all(chain.residuals), chain.residuals,
                    chain.abs_ok, chain.ratio_order)


def invariance_check(datum, matrices, n=1, override=False):
    """t(g x) = t(x) for every matrix g and every point x of (F_{q^n})^d.

    g is F_p-linear, so e o g is quadratic like e, and the two agree
    everywhere iff their Gram data agree: those on the moved points g b_k
    against those on b_k, N + 2 values of e and N(N+1)/2 polar traces per
    matrix.
    """
    ev = _Evaluator(datum, n, override)
    big, emb, d = ev.big, ev.emb, datum.d
    lifted_mats = [[[emb(datum.field.element(c)) for c in row] for row in mat] for mat in matrices]
    basis = _coordinate_basis(big, [big._power_basis] * d)
    base = _gram_data(ev, basis)
    for g in lifted_mats:
        moved = [tuple(sum((g[r][c] * b[c] for c in range(d)), big.zero()) for r in range(d))
                 for b in basis]
        if _gram_data(ev, moved) != base:
            return False
    return True
