"""Finite Heisenberg groups from alternating perfect pairings, their
Stone-von-Neumann representations, and the bridge from a 1-dimensional
quadratic datum to its deck-transformation Heisenberg group.

Representation matrices are monomial (translation/modulation model), stored as
a permutation plus a phase-exponent vector, so products and characters stay in
exact integer/cyclotomic arithmetic.

The group law, the commutator and the SvN homomorphism property are checked on
generators of K (and of H), where bilinearity makes the check a proof for the
whole group; no verification sweeps all of H x H or H x H x H.
"""

import itertools
from dataclasses import dataclass
from math import gcd

from .charsum import geometric_kernel
from .errors import (
    NoAdditiveSolution,
    NonInjectiveCharacter,
    NotAlternating,
    NotPerfect,
    TheoremViolated,
)
from .exactalg import abs_square, zeta, zeta_sum
from .fields import extension
from .quadform import FiniteAbelianGroup


class AlternatingPairing:
    """e: K x K -> Z/p^s with e(x,x) = 0, biadditive and perfect."""

    def __init__(self, group, a_modulus, table):
        self.group = group
        self.a_modulus = int(a_modulus)
        self.table = [[v % self.a_modulus for v in row] for row in table]
        self.validate()

    def validate(self):
        g = self.group
        t = self.table
        mod = self.a_modulus
        for i in g.elements():
            if t[i][i] % mod:
                raise NotAlternating(f"e(x,x) != 0 at x = {g.decode(i)}")
        for gen in g.generators():
            shift = g.translation(gen)
            for i in g.elements():
                for j in g.elements():
                    if (t[shift[i]][j] - t[i][j] - t[gen][j]) % mod:
                        raise NotAlternating("pairing is not biadditive")
                    if (t[j][shift[i]] - t[j][i] - t[j][gen]) % mod:
                        raise NotAlternating("pairing is not biadditive")
        rad = [i for i in g.elements() if not any(v % mod for v in t[i])]
        if len(rad) != 1:
            raise NotPerfect(g.decode(rad[1] if len(rad) > 1 else 0))
        # perfect = the induced map K -> Hom(K, A) is injective (hence bijective)

    def value(self, i, j):
        return self.table[i][j]


@dataclass
class DarbouxBasis:
    """Dual pairs (x_i, y_i) with e(x_i, y_j) = delta_ij * eps_i, isotropic spans."""

    pairs: list  # (x index, y index, eps in Z/p^s)

    def ranks(self, group):
        return [group.element_order(x) for x, _, _ in self.pairs]


def darboux(pairing):
    """Symplectic reduction: split off a maximal-order dual pair, recurse.

    Tie-breaking: lexicographically least x (by element index), then least y,
    among pairs attaining the maximal order of e(x,y).
    """
    g = pairing.group
    mod = pairing.a_modulus
    t = pairing.table

    def order_in_a(v):
        return mod // gcd(v % mod, mod)

    def recurse(elements):
        elements = sorted(elements)
        if len(elements) == 1:
            return []
        best = None
        for x in elements:
            for y in elements:
                o = order_in_a(t[x][y])
                if best is None or o > best[0]:
                    best = (o, x, y)
        o, x, y = best
        if o == 1:
            raise NotPerfect(g.decode(elements[1]))
        comp = [z for z in elements if t[z][x] % mod == 0 and t[z][y] % mod == 0]
        return [(x, y, t[x][y] % mod)] + recurse(comp)

    pairs = recurse(list(g.elements()))
    # consistency of the dual-pair normal form
    for a, (x, y, eps) in enumerate(pairs):
        if order_in_a(eps) != g.element_order(x) or order_in_a(eps) != g.element_order(y):
            raise NotPerfect(g.decode(x))
        for b, (x2, y2, _) in enumerate(pairs):
            if a != b and (t[x][x2] % mod or t[x][y2] % mod or t[y][x2] % mod or t[y][y2] % mod):
                raise NotAlternating("darboux pairs fail orthogonality")
    return DarbouxBasis(pairs)


class HeisenbergGroup:
    """Elements (a, x) with (a,x)(b,y) = (a + b + c(x,y), x + y).

    The cocycle is bilinear in Darboux coordinates: c(x,y) = sum_i
    alpha_i(x) beta_i(y) eps_i, which makes the commutator reproduce the
    pairing exactly: [(0,x), (0,y)] = (e(x,y), 0). `verify` checks both facts
    on generators of K.
    """

    def __init__(self, pairing, basis=None):
        self.pairing = pairing
        self.k_group = pairing.group
        self.a_modulus = pairing.a_modulus
        self.basis = basis if basis is not None else darboux(pairing)
        self._coords = self._coordinate_tables()
        self.order = self.a_modulus * self.k_group.order

    def _coordinate_tables(self):
        g = self.k_group
        mod = self.a_modulus
        t = self.pairing.table
        coords = []
        for k in g.elements():
            alphas, betas = [], []
            for x, y, eps in self.basis.pairs:
                ord_pair = g.element_order(x)
                # e(k, y) = alpha * eps and e(x, k) = beta * eps
                alpha = _solve_multiple(t[k][y], eps, mod, ord_pair)
                beta = _solve_multiple(t[x][k], eps, mod, ord_pair)
                alphas.append(alpha)
                betas.append(beta)
            # the coordinates must reconstruct k (Darboux basis spans K)
            acc = 0
            for a, b, (x, y, _) in zip(alphas, betas, self.basis.pairs):
                acc = g.add(acc, g.add(g.scalar(a, x), g.scalar(b, y)))
            if acc != k:
                raise NotPerfect(g.decode(k))
            coords.append((tuple(alphas), tuple(betas)))
        return coords

    def cocycle(self, i, j):
        ai, _ = self._coords[i]
        _, bj = self._coords[j]
        return (
            sum(a * b * eps for a, b, (_, _, eps) in zip(ai, bj, self.basis.pairs))
            % self.a_modulus
        )

    # group elements are pairs (a, k) with a mod a_modulus, k an index in K
    def elements(self):
        return itertools.product(range(self.a_modulus), self.k_group.elements())

    def multiply(self, g1, g2):
        a, x = g1
        b, y = g2
        return ((a + b + self.cocycle(x, y)) % self.a_modulus, self.k_group.add(x, y))

    def identity(self):
        return (0, 0)

    def inverse(self, g):
        a, x = g
        nx = self.k_group.neg(x)
        return ((-a - self.cocycle(x, nx)) % self.a_modulus, nx)

    def commutator(self, g1, g2):
        return self.multiply(
            self.multiply(g1, g2), self.inverse(self.multiply(g2, g1))
        )

    def element_order(self, g):
        o, cur = 1, g
        while cur != self.identity():
            cur = self.multiply(cur, g)
            o += 1
        return o

    def center(self):
        els = list(self.elements())
        return [g for g in els if all(self.multiply(g, h) == self.multiply(h, g) for h in els)]

    def verify(self):
        """Check on generators that H is a group with Z(H) = A and [,] = e.

        1. k -> _coords[k] is additive: _coords[k + g] = _coords[k] + _coords[g]
           mod the Darboux orders, for every k in K and every generator g.
           Then c is bilinear, which makes the multiplication associative with
           identity (0, 0) and inverses given by `inverse`.
        2. [(0,x), (0,y)] = (e(x,y), 0) for generators x, y of K. Both sides
           are biadditive (e by `AlternatingPairing.validate`, the commutator
           by 1), so they agree on K x K; e is perfect, so Z(H) = A.
        """
        k_group = self.k_group
        orders = self.basis.ranks(k_group)
        gens = k_group.generators()
        for k in k_group.elements():
            ak, bk = self._coords[k]
            for g in gens:
                ag, bg = self._coords[g]
                expected = (
                    tuple((u + v) % o for u, v, o in zip(ak, ag, orders)),
                    tuple((u + v) % o for u, v, o in zip(bk, bg, orders)),
                )
                if self._coords[k_group.add(k, g)] != expected:
                    raise TheoremViolated(
                        f"Darboux coordinates are not additive at {k_group.decode(k)}"
                    )
        for x in gens:
            for y in gens:
                if self.commutator((0, x), (0, y)) != (self.pairing.value(x, y), 0):
                    raise TheoremViolated("commutator does not reproduce the pairing")
        return True


def _solve_multiple(target, eps, mod, bound):
    """Least c >= 0 with c*eps = target mod `mod` (exists by maximality)."""
    target %= mod
    acc = 0
    for c in range(bound):
        if acc == target:
            return c
        acc = (acc + eps) % mod
    raise NotPerfect(f"value {target} outside the cyclic span of {eps}")


def build_group(pairing):
    group = HeisenbergGroup(pairing)
    group.verify()
    return group


class SvNRepresentation:
    """The induced representation of H from psi on A extended by 1 on L'.

    Matrices are monomial: stored per group element as (row permutation,
    phase exponents), acting on the basis indexed by L-coordinates.
    """

    def __init__(self, group, psi_unit=1):
        mod = group.a_modulus
        if gcd(psi_unit, mod) != 1:
            raise NonInjectiveCharacter(f"psi(1) = zeta^{psi_unit} is not primitive")
        self.group = group
        self.psi_unit = psi_unit % mod
        self.mod = mod
        pairs = group.basis.pairs
        k = group.k_group
        self.l_orders = [k.element_order(x) for x, _, _ in pairs]
        self.dim = 1
        for o in self.l_orders:
            self.dim *= o
        # basis labels: L-coordinates alpha = (a_1, ..., a_r)
        self.labels = list(itertools.product(*(range(o) for o in self.l_orders)))
        self.label_index = {lab: t for t, lab in enumerate(self.labels)}
        self._l_element = {}
        for lab in self.labels:
            idx = 0
            for c, (x, _, _) in zip(lab, pairs):
                idx = k.add(idx, k.scalar(c, x))
            self._l_element[lab] = idx
        self._matrices = {}

    def matrix(self, g):
        """(perm, exps): column `lab` maps to row perm[lab] with phase exps[lab]."""
        if g in self._matrices:
            return self._matrices[g]
        grp = self.group
        k = grp.k_group
        a_h, k_h = g
        perm, exps = [], []
        for lab in self.labels:
            l_idx = self._l_element[lab]
            total_k = k.add(k_h, l_idx)
            # split total_k = l'' + m with l'' in L, m in L'
            alphas, betas = grp._coords[total_k]
            l2_lab = tuple(a % o for a, o in zip(alphas, self.l_orders))
            l2_idx = self._l_element[l2_lab]
            m_idx = k.sub(total_k, l2_idx)
            b = (a_h + grp.cocycle(k_h, l_idx) - grp.cocycle(l2_idx, m_idx)) % self.mod
            perm.append(self.label_index[l2_lab])
            exps.append((self.psi_unit * b) % self.mod)
        out = (tuple(perm), tuple(exps))
        self._matrices[g] = out
        return out

    def compose(self, m1, m2):
        """Matrix product of monomial matrices (m1 applied after m2)."""
        perm1, exps1 = m1
        perm2, exps2 = m2
        perm = tuple(perm1[perm2[t]] for t in range(self.dim))
        exps = tuple((exps2[t] + exps1[perm2[t]]) % self.mod for t in range(self.dim))
        return (perm, exps)

    def character(self, g):
        perm, exps = self.matrix(g)
        hist = {}
        for t in range(self.dim):
            if perm[t] == t:
                hist[exps[t]] = hist.get(exps[t], 0) + 1
        return zeta_sum(self.mod, hist)

    def is_identity_matrix(self, m):
        perm, exps = m
        return all(perm[t] == t for t in range(self.dim)) and not any(exps)

    def verify(self):
        """Homomorphism on generators, central character, exact irreducibility.

        rho(1) = 1 and rho(s h) = rho(s) rho(h) for every s in
        S = {(1,0)} u {(0,g) : g a generator of K} and every h in H. S
        generates the group H (a verified `HeisenbergGroup`), so writing
        h1 = s_1 ... s_n gives rho(h1 h2) = rho(s_1) ... rho(s_n) rho(h2) =
        rho(h1) rho(h2): the homomorphism property on all pairs.
        """
        grp = self.group
        els = list(grp.elements())
        if not self.is_identity_matrix(self.matrix(grp.identity())):
            raise TheoremViolated("rho(1) is not the identity matrix")
        for s in [(1, 0)] + [(0, g) for g in grp.k_group.generators()]:
            rho_s = self.matrix(s)
            for h in els:
                if self.matrix(grp.multiply(s, h)) != self.compose(rho_s, self.matrix(h)):
                    raise TheoremViolated("representation is not a homomorphism")
        for a in range(grp.a_modulus):
            perm, exps = self.matrix((a, 0))
            expected = (self.psi_unit * a) % self.mod
            if any(perm[t] != t for t in range(self.dim)) or any(
                e != expected for e in exps
            ):
                raise TheoremViolated("central character is not psi")
        norm = zeta_sum(1, {0: 0})
        for g in els:
            norm = norm + abs_square(self.character(g))
        if norm != grp.order:
            raise TheoremViolated("character norm is not |H| (not irreducible)")
        return True


def stone_von_neumann(group, psi_unit=1):
    rep = SvNRepresentation(group, psi_unit)
    rep.verify()
    return rep


def check_faithful(rep):
    """rho(h) = identity implies h = 1, by enumeration."""
    for g in rep.group.elements():
        if rep.is_identity_matrix(rep.matrix(g)) and g != rep.group.identity():
            return False
    return True


# -- Heisenberg group of a quadratic datum ----------------------------------------

@dataclass
class DatumHeisenberg:
    kernel: object
    pairing: AlternatingPairing
    group: HeisenbergGroup
    solutions: dict  # kernel element tuple -> additive solution g_k (dict exp -> coeff)


def _datum_scalar_terms(datum):
    """The defining polynomial h(u) of a 1-dimensional G_a-valued datum."""
    if datum.d != 1:
        raise ValueError("the deck construction is one-dimensional")
    if datum.has_witt:
        raise NotImplementedError(
            "the W2-valued p = 2 case is deferred; use G_a-valued data"
        )
    if any(t.kind == "precompose" for t in datum.terms):
        raise ValueError("resolve precompositions before the deck construction")
    return list(datum.terms)


def _beta_poly(terms, emb, k):
    """beta_k(X) = h(X + k) - h(X) - h(k) as {exponent: coefficient} over E."""
    big = emb.big
    p = big.p
    out = {}

    def bump(e, c):
        if c:
            out[e] = out.get(e, big.zero()) + c

    for t in terms:
        if t.kind == "diag":
            a = emb(t.a)
            bump(t.i, a * k)
            bump(0, a * k.frobenius(t.i))
        elif t.kind == "halfsq":
            bump(0, emb(t.a) * k)
        elif t.kind == "aslin":
            continue
        else:
            raise ValueError(f"unsupported term {t.kind} in the deck construction")
    return {e: c for e, c in out.items() if c}


def _solve_additive(beta, big):
    """Unique additive g with g^(p) - g = beta; NoAdditiveSolution otherwise.

    Matching coefficients of X^(p^j) gives the triangular recursion
    c_0 = -b_0, c_j = c_{j-1}^p - b_j, which must terminate with c_top = 0
    (no nonzero additive polynomial satisfies g^(p) = g).
    """
    if not beta:
        return {}
    top = max(beta)
    b = [beta.get(j, big.zero()) for j in range(top + 1)]
    c = [-b[0]]
    for j in range(1, top + 1):
        c.append(c[j - 1].frobenius() - b[j])
    if c[top]:
        raise NoAdditiveSolution("translation is not in the geometric kernel")
    return {j: c[j] for j in range(top) if c[j]}


def _eval_additive(coeffs, x):
    acc = x.field.zero()
    for j, c in coeffs.items():
        acc = acc + c * x.frobenius(j)
    return acc


def _eval_scalar_poly(terms, emb, u):
    big = emb.big
    acc = big.zero()
    half = (big.p + 1) // 2
    for t in terms:
        if t.kind == "diag":
            acc = acc + emb(t.a) * u.frobenius(t.i) * u
        elif t.kind == "halfsq":
            acc = acc + emb(t.a) * half * u * u
        elif t.kind == "aslin":
            acc = acc + emb(t.c) * u
    return acc


def heisenberg_from_datum(datum, sample_limit=12, override=False):
    """The deck-transformation Heisenberg group of an isogeneous datum.

    K = geometric kernel; for k in K the unique additive g_k with
    g_k^(p) - g_k = b(., k) defines e(k, k') = g_k(k') - g_{k'}(k) in F_p.
    The pairing is verified alternating and perfect, the group is built and
    verified, and the construction is cross-validated against explicit deck
    transformations on points of the covering z^p - z = h(u).
    """
    terms = _datum_scalar_terms(datum)
    kernel = geometric_kernel(datum, override=override)
    big = kernel.field
    n = big.m // datum.field.m
    _, emb = extension(datum.field, n)
    p = datum.field.p

    solutions = {}
    for point in kernel.elements:
        k = point[0]
        beta = _beta_poly(terms, emb, k)
        solutions[k.coeffs] = _solve_additive(beta, big)

    ker_scalars = [point[0] for point in kernel.elements]
    ker_scalars.sort(key=lambda e: e.coeffs)
    index_of = {e.coeffs: t for t, e in enumerate(ker_scalars)}

    # e(k, k') = g_k(k') - g_{k'}(k), a prime-subfield constant
    dim = 0
    size = kernel.size
    while size > 1:
        size //= p
        dim += 1
    group = FiniteAbelianGroup((p,) * dim)
    # choose an F_p-basis of the kernel compatible with group indexing
    basis = _fp_basis(ker_scalars, p)
    element_at = {}
    for idx in group.elements():
        tup = group.decode(idx)
        acc = big.zero()
        for c, vec in zip(tup, basis):
            acc = acc + vec * c
        element_at[idx] = acc
    table = []
    for i in group.elements():
        ki = element_at[i]
        gi = solutions[ki.coeffs]
        row = []
        for j in group.elements():
            kj = element_at[j]
            gj = solutions[kj.coeffs]
            val = _eval_additive(gi, kj) - _eval_additive(gj, ki)
            if any(val.coeffs[1:]):
                raise TheoremViolated("deck commutator is not a prime-field constant")
            row.append(val.coeffs[0] % p)
        table.append(row)
    pairing = AlternatingPairing(group, p, table)
    heis = build_group(pairing)

    _validate_deck_maps(terms, emb, element_at, solutions, pairing, sample_limit)
    return DatumHeisenberg(
        kernel=kernel, pairing=pairing, group=heis, solutions=solutions
    )


def _fp_basis(elements, p):
    """An F_p-basis of a subspace given by its full element list."""
    basis = []
    span = {elements[0].field.zero().coeffs}
    for e in elements:
        if e.coeffs in span:
            continue
        basis.append(e)
        new_span = set(span)
        for s in span:
            cur = e.field.element(s)
            for c in range(1, p):
                new_span.add((cur + e * c).coeffs)
        span = new_span
    return basis


def _validate_deck_maps(terms, emb, element_at, solutions, pairing, sample_limit):
    """Cross-check e against explicit deck transformations on covering points.

    For sampled u: g_k(u)^p - g_k(u) must equal h(u+k) - h(u) - h(k) (the lift
    property), and on sampled points (u, z) of z^p - z = h(u) the commutator
    of two deck maps must be the fiber translation by e(k, k').
    """
    big = emb.big
    p = big.p
    h = lambda u: _eval_scalar_poly(terms, emb, u)
    sample_u = list(itertools.islice(big.elements(), sample_limit))
    for idx, k in element_at.items():
        gk = solutions[k.coeffs]
        for u in sample_u:
            lhs = _eval_additive(gk, u)
            if lhs.frobenius() - lhs != h(u + k) - h(u) - h(k):
                raise TheoremViolated("g_k does not lift the translation by k")
    # covering points: z in the base field with z^p - z = h(u)
    points = []
    for u in big.elements():
        target = h(u)
        for z in big.elements():
            if z.frobenius() - z == target:
                points.append((u, z))
                break
        if len(points) >= sample_limit:
            break

    def deck(k, point):
        u, z = point
        return (u + k, z + _eval_additive(solutions[k.coeffs], u))

    items = list(element_at.items())
    for i, ki in items:
        for j, kj in items:
            expected = pairing.value(i, j)
            for pt in points[: max(2, sample_limit // 4)]:
                a = deck(ki, deck(kj, pt))
                b = deck(kj, deck(ki, pt))
                du = a[0] - b[0]
                dz = a[1] - b[1]
                if du or any(dz.coeffs[1:]):
                    raise TheoremViolated("deck commutator moved the base point")
                if dz.coeffs[0] % p != expected:
                    raise TheoremViolated(
                        "deck commutator disagrees with the derived pairing"
                    )
