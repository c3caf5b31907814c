"""Finite Heisenberg groups from alternating perfect pairings, their
Stone-von-Neumann representations, and the bridge from a 1-dimensional
quadratic datum to its deck-transformation Heisenberg group.

A pairing is its Gram matrix on the generators of K, no |K| x |K| table; its
Darboux basis comes from `quadform.orthogonal_split`, which splits the
generators into planes.  Representation matrices are monomial (a permutation
plus phase exponents), so products and characters stay in exact
integer/cyclotomic arithmetic.  They are read off the Darboux coordinates
(alpha(k), beta(k)) of k by the Schroedinger-model formula
rho(a, k) e_lambda = psi(a - sum_i mu_i beta_i(k) eps_i) e_mu with
mu = alpha(k) + lambda, which is the representation induced from A x L'
(see `SvNRepresentation`), with no arithmetic in K.

The pairing's laws, the group law, the commutator, the SvN homomorphism
property and the commutators of deck transformations are checked on (pairs of)
generators of K and H, where bilinearity makes the check a proof for the whole
group; nothing sweeps K x K or S x H.  Darboux coordinates are solved on the
generators of K and filled by one addition per element; no matrix is stored,
and the characters of the |H| elements are computed once, by a matrix only
where one can have a fixed point.  The deck maps of a datum are solved on one
F_p-basis of K only: g^(p) - g = beta_k has one additive solution and beta_k
is additive in k, so k -> g_k is additive, the deck pairing c(k, k') =
g_k(k') - g_k'(k) is biadditive and is its Gram matrix on that basis, and the
lift identity holds on K once it holds on the basis.  Covering points come
from one reduction.  h(u) and beta_k = sum a (k^(p^i) X + k X^(p^i)) are read
off `charsum`'s term plan of the datum, the terms a X^(p^i) X the Gram
evaluator reads.
"""

import itertools
from math import gcd, prod

from .errors import (
    NoAdditiveSolution,
    NonInjectiveCharacter,
    NotAlternating,
    NotPerfect,
    Record,
    TheoremViolated,
    check_cap,
)
from .exactalg import abs_square, zeta_sum
from .fields import AdditivePolynomial, _row_reduce_mod_p, extension
from .quadform import FiniteAbelianGroup, _dot, orthogonal_split

_DECK_SAMPLES = 12  # points u of E at which the deck maps of a datum are checked


class AlternatingPairing:
    """e: K x K -> Z/A, alternating and perfect, as its Gram matrix G[s][t] =
    e(e_s, e_t) on the standard generators: e(x, y) = sum x_s y_t G[s][t] mod
    A.  NotAlternating unless G is well-defined (d_s G[s][t] = d_t G[s][t] = 0
    mod A: e is biadditive) with G[s][s] = 0 = G[s][t] + G[t][s] (e(x, x) = 0
    on K); NotPerfect, with a radical element, unless `orthogonal_split` of the
    generators finds the Darboux basis `basis`."""

    def __init__(self, group, a_modulus, table):
        """From e on every pair of K, in [0, A): G is read off the generator
        rows, and each entry is compared once with the bilinear fill from G."""
        n, k = group.order, len(group.moduli)
        if type(a_modulus) is not int or a_modulus < 1 or not isinstance(table, list) or len(
                table) != n or not all(isinstance(row, list) and len(row) == n and all(
                    type(v) is int and 0 <= v < a_modulus for v in row) for row in table):
            raise ValueError(f"a pairing needs an int a_modulus >= 1 and a table of {n} rows "
                             f"of {n} ints in [0, a_modulus)")
        units = [group.encode([int(s == t) for t in range(k)]) for s in range(k)]
        self._setup(group, a_modulus, [[table[u][v] for v in units] for u in units], table)

    @classmethod
    def from_gram(cls, group, a_modulus, gram):
        """From the k x k Gram matrix on the standard generators, taken mod A."""
        pairing = cls.__new__(cls)
        pairing._setup(group, a_modulus, gram)
        return pairing

    def _setup(self, group, a_modulus, gram, table=None):
        self.group, self.a_modulus = group, a_modulus
        self.gram = [[v % a_modulus for v in row] for row in gram]
        for (s, d), (t, d2) in itertools.product(enumerate(group.moduli), repeat=2):
            v = self.gram[s][t]
            if d * v % a_modulus or d2 * v % a_modulus:
                raise NotAlternating(f"pairing is not well-defined on e_{s}, e_{t}")
            if (s == t and v) or (v + self.gram[t][s]) % a_modulus:
                raise NotAlternating(f"e(x,x) != 0 at some x in <e_{s}, e_{t}>")
        for i in group.elements() if table is not None else ():
            row = [0]  # e(i, .) = -e(., i), each entry an earlier one plus a Gram value
            for d, w in zip(group.moduli, self.covector(group.decode(i))):
                row = [(v - c * w) % a_modulus for c in range(d) for v in row]
            if table[i] != row:
                raise NotAlternating("pairing is not biadditive")
        self.basis = self._darboux()

    def covector(self, y):
        """G y for coordinates y: e(x, y) = sum_s x_s w_s mod A for every x."""
        return [_dot(row, y) for row in self.gram]

    def value(self, i, j):
        return _dot(self.group.decode(i), self.covector(self.group.decode(j))) % self.a_modulus

    def _darboux(self):
        """The Darboux basis from `orthogonal_split` of the generators: dual
        pairs (x_i, y_i, eps_i), element indices with e(x_i, y_j) = delta_ij
        eps_i and isotropic spans.  e is alternating, so every piece is a
        plane <u, v> with eps = e(u, v) of maximal order, and the radical
        element it may meet is the NotPerfect witness.  The q-primary parts
        are orthogonal: pair i is the sum of the i-th pairs of all primes q.
        Tie-break: per prime q, the q-parts of the generators in coordinate
        order (reduced vectors keep their places), the first pair (u before
        v) whose e(u, v) has maximal order.  The pair orders come out
        non-increasing and are basis-free."""
        g, k = self.group, len(self.group.moduli)
        pieces, radical = orthogonal_split(g.moduli, self.a_modulus, self.gram)
        if radical is not None:
            raise NotPerfect(radical)
        columns = {}
        for q, _, (u, v), h in pieces:
            columns.setdefault(q, []).append((u, v, h[0][1]))
        pairs = []
        for column in itertools.zip_longest(*columns.values(), fillvalue=((0,) * k, (0,) * k, 0)):
            xs, ys, eps = zip(*column)
            pairs.append((g.encode(map(sum, zip(*xs))), g.encode(map(sum, zip(*ys))),
                          sum(eps) % self.a_modulus))
        return pairs


class HeisenbergGroup:
    """Elements (a, x) with (a,x)(b,y) = (a + b + c(x,y), x + y).

    The cocycle is bilinear in Darboux coordinates: c(x,y) = sum_i
    alpha_i(x) beta_i(y) eps_i, which makes the commutator reproduce the
    pairing exactly: [(0,x), (0,y)] = (e(x,y), 0).  The constructor checks
    both facts on generators of K (`_check`), on the Darboux basis the
    pairing carries.
    """

    def __init__(self, pairing):
        self.pairing, self.k_group, self.a_modulus = pairing, pairing.group, pairing.a_modulus
        self.basis = pairing.basis
        self.orders = [self.k_group.element_order(x) for x, _, _ in self.basis]
        self._coords = self._coordinate_table()
        self.order = self.a_modulus * self.k_group.order
        self._check()

    def _coordinate_table(self):
        """(alpha(k), beta(k)) for every k: e(e_s, y_i) = alpha_i eps_i and
        e(x_i, e_s) = beta_i eps_i on the standard generators, solved mod o_i
        (NotPerfect unless eps_i has order o_i and A / o_i divides both), then
        entry n = sum_s n_s (alpha(e_s), beta(e_s)) mod o, in index order."""
        g, mod, orders = self.k_group, self.a_modulus, self.orders
        columns = []  # alpha_0 .. alpha_(r-1), beta_0 .. beta_(r-1)
        for side in (1, 0):
            for (*xy, eps), o in zip(self.basis, orders):
                unit, vector = mod // o, g.decode(xy[side])
                values = [(2 * side - 1) * _dot(row, vector) % mod for row in self.pairing.gram]
                if mod % o or any(v % unit for v in values + [eps]) or gcd(eps // unit, o) > 1:
                    raise NotPerfect(f"e(x, y) = {eps} gives no Darboux coordinates mod {o}")
                column = [0]
                for d, v in zip(g.moduli, values):
                    step = v // unit * pow(eps // unit, -1, o)
                    column = [(c + j * step) % o for j in range(d) for c in column]
                columns.append(column)
        r = len(orders)
        return [(row[:r], row[r:]) for row in zip(*columns)] if r else [((), ())] * g.order

    def _check(self):
        """That H is a group with Z(H) = A and [,] = e, on generators of K.

        1. The generator data: eps_i has the order o_i of x_i and y_i (c is
           well-defined mod A), prod o_i^2 = |K|, and on each standard e_s of
           order d_s, d_s (alpha(e_s), beta(e_s)) = 0 mod o (the table is
           additive) and e_s = sum_i alpha_i(e_s) x_i + beta_i(e_s) y_i (the
           pairs are a basis of K, which fixes the coordinates of e_s).  So
           alpha and beta are additive and c(x,y) is bilinear, which makes
           the multiplication associative with identity (0, 0) and inverses
           given by `inverse`.  NotPerfect names the first fact that fails.
        2. [(0,x), (0,y)] = (e(x,y), 0) for generators x, y of K. Both sides
           are biadditive (e by the Gram checks of `AlternatingPairing`, the
           commutator by 1), so they agree on K x K; e is perfect, so
           Z(H) = A.
        """
        g, mod, orders, pairs = self.k_group, self.a_modulus, self.orders, self.basis
        for (x, y, eps), o in zip(pairs, orders):
            if mod % o or eps % (mod // o) or gcd(eps // (mod // o), o) != 1 or not (
                    g.element_order(x) == g.element_order(y) == o):
                raise NotPerfect(f"e(x, y) = {eps} does not have the order {o} of x and y")
        if prod(o * o for o in orders) != g.order:
            raise NotPerfect("the Darboux pairs do not have |K| elements")
        vectors = [(g.decode(x), g.decode(y)) for x, y, _ in pairs]
        for e_s in g.generators():
            alphas, betas = self._coords[e_s]
            if any(g.element_order(e_s) * c % o for c, o in zip(alphas + betas, orders + orders)):
                raise NotPerfect(f"the Darboux coordinates are not additive at {g.decode(e_s)}")
            if g.encode([sum(a * x[t] + b * y[t] for a, b, (x, y) in zip(alphas, betas, vectors))
                         for t in range(len(g.moduli))]) != e_s:
                raise NotPerfect(f"the Darboux pairs do not give {g.decode(e_s)}")
        if any(self.commutator((0, x), (0, y)) != (self.pairing.value(x, y), 0)
               for x, y in itertools.product(g.generators(), repeat=2)):
            raise TheoremViolated("commutator does not reproduce the pairing")

    def cocycle(self, i, j):
        ai, bj = self._coords[i][0], self._coords[j][1]
        return sum(a * b * eps for a, b, (_, _, eps) in zip(ai, bj, self.basis)) % self.a_modulus

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
        return self.multiply(self.multiply(g1, g2), self.inverse(self.multiply(g2, g1)))

    def element_order(self, g):
        o, cur = 1, g
        while cur != self.identity():
            cur = self.multiply(cur, g)
            o += 1
        return o


def build_group(pairing):
    """The Heisenberg group of the pairing, checked by its constructor."""
    return HeisenbergGroup(pairing)


class SvNRepresentation:
    """The Stone-von Neumann representation of H with central character psi,
    in the Schroedinger model on the Darboux coordinates: with (alpha(k),
    beta(k)) the coordinates of k and o_i the orders of the pairs,

        rho(a, k) e_lambda = psi(a - sum_i mu_i beta_i(k) eps_i) e_mu,
        mu = alpha(k) + lambda mod o,

    on the basis e_lambda, lambda in prod Z/o_i, e_mu at the mixed-radix index
    of mu (the last coordinate fastest).  This is the representation induced
    from psi on A x L', L' = <y_i>, extended by 1 on L': e_lambda is the coset
    of (0, l), l = sum lambda_i x_i in L, and (a, k)(0, l) = (0, l'')(b, m)
    with k + l = l'' + m, l'' in L and m in L', b = a + c(k, l) - c(l'', m).
    beta vanishes on L and alpha on L', so alpha(l'') = mu, beta(m) = beta(k),
    c(k, l) = 0 and c(l'', m) = sum_i mu_i beta_i(k) eps_i.

    Matrices are monomial, (row permutation, phase exponents), built on
    demand from the coordinates of k (no K arithmetic) and not stored; the
    |H| characters, their traces, are computed once and read by the norm
    check of the constructor (`_check`), `check_faithful` and `character`.
    """

    def __init__(self, group, psi_unit=1):
        mod = group.a_modulus
        if type(psi_unit) is not int:
            raise ValueError(f"psi_unit must be an integer, got {psi_unit!r}")
        if gcd(psi_unit, mod) != 1:
            raise NonInjectiveCharacter(f"psi(1) = zeta^{psi_unit} is not primitive")
        self.group = group
        self.psi_unit = psi_unit % mod
        self.mod = mod
        self.dim = prod(group.orders)
        self._characters = self._traced = None
        self._check()

    def matrix(self, g):
        """(perm, exps): column lambda maps to row perm[lambda] with phase exps[lambda]."""
        grp = self.group
        a, k = g
        alphas, betas = grp._coords[k]
        perm, phases = [0], [a]
        for o, alpha, beta, (_, _, eps) in zip(grp.orders, alphas, betas, grp.basis):
            mus = [(alpha + lam) % o for lam in range(o)]
            perm = [t * o + mu for t in perm for mu in mus]
            phases = [b - mu * beta * eps for b in phases for mu in mus]
        return (tuple(perm), tuple(self.psi_unit * b % self.mod for b in phases))

    def compose(self, m1, m2):
        """Matrix product of monomial matrices (m1 applied after m2)."""
        perm1, exps1 = m1
        perm2, exps2 = m2
        perm = tuple(perm1[perm2[t]] for t in range(self.dim))
        exps = tuple((exps2[t] + exps1[perm2[t]]) % self.mod for t in range(self.dim))
        return (perm, exps)

    def characters(self):
        """The trace of rho(g) for every g, in `group.elements()` order.  T(alpha)
        moves every e_lambda unless alpha(k) = 0 mod o, decided once per k, so
        only the g = (a, k) with such a k have a matrix built, their indices
        kept in `_traced`: the others have no fixed column and share the trace
        0."""
        if self._characters is None:
            grp, n = self.group, self.group.k_group.order
            unmoved = [k for k, (alphas, _) in enumerate(grp._coords)
                       if not any(alpha % o for alpha, o in zip(alphas, grp.orders))]
            self._traced = [a * n + k for a in range(grp.a_modulus) for k in unmoved]
            self._characters = [zeta_sum(self.mod, {})] * grp.order
            for i in self._traced:
                perm, exps = self.matrix(divmod(i, n))
                fixed = [exps[t] for t in range(self.dim) if perm[t] == t]
                self._characters[i] = zeta_sum(self.mod, {e: fixed.count(e) for e in set(fixed)})
        return self._characters

    def character(self, g):
        return self.characters()[g[0] % self.mod * self.group.k_group.order + g[1]]

    def _check(self):
        """Homomorphism on generator pairs, central character, exact irreducibility.

        rho(a, k) = psi(a) M(beta(k)) T(alpha(k)), T(alpha) e_lambda =
        e_(lambda + alpha) and M(beta) e_mu = psi(-sum_i mu_i beta_i eps_i)
        e_mu, homomorphisms of prod Z/o_i with T(alpha) M(beta') =
        psi(sum_i alpha_i beta'_i eps_i) M(beta') T(alpha).  So rho(a, k)
        rho(b, k') = psi(a + b + sum_i alpha_i(k) beta_i(k') eps_i) M(beta(k)
        + beta(k')) T(alpha(k) + alpha(k')) = rho((a, k)(b, k')): the cocycle
        identity in coordinates, whose hypotheses (o_i eps_i = 0 mod A, alpha
        and beta additive) the group's constructor checked on generators of
        K.  Left to check: `matrix` and `compose` compute these products,
        rho(s t) = rho(s) rho(t) for s, t in S = {(1,0)} u {(0,g) : g a
        generator of K}; rho((a, 0)) = psi(a); sum |chi|^2 = |H|.
        """
        grp = self.group
        gens = {s: self.matrix(s) for s in [(1, 0)] + [(0, g) for g in grp.k_group.generators()]}
        for (s, ms), (t, mt) in itertools.product(gens.items(), repeat=2):
            if self.matrix(grp.multiply(s, t)) != self.compose(ms, mt):
                raise TheoremViolated("representation is not a homomorphism")
        one = tuple(range(self.dim))
        if any(self.matrix((a, 0)) != (one, (self.psi_unit * a % self.mod,) * self.dim)
               for a in range(grp.a_modulus)):
            raise TheoremViolated("central character is not psi")
        chars = self.characters()
        if sum((abs_square(chars[i]) for i in self._traced if not chars[i].is_zero()),
               zeta_sum(1, {})) != grp.order:
            raise TheoremViolated("character norm is not |H| (not irreducible)")


def stone_von_neumann(group, psi_unit=1):
    """The SvN representation of the group, checked by its constructor."""
    return SvNRepresentation(group, psi_unit)


def check_faithful(rep):
    """rho(h) = 1 implies h = 1, read off the characters: a monomial matrix
    with root-of-unity phases has trace dim only when it is the identity.
    Only the traces built from a matrix are compared; the shared 0 of the
    rest never equals dim >= 1.  The identity (0, 0) has index 0."""
    chars = rep.characters()
    return all(chars[i] != rep.dim or i == 0 for i in rep._traced)


# -- Heisenberg group of a quadratic datum ----------------------------------------

class DatumHeisenberg(Record):
    kernel: object
    pairing: AlternatingPairing
    group: HeisenbergGroup
    solutions: list  # g_s with g_s^(p) - g_s = beta_s for s in kernel.basis, in its order


def _check_deck_datum(datum):
    """Refuse, before any kernel is computed or capped, a datum the deck
    construction does not cover: it is 1-dimensional and G_a-valued.  Cross
    terms and precompositions need no check: the construction reads them as
    entries of the term plan."""
    if datum.d != 1:
        raise ValueError("the deck construction is one-dimensional")
    if datum.has_witt:
        raise ValueError("the W2-valued p = 2 case is deferred; use G_a-valued data")


def _beta_poly(cross, k):
    """beta_k(X) = h(X + k) - h(X) - h(k) = sum a (k^(p^i) X + k X^(p^i)) over
    the terms a X^(p^i) X of the plan's `cross`, an additive polynomial over E."""
    out = {}
    zero = k.field.zero()
    for _, _, i, a in cross:
        out[0] = out.get(0, zero) + a * k.frobenius(i)
        out[i] = out.get(i, zero) + a * k
    return AdditivePolynomial(k.field, out)


def _solve_additive(beta, big):
    """Unique additive g with g^(p) - g = beta; NoAdditiveSolution otherwise.

    Matching coefficients of X^(p^j) gives the triangular recursion
    c_0 = -b_0, c_j = c_{j-1}^p - b_j, which must terminate with c_top = 0
    (no nonzero additive polynomial satisfies g^(p) = g).
    """
    if beta.is_zero():
        return beta
    top = beta.top_exponent()
    b = [beta.coeffs.get(j, big.zero()) for j in range(top + 1)]
    c = [-b[0]]
    for j in range(1, top + 1):
        c.append(c[j - 1].frobenius() - b[j])
    if c[top]:
        raise NoAdditiveSolution("translation is not in the geometric kernel")
    return AdditivePolynomial(big, {j: c[j] for j in range(top)})


def heisenberg_from_datum(datum, override=False):
    """The deck-transformation Heisenberg group of an isogeneous datum: any
    1-dimensional G_a-valued one, cross terms and precompositions included,
    since h is read off its term plan, where precompositions are resolved
    (`_check_deck_datum` refuses d != 1 and Witt terms).

    K = geometric kernel; for k in K the unique additive g_k with
    g_k^(p) - g_k = beta_k, beta_k(X) = h(X + k) - h(X) - h(k), defines
    e(k, k') = g_k(k') - g_{k'}(k) in F_p.  beta_k is additive in k, so
    sum_s lambda_s(k) g_s, summed over the F_p-basis s of K, is an additive
    solution for beta_k, hence g_k: g is solved on the dim basis vectors only,
    and k -> g_k is additive.  Each g_k is additive too, so e is biadditive
    and is its Gram matrix on the basis: those dim^2 values are evaluated,
    checked to be F_p constants, and checked alternating and perfect.  The
    group is built and verified, and cross-validated against explicit deck
    transformations on points of the covering z^p - z = h(u).  The cap
    counts the largest structure built downstream, the SvN character table:
    |H| = p |K| entries.
    """
    from .charsum import _term_plan, geometric_kernel

    _check_deck_datum(datum)
    p = datum.field.p
    kernel = geometric_kernel(datum, override=override)
    check_cap(p * kernel.size, override, "SvN character table")
    big = kernel.field
    _, emb = extension(datum.field, big.m // datum.field.m, override)
    plan = _term_plan(datum, emb)

    basis = [point[0] for point in kernel.basis]  # basis[t] is generator t of (Z/p)^dim
    solutions = [_solve_additive(_beta_poly(plan[0], k), big) for k in basis]

    def pair_value(s, t):
        val = solutions[s].evaluate(basis[t]) - solutions[t].evaluate(basis[s])
        if any(val.coeffs[1:]):
            raise TheoremViolated("deck commutator is not a prime-field constant")
        return val.coeffs[0]

    dim = len(basis)
    gram = [[pair_value(s, t) for t in range(dim)] for s in range(dim)]
    pairing = AlternatingPairing.from_gram(FiniteAbelianGroup((p,) * dim), p, gram)
    heis = build_group(pairing)

    _validate_deck_maps(plan, big, basis, solutions, pairing, _DECK_SAMPLES)
    return DatumHeisenberg(kernel=kernel, pairing=pairing, group=heis, solutions=solutions)


def _validate_deck_maps(plan, big, basis, solutions, pairing, samples):
    """Cross-check e against explicit deck transformations, on the F_p-basis
    of K with g_s = solutions[t] for s = basis[t] and h(u) the G_a value of
    the datum's term plan over E: the formal lift identity
    g_s^(p) - g_s = beta_s as additive polynomials, the lift property
    g_s(u)^p - g_s(u) = h(u+s) - h(u) - h(s) at sampled u (which checks
    `_beta_poly` against h), then `_check_deck_commutators` on points of the
    covering z^p - z = h(u).

    The basis proves the formal identity for every k: g_k = sum_s lambda_s(k)
    g_s by definition, and both sides are additive in k (beta_k for every
    entry of the plan alike).  The formal identity sees what the samples
    cannot: g_s + phi with phi vanishing at every sampled u."""
    from .charsum import _ga_value

    cross, linear, _ = plan
    h = lambda u: _ga_value(cross, linear, (u,), big.zero())
    sample = [(u, h(u)) for u in itertools.islice(big.elements(), samples)]
    for k, gk in zip(basis, solutions):
        if gk.twist(1) + gk.scale(-1) != _beta_poly(cross, k):
            raise TheoremViolated("g_k^(p) - g_k is not beta_k")
        hk = h(k)
        for u, hu in sample:
            lhs = gk.evaluate(u)
            if lhs.frobenius() - lhs != h(u + k) - hu - hk:
                raise TheoremViolated("g_k does not lift the translation by k")
    points = _covering_points(big, h, max(2, samples // 4))
    _check_deck_commutators(basis, solutions, pairing, points)


def _covering_points(big, h, limit):
    """Points (u, z) of z^p - z = h(u) for u in enumeration order, until
    `limit` are found.  z -> z^p - z, F_p-linear with kernel F_p, has matrix A
    on the power basis; [A | I] is reduced once to [R | T], R = T A: h(u) is
    an image iff T h(u) is 0 on R's zero rows, and z, read off the pivot rows
    with the constant (free) coordinate 0, is the coset's first z."""
    p, m = big.p, big.m
    columns = [(x.frobenius() - x).coeffs for x in big._power_basis]
    rows, pivots = _row_reduce_mod_p(
        [row + tuple(int(s == t) for s in range(m)) for t, row in enumerate(zip(*columns))], p)
    solved = [(c, rows[r][m:]) for c, r in pivots.items() if c < m]
    cokernel = [row[m:] for row in rows[len(solved):]]
    points = []
    for u in big.elements():
        hu = h(u).coeffs
        if not any(_dot(row, hu) % p for row in cokernel):  # h(u) is in the image
            z = [0] * m
            for c, row in solved:
                z[c] = _dot(row, hu) % p
            points.append((u, big.element(z)))
        if len(points) >= limit:
            break
    return points


def _check_deck_commutators(basis, solutions, pairing, points):
    """Deck maps d_k(u, z) = (u + k, z + g_k(u)) commute up to the fiber
    translation by e(k, k') for all k, k' in K; checked on basis pairs.

    Each g_k is additive, so [d_k, d_k'] moves every point (u, z) by (0,
    c(k, k')), c(k, k') = g_k(k') - g_k'(k); k -> g_k is additive (see
    `heisenberg_from_datum`), so c is biadditive.  c = e on basis pairs, read
    off the deck maps of g_s = solutions[t] for s = basis[t]; e is biadditive
    (its Gram matrix passed the checks of `AlternatingPairing`), so c = e on
    K x K.
    """
    def deck(i, point):
        u, z = point
        return (u + basis[i], z + solutions[i].evaluate(u))

    moved = [[deck(i, pt) for pt in points] for i in range(len(basis))]
    for i, j in itertools.product(range(len(basis)), repeat=2):
        for di, dj in zip(moved[i], moved[j]):
            (u1, z1), (u2, z2) = deck(i, dj), deck(j, di)
            if u1 != u2 or any((z1 - z2).coeffs[1:]):
                raise TheoremViolated("deck commutator moved the base point")
            if (z1 - z2).coeffs[0] % pairing.a_modulus != pairing.gram[i][j]:
                raise TheoremViolated("deck commutator disagrees with the derived pairing")
