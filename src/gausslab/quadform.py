"""Quadratic forms on finite abelian groups and their Gauss sums.

A form stores only its total value table: in full generality no homogeneity
Q(nx) = Q(x)^(n^2) is assumed, so tables are the only faithful representation.
All values are roots of unity of order dividing exponent(M)^2, so internally a
form keeps integer exponents modulo its working cyclotomic order; exact
CyclotomicNumber objects are materialized only for assembled sums.
"""

import random
from functools import cached_property
from math import gcd, lcm, prod

from .errors import (
    CharacterNotInImage,
    ConstructionFailed,
    NotElementaryTwoGroup,
    NotQuadratic,
    TheoremViolated,
)
from .exactalg import CyclotomicNumber, abs_square, is_root_of_unity, zeta, zeta_sum
from .fields import is_prime


class FiniteAbelianGroup:
    """Direct sum of Z/d_i with elements indexed 0..order-1 (mixed radix)."""

    def __init__(self, moduli):
        moduli = tuple(int(d) for d in moduli)
        if any(d < 1 for d in moduli):
            raise ValueError("moduli must be >= 1")
        self.moduli = moduli
        self.order = prod(moduli) if moduli else 1
        self.exponent = lcm(*moduli) if moduli else 1

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.moduli)})"

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    # index <-> tuple, little-endian mixed radix
    def decode(self, idx):
        out = []
        for d in self.moduli:
            idx, r = divmod(idx, d)
            out.append(r)
        return tuple(out)

    def encode(self, tup):
        idx = 0
        for d, c in zip(reversed(self.moduli), reversed([t % d for t, d in zip(tup, self.moduli)])):
            idx = idx * d + c
        return idx

    def elements(self):
        return range(self.order)

    def tuples(self):
        for idx in range(self.order):
            yield self.decode(idx)

    def add(self, i, j):
        a, b = self.decode(i), self.decode(j)
        return self.encode(tuple(x + y for x, y in zip(a, b)))

    def neg(self, i):
        return self.encode(tuple(-x for x in self.decode(i)))

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def scalar(self, n, i):
        return self.encode(tuple(n * x for x in self.decode(i)))

    def zero(self):
        return 0

    def generators(self):
        """Indices of the standard generators e_i."""
        out = []
        for k, d in enumerate(self.moduli):
            if d > 1:
                out.append(self.encode(tuple(1 if t == k else 0 for t in range(len(self.moduli)))))
        return out

    def element_order(self, i):
        tup = self.decode(i)
        return lcm(*(d // gcd(d, c) for d, c in zip(self.moduli, tup))) if tup else 1

    def translation(self, a):
        """[a + x for x in elements()], built one coordinate at a time."""
        out, stride = [0], 1
        for d, c in zip(self.moduli, self.decode(a)):
            out = [s + stride * ((c + v) % d) for v in range(d) for s in out]
            stride *= d
        return out

    def addition_table(self):
        """order x order table of index sums, for the recursive oracle: row i
        is row (i - e_t) translated by e_t, t the lowest nonzero coordinate."""
        shifts = {g: self.translation(g) for g in self.generators()}
        table = [list(range(self.order))]
        for i in range(1, self.order):
            g = max(g for g in shifts if i % g == 0)  # e_t is the largest such g
            table.append([shifts[g][x] for x in table[i - g]])
        return table


class BilinearPairing:
    """B(x, y) = Q(x+y) - Q(x) - Q(y) mod N of a value table Q, computed when
    asked; bilinearity and the radical are decided on the k generators, O(|M| k^2)."""

    def __init__(self, group, value_order, exponents):
        self.group = group
        self.value_order = value_order
        self._q = exponents

    def exponent(self, i, j):
        return (self._q[self.group.add(i, j)] - self._q[i] - self._q[j]) % self.value_order

    def value(self, i, j):
        return zeta(self.value_order, self.exponent(i, j))

    def row(self, i):
        q, n = self._q, self.value_order
        return [(q[s] - q[i] - q[y]) % n for y, s in enumerate(self.group.translation(i))]

    @cached_property
    def witness(self):
        """Decoded (x, g, h), g and h generators, with B(x+g, h) != B(x, h) +
        B(g, h); None proves B bilinear.  Proof: each B(-, h) is then additive
        against generators, hence additive; B is symmetric, and the cocycle
        identity B(x,y) + B(x+y,h) = B(y,h) + B(x,y+h) gives B(x, y+h) =
        B(x, y) + B(x, h), so each B(x, -) is additive too.  Q(0) = 1, which
        x = 0 forces when M has generators, is checked first."""
        decode = self.group.decode
        if self._q[0]:
            return (decode(0),) * 3
        rows = [(h, self.row(h)) for h in self.group.generators()]
        for g, _ in rows:
            shift = self.group.translation(g)
            for h, row in rows:
                for x, xg in enumerate(shift):
                    if (row[xg] - row[x] - row[g]) % self.value_order:
                        return (decode(x), decode(g), decode(h))
        return None

    def radical(self):
        """{x : B(x, g) = 0 for all generators g}; NotQuadratic unless bilinear."""
        if self.witness is not None:
            raise NotQuadratic(self.witness)
        rows = [self.row(g) for g in self.group.generators()]
        return [x for x in self.group.elements() if not any(row[x] for row in rows)]

    def is_perfect(self):
        return len(self.radical()) == 1


class QuadraticForm:
    """A map Q: M -> roots of unity with biadditive symmetrized difference.

    The derived pairing B_Q(x,y) = Q(x+y)Q(x)^{-1}Q(y)^{-1} is computed from
    the value table when asked; its radical raises NotQuadratic if B_Q is not.
    """

    def __init__(self, group, value_order, exponents):
        if len(exponents) != group.order:
            raise ValueError("value table must be total on the group")
        self.group = group
        self.value_order = value_order
        self.exponents = list(int(e) % value_order for e in exponents)
        self.pairing = BilinearPairing(group, value_order, self.exponents)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def trivial(group):
        return QuadraticForm(group, 1, [0] * group.order)

    def __repr__(self):
        return f"QuadraticForm({self.group!r}, order {self.value_order})"

    # -- values ---------------------------------------------------------------

    def value(self, i):
        return zeta(self.value_order, self.exponents[i])

    # -- structure --------------------------------------------------------------

    def is_quadratic(self, raise_on_failure=False):
        """Bilinearity of B_Q, checked once on generators by `pairing.witness`."""
        witness = self.pairing.witness
        if witness is not None and raise_on_failure:
            raise NotQuadratic(witness)
        return witness is None

    def radical(self):
        return self.pairing.radical()

    def is_nondegenerate(self):
        return self.pairing.is_perfect()

    def gauss_sum(self):
        hist = {}
        for e in self.exponents:
            hist[e] = hist.get(e, 0) + 1
        return zeta_sum(self.value_order, hist)

    def verify_gauss_sum_theorem(self):
        """Certify tau * conj(tau) = |M| and tau^2/|M| a root of unity.

        Returns the order of the root of unity; reaching TheoremViolated means
        a bug, not new mathematics.
        """
        tau = self.gauss_sum()
        if abs_square(tau) != self.group.order:
            raise TheoremViolated(f"|tau|^2 != |M| for {self!r}")
        ratio = tau * tau / self.group.order
        order = is_root_of_unity(ratio)
        if order is None:
            raise TheoremViolated(f"tau^2/|M| not a root of unity for {self!r}")
        return order

    # -- twists -------------------------------------------------------------------

    def character_of_element(self, a):
        """The character chi = B(a, -) as an exponent table."""
        return self.pairing.row(a)

    def twist(self, chi_exponents):
        """The form x -> Q(x) * chi(x) for a character given by exponents mod N."""
        exps = [
            (self.exponents[i] + chi_exponents[i]) % self.value_order
            for i in range(self.group.order)
        ]
        return QuadraticForm(self.group, self.value_order, exps)

    def solve_character(self, chi_exponents):
        """Find a with B(a, -) = chi; CharacterNotInImage when degenerate."""
        for a in self.group.elements():
            if self.pairing.row(a) == list(chi_exponents):
                return a
        raise CharacterNotInImage("character is not of the form B(a, -)")

    def twist_gauss_identity(self, chi_exponents):
        """Verify tau_{Q chi} = Q(a)^{-1} tau_Q for chi = B(a, -); returns a."""
        a = self.solve_character(chi_exponents)
        lhs = self.twist(chi_exponents).gauss_sum()
        rhs = zeta(self.value_order, -self.exponents[a]) * self.gauss_sum()
        if lhs != rhs:
            raise TheoremViolated("twist identity failed (bug detector)")
        return a

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        """Spec shape: values are serialized cyclotomic numbers."""
        return {
            "invariant_factors": list(self.group.moduli),
            "value_order": self.value_order,
            "values": {
                ",".join(map(str, self.group.decode(i))): self.value(i).to_json()
                for i in range(self.group.order)
            },
        }

    @staticmethod
    def from_json(obj):
        """Parse the spec shape; ValueError unless each element of the group
        has exactly one key, written with coordinates 0 <= c_i < d_i."""
        group = FiniteAbelianGroup(obj["invariant_factors"])
        n = obj["value_order"]
        table = None  # built on the first serialized cyclotomic value
        exps = [None] * group.order
        for key, val in obj["values"].items():
            tup = tuple(int(t) for t in key.split(",")) if key else ()
            if len(tup) != len(group.moduli) or not all(
                0 <= c < d for c, d in zip(tup, group.moduli)
            ):
                raise ValueError(f"value key {key!r} is not an element of {group!r}")
            idx = group.encode(tup)
            if exps[idx] is not None:
                raise ValueError(f"element {tup} has more than one value")
            if isinstance(val, int):
                exps[idx] = val
            else:
                if table is None:
                    table = _exponent_table(n)
                z = CyclotomicNumber.from_json(val).embed(n)
                exps[idx] = table[z.coeffs]
        if None in exps:
            raise ValueError(f"no value for element {group.decode(exps.index(None))}")
        return QuadraticForm(group, n, exps)


def _exponent_table(order):
    """coeff-tuple -> k lookup for the roots of unity zeta(order, k)."""
    return {zeta(order, k).coeffs: k for k in range(order)}


# -- the recursive evaluation from the Gauss-sum theorem's proof ----------------

def recursive_gauss_eval(form):
    """Evaluate tau_Q by the inductive proof of the Gauss-sum theorem.

    Pick the least x of prime order: if B(x,x) != 1, split off <x> and recurse
    on its orthogonal complement; otherwise untwist so Q vanishes on <x> and
    descend to <x>-perp / <x> with multiplier |<x>|.  Base case |M| prime is a
    direct sum over the cyclic group.  Serves as an independent oracle for the
    one-shot summation path.
    """
    if not form.is_nondegenerate():
        raise ValueError("recursive evaluation requires a non-degenerate form")
    return _table_recursive_tau(form.group.addition_table(), form.exponents, form.value_order)


def _hist(items):
    out = {}
    for k in items:
        out[k] = out.get(k, 0) + 1
    return out


def _table_recursive_tau(add, exps, n_val):
    """The same recursion on an abstract (addition table, exponent) datum."""
    n = len(exps)
    if n == 1:
        return zeta(n_val, exps[0])
    b = [
        [(exps[add[i][j]] - exps[i] - exps[j]) % n_val for j in range(n)]
        for i in range(n)
    ]
    # element orders through the table
    def order_of(i):
        o, cur = 1, i
        while cur != 0:
            cur = add[cur][i]
            o += 1
        return o

    x = None
    for i in range(1, n):
        if is_prime(order_of(i)):
            x = i
            break
    if x is None:
        raise TheoremViolated("a nontrivial finite group has an element of prime order")
    p = order_of(x)
    cyclic = [0]
    cur = x
    while cur != 0:
        cyclic.append(cur)
        cur = add[cur][x]
    comp = [i for i in range(n) if b[x][i] == 0]
    if b[x][x]:
        tau_x = zeta_sum(n_val, _hist(exps[c] for c in cyclic))
        sub = _restrict_table(add, exps, comp)
        return tau_x * _table_recursive_tau(sub[0], sub[1], n_val)
    target = exps[x]
    a = None
    for cand in range(n):
        if b[cand][x] == target:
            a = cand
            break
    if a is None:
        raise TheoremViolated("non-degeneracy realizes the character B(-, x) = Q(x)")
    shifted = [(exps[i] - b[a][i]) % n_val for i in range(n)]
    if any(shifted[c] for c in cyclic):
        raise TheoremViolated("the untwisted form does not vanish on <x>")
    cyc_set = set(cyclic)
    reps, covered = [], set()
    for i in comp:
        if i in covered:
            continue
        reps.append(i)
        for c in cyclic:
            covered.add(add[i][c])
    proj = {}
    for r in reps:
        for c in cyclic:
            proj[add[r][c]] = r
    rep_index = {r: t for t, r in enumerate(reps)}
    qadd = [[rep_index[proj[add[r1][r2]]] for r2 in reps] for r1 in reps]
    qexps = [shifted[r] for r in reps]
    neg_a = None
    for cand in range(n):
        if add[a][cand] == 0:
            neg_a = cand
            break
    correction = zeta(n_val, exps[neg_a])
    return correction * p * _table_recursive_tau(qadd, qexps, n_val)


def _restrict_table(add, exps, elements):
    elements = sorted(elements)
    index = {e: t for t, e in enumerate(elements)}
    sub_add = [[index[add[i][j]] for j in elements] for i in elements]
    sub_exps = [exps[i] for i in elements]
    return sub_add, sub_exps


# -- char-2 invariant ------------------------------------------------------------

def char2_invariant(form):
    """On an elementary 2-group: the canonical a with B(v,v) = B(v,a) and the
    exact identity tau^2 = Q(a)|M|.  Returns (a_tuple, tau, Q(a))."""
    if any(d != 2 for d in form.group.moduli):
        raise NotElementaryTwoGroup(f"moduli {form.group.moduli} are not all 2")
    if not form.is_nondegenerate():
        raise ValueError("the canonical element needs a non-degenerate form")
    # v -> B(v, v) is additive here, so B(-, a) matches it on generators
    rows = [(g, form.pairing.row(g)) for g in form.group.generators()]
    a = next(
        (c for c in form.group.elements() if all(row[c] == row[g] for g, row in rows)),
        None,
    )
    if a is None:
        raise TheoremViolated("non-degeneracy realizes the diagonal character")
    tau = form.gauss_sum()
    qa = form.value(a)
    if tau * tau != qa * form.group.order:
        raise TheoremViolated("tau^2 != Q(a)|M| on an elementary 2-group")
    return form.group.decode(a), tau, qa


# -- degenerate descent ------------------------------------------------------------

def radical_descent(form):
    """Structure of tau_Q for a possibly degenerate form.

    Returns ("zero",) when Q restricted to the radical is a nontrivial
    character (then tau_Q = 0, verified), or ("descends", |radical|, tau_bar)
    with tau_Q = |radical| * tau_bar for the descended form (verified).
    """
    rad = form.radical()
    n_val = form.value_order
    q = form.exponents
    nontrivial = any(q[r] % n_val for r in rad)
    tau = form.gauss_sum()
    if nontrivial:
        if not tau.is_zero():
            raise TheoremViolated("tau must vanish when Q|radical is nontrivial")
        return ("zero",)
    reps, covered = [], set()
    for i in form.group.elements():
        if i in covered:
            continue
        reps.append(i)
        for r in rad:
            covered.add(form.group.add(i, r))
    hist = _hist(q[i] for i in reps)
    tau_bar = zeta_sum(n_val, hist)
    if tau != len(rad) * tau_bar:
        raise TheoremViolated("tau != |radical| * tau_bar in the descent")
    return ("descends", len(rad), tau_bar)


# -- deterministic pseudorandom non-degenerate forms --------------------------------

def random_nondegenerate(group, seed, max_tries=60):
    """Deterministic pseudorandom non-degenerate form on the group.

    Gram data on the standard generators is drawn at random, a compatible Q is
    extended through the cocycle rule Q(x+y) = Q(x)Q(y)B(x,y), then the result
    is twisted by a random character.  The output is verified quadratic and
    non-degenerate; pathological draws are retried.
    """
    if group.order == 1:
        return QuadraticForm.trivial(group)
    rng = random.Random(seed)
    n_val = group.exponent**2
    gens = group.generators()
    mods = [group.element_order(g) for g in gens]
    k = len(gens)
    for _ in range(max_tries):
        # symmetric Gram matrix of pairing exponents: B(e_i,e_j) killed by
        # gcd(d_i, d_j)
        bmat = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                g = gcd(mods[i], mods[j])
                val = (n_val // g) * rng.randrange(g)
                bmat[i][j] = bmat[j][i] = val
        # unit diagonal-ish kick to help non-degeneracy
        for i in range(k):
            unit = rng.choice([u for u in range(1, mods[i] + 1) if gcd(u, mods[i]) == 1])
            if rng.random() < 0.9:
                bmat[i][i] = (n_val // mods[i]) * unit % n_val
        # Q on generators subject to the wrap constraint
        # d_i * q_i + b_ii * d_i(d_i-1)/2 = 0 mod n_val
        qgen = []
        ok = True
        for i in range(k):
            d = mods[i]
            c = (-bmat[i][i] * (d * (d - 1) // 2)) % n_val
            if c % d:
                ok = False
                break
            qgen.append((c // d + (n_val // d) * rng.randrange(d)) % n_val)
        if not ok:
            continue
        exps = [0] * group.order
        for idx in group.elements():
            tup = group.decode(idx)
            coords = [tup[t] for t, dd in enumerate(group.moduli) if dd > 1]
            e = 0
            for i, ci in enumerate(coords):
                # Q(c*e_i) = c*q_i + b_ii * c(c-1)/2
                e += ci * qgen[i] + bmat[i][i] * (ci * (ci - 1) // 2)
                for j in range(i + 1, k):
                    e += ci * coords[j] * bmat[i][j]
            exps[idx] = e % n_val
        form = QuadraticForm(group, n_val, exps)
        if not form.is_quadratic():
            continue
        # random character twist
        chi = [0] * group.order
        tw = [(n_val // mods[i]) * rng.randrange(mods[i]) for i in range(k)]
        for idx in group.elements():
            tup = group.decode(idx)
            coords = [tup[t] for t, dd in enumerate(group.moduli) if dd > 1]
            chi[idx] = sum(c * t for c, t in zip(coords, tw)) % n_val
        form = form.twist(chi)
        if form.is_quadratic() and form.is_nondegenerate():
            return form
    raise ConstructionFailed(
        f"no non-degenerate form found on {group!r} after {max_tries} tries"
    )
