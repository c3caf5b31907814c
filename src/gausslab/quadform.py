"""Quadratic forms on finite abelian groups and their Gauss sums.

A form is stored as a total value table: in full generality no homogeneity
Q(nx) = Q(x)^(n^2) is assumed, so tables are the only faithful representation.
All values are roots of unity of order dividing exponent(M)^2, so internally a
form keeps integer exponents modulo its working cyclotomic order; exact
CyclotomicNumber objects are materialized only for assembled sums.
"""

import random
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

    def addition_table(self):
        """order x order table of index sums (built once, for hot loops)."""
        tuples = [self.decode(i) for i in range(self.order)]
        table = []
        for a in tuples:
            row = []
            for b in tuples:
                row.append(self.encode(tuple(x + y for x, y in zip(a, b))))
            table.append(row)
        return table


class BilinearPairing:
    """A bimultiplicative table M x M -> mu_N, stored as exponents mod N."""

    def __init__(self, group, value_order, table):
        self.group = group
        self.value_order = value_order
        self.table = table  # list of lists of ints mod value_order

    def exponent(self, i, j):
        return self.table[i][j]

    def value(self, i, j):
        return zeta(self.value_order, self.table[i][j])

    def radical(self):
        return [i for i in self.group.elements() if not any(self.table[i])]

    def is_perfect(self):
        return len(self.radical()) == 1


class QuadraticForm:
    """A map Q: M -> roots of unity with biadditive symmetrized difference.

    The derived pairing B_Q(x,y) = Q(x+y)Q(x)^{-1}Q(y)^{-1} is computed eagerly
    at construction.
    """

    def __init__(self, group, value_order, exponents, _add_table=None):
        if len(exponents) != group.order:
            raise ValueError("value table must be total on the group")
        self.group = group
        self.value_order = value_order
        self.exponents = list(int(e) % value_order for e in exponents)
        self._add = _add_table if _add_table is not None else group.addition_table()
        n = group.order
        q = self.exponents
        self.pairing = BilinearPairing(
            group,
            value_order,
            [
                [(q[self._add[i][j]] - q[i] - q[j]) % value_order for j in range(n)]
                for i in range(n)
            ],
        )

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def trivial(group):
        return QuadraticForm(group, 1, [0] * group.order)

    def __repr__(self):
        return f"QuadraticForm({self.group!r}, order {self.value_order})"

    # -- values ---------------------------------------------------------------

    def exponent(self, i):
        return self.exponents[i]

    def value(self, i):
        return zeta(self.value_order, self.exponents[i])

    def value_at(self, tup):
        return self.value(self.group.encode(tup))

    # -- structure --------------------------------------------------------------

    def is_quadratic(self, raise_on_failure=False):
        """Exhaustive bilinearity of B_Q (additivity against generators).

        B(x+g, y) = B(x,y) + B(g,y) for every generator g and all x, y implies
        additivity in the first slot; symmetry is automatic from the formula.
        """
        n = self.group.order
        b = self.pairing.table
        add = self._add
        for g in self.group.generators():
            for i in range(n):
                ig = add[i][g]
                row_ig, row_i, row_g = b[ig], b[i], b[g]
                for j in range(n):
                    if (row_i[j] + row_g[j] - row_ig[j]) % self.value_order:
                        if raise_on_failure:
                            witness = (
                                self.group.decode(i),
                                self.group.decode(g),
                                self.group.decode(j),
                            )
                            raise NotQuadratic(witness)
                        return False
        return True

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
        return list(self.pairing.table[a])

    def twist(self, chi_exponents):
        """The form x -> Q(x) * chi(x) for a character given by exponents mod N."""
        exps = [
            (self.exponents[i] + chi_exponents[i]) % self.value_order
            for i in range(self.group.order)
        ]
        return QuadraticForm(self.group, self.value_order, exps, _add_table=self._add)

    def solve_character(self, chi_exponents):
        """Find a with B(a, -) = chi; CharacterNotInImage when degenerate."""
        for a in self.group.elements():
            if self.pairing.table[a] == list(chi_exponents):
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
        group = FiniteAbelianGroup(obj["invariant_factors"])
        n = obj["value_order"]
        table = None  # built on the first serialized cyclotomic value
        exps = [0] * group.order
        for key, val in obj["values"].items():
            tup = tuple(int(t) for t in key.split(",")) if key else ()
            if isinstance(val, int):
                exps[group.encode(tup)] = val
            else:
                if table is None:
                    table = _exponent_table(n)
                z = CyclotomicNumber.from_json(val).embed(n)
                exps[group.encode(tup)] = table[z.coeffs]
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
    return _table_recursive_tau(form._add, list(form.exponents), form.value_order)


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
    assert x is not None
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
    assert a is not None
    shifted = [(exps[i] - b[a][i]) % n_val for i in range(n)]
    for c in cyclic:
        assert shifted[c] == 0
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
    n = form.group.order
    b = form.pairing.table
    diag = [b[v][v] % form.value_order for v in range(n)]
    a = None
    for cand in range(n):
        if all(b[v][cand] % form.value_order == diag[v] for v in range(n)):
            a = cand
            break
    assert a is not None, "non-degeneracy realizes the diagonal character"
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
    add = form._add
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
            covered.add(add[i][r])
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
    add = group.addition_table()
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
        form = QuadraticForm(group, n_val, exps, _add_table=add)
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
