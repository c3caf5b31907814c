"""Quadratic forms on finite abelian groups and their Gauss sums.

A form is given and stored as its total value table; no homogeneity
Q(nx) = Q(x)^(n^2) is assumed.  B_Q is bilinear iff the table is the O(|M|)
fill of its generator data, the k values Q(e_s) and the Gram matrix B(e_s,
e_t) on the standard generators; then one `orthogonal_split`, Wall's
splitting of such data into orthogonal lines and planes, decides
non-degeneracy and gives the recursive oracle its pieces (and `heisenberg`
its Darboux bases).  The one class `QuadraticForm` caches both; the radical
and `radical_descent` read the k generator characters B(e_s, -), O(|M| k)
work.
On an elementary 2-group the canonical element of `char2_invariant` is the
sum of the split's lines, with no pass over M.  Values are roots of unity
of order dividing exponent(M)^2, kept as integer exponents modulo the
working cyclotomic order; CyclotomicNumber objects are built only for
assembled sums.
"""

from collections import Counter
from functools import cached_property
from math import gcd, lcm, prod

from .errors import (
    ConstructionFailed,
    NotElementaryTwoGroup,
    NotQuadratic,
    TheoremViolated,
)
from .exactalg import (
    CyclotomicNumber, _primes, weil_chain, zeta, zeta_exponent, zeta_sum
)


class FiniteAbelianGroup:
    """Direct sum of Z/d_i, elements indexed 0..order-1 (mixed radix) and added digit by digit."""

    def __init__(self, moduli):
        moduli = tuple(moduli)
        if any(type(d) is not int or d < 1 for d in moduli):
            raise ValueError(f"moduli must be ints >= 1, got {list(moduli)}")
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
        idx, stride = 0, 1
        for d in self.moduli:
            (i, a), (j, b) = divmod(i, d), divmod(j, d)
            idx, stride = idx + stride * ((a + b) % d), stride * d
        return idx

    def neg(self, i):
        return self.scalar(-1, i)

    def scalar(self, n, i):
        idx, stride = 0, 1
        for d in self.moduli:
            i, c = divmod(i, d)
            idx, stride = idx + stride * (n * c % d), stride * d
        return idx

    def generators(self):
        """Indices of the standard generators e_i: prod(d_j for j < i)."""
        return [prod(self.moduli[:k]) for k, d in enumerate(self.moduli) if d > 1]

    def element_order(self, i):
        order = 1
        for d in self.moduli:
            i, c = divmod(i, d)
            order = lcm(order, d // gcd(d, c))
        return order

    def key_index(self):
        """{canonical key "c_0,...,c_(k-1)": index} for all of M, in index
        order, built one coordinate at a time like `translation`."""
        keys = [""]
        for s, d in enumerate(self.moduli):
            keys = [k + t for t in [("," if s else "") + str(c) for c in range(d)] for k in keys]
        return dict(zip(keys, range(self.order)))

    def translation(self, a):
        """[a + x for x in elements()], built one coordinate at a time."""
        out, stride = [0], 1
        for d, c in zip(self.moduli, self.decode(a)):
            out = [s + stride * ((c + v) % d) for v in range(d) for s in out]
            stride *= d
        return out


class QuadraticForm:
    """A map Q: M -> roots of unity with biadditive symmetrized difference.

    B_Q(x, y) = Q(x+y) - Q(x) - Q(y) mod N is read entry by entry from the
    value table.  Bilinearity is decided by one O(|M|) fill from the
    generator data `gram`, non-degeneracy by one Wall split of the same
    data; every structural question reads these two.
    """

    def __init__(self, group, value_order, exponents):
        """Q(x) = zeta_N^exponents[x], N = value_order, each exponent in [0, N);
        a copy is kept, never reduced."""
        if len(exponents) != group.order:
            raise ValueError("value table must be total on the group")
        if min(exponents) < 0 or max(exponents) >= value_order:
            raise ValueError(f"exponents must lie in [0, {value_order})")
        self.group = group
        self.value_order = value_order
        self.exponents = list(exponents)

    def __repr__(self):
        return f"QuadraticForm({self.group!r}, order {self.value_order})"

    # -- values ---------------------------------------------------------------

    def value(self, i):
        return zeta(self.value_order, self.exponents[i])

    # -- structure --------------------------------------------------------------

    @cached_property
    def gram(self):
        """(mods, q, G): d_s, q_s = Q(e_s) and G[s][t] = B(e_s, e_t) on the
        generators e_s of index g_s, k + k^2 lookups: e_s + e_t has index g_s +
        g_t for s != t, and 2 e_s has index 2 g_s, or 0 when d_s = 2."""
        q, n, gens = self.exponents, self.value_order, self.group.generators()
        mods = [d for d in self.group.moduli if d > 1]
        return mods, [q[g] for g in gens], [
            [(q[g + h if g != h or d > 2 else 0] - q[g] - q[h]) % n for h in gens]
            for g, d in zip(gens, mods)]

    @cached_property
    def witness(self):
        """Decoded (x, g, h), g and h generators, with B(x+g, h) != B(x, h) +
        B(g, h); None proves B bilinear.  Decided in O(|M|): B is bilinear iff
        Q(0) = 0, d_s q_s + C(d_s, 2) G_ss = d_s G_st = 0 mod N and Q = `_fill`
        of `gram`.  Only if: Q(x + y) = Q(x) + Q(y) + B(x, y) is the fill's
        recursion, and Q(d_s e_s) = Q(0) = -B(0, 0), B(d_s e_s, e_t) = 0 give
        the congruences.  If: the fill is F(x) = sum_s (x_s q_s + C(x_s, 2)
        G_ss) + sum_(s<t) x_s x_t G_st on 0 <= x_s < d_s; F(x + d_s e_s) - F(x)
        = d_s q_s + C(d_s, 2) G_ss + sum_t x_t d_s G_st = 0, so F is a function
        on M, and F(x + y) - F(x) - F(y) = x^T G y is bilinear as d_s G_st = 0.
        Only a refuted table is scanned, over k rows B(h, -) built for it, and
        the scan finds a witness: were each B(-, h) additive against
        generators, hence additive, B would be bilinear, since it is symmetric
        and the cocycle identity B(x,y) + B(x+y,h) = B(y,h) + B(x,y+h) makes
        each B(x, -) additive too."""
        decode, n = self.group.decode, self.value_order
        if self.exponents[0]:
            return (decode(0),) * 3
        mods, q, gram = self.gram
        wraps = all((d * q[s] + d * (d - 1) // 2 * gram[s][s]) % n == 0
                    and not any(d * b % n for b in gram[s]) for s, d in enumerate(mods))
        if wraps and _fill(mods, n, q, gram) == self.exponents:
            return None
        gens = self.group.generators()
        rows = [self.character_of_element(h) for h in gens]
        for g in gens:
            shift = self.group.translation(g)
            for h, row in zip(gens, rows):
                for x, xg in enumerate(shift):
                    if (row[xg] - row[x] - row[g]) % n:
                        return (decode(x), decode(g), decode(h))
        raise TheoremViolated("a table the fill refutes has no generator witness (bug detector)")

    @cached_property
    def split(self):
        """`orthogonal_split` of `gram`: (pieces, None) exactly when B is perfect."""
        mods, _, gram = self.gram
        return orthogonal_split(mods, self.value_order, gram)

    def is_quadratic(self, raise_on_failure=False):
        """Bilinearity of B_Q, decided once by `witness`."""
        if self.witness is not None and raise_on_failure:
            raise NotQuadratic(self.witness)
        return self.witness is None

    def radical(self):
        """{x : B(g, x) = 0 for all generators g}; NotQuadratic unless bilinear."""
        return self._radical_cosets()[0]

    def _radical_cosets(self):
        """The cosets of the radical in element order, the radical first: x
        and y share one iff every generator character agrees at them."""
        self.is_quadratic(raise_on_failure=True)
        rows = [self.character_of_element(g) for g in self.group.generators()]
        cosets = {}
        for x in self.group.elements():
            cosets.setdefault(tuple(row[x] for row in rows), []).append(x)
        return list(cosets.values())

    def is_nondegenerate(self):
        self.is_quadratic(raise_on_failure=True)
        return self.split[1] is None

    def gauss_sum(self):
        return self._tau

    @cached_property
    def _tau(self):
        return zeta_sum(self.value_order, Counter(self.exponents))

    @cached_property
    def gauss_chain(self):
        """The Weil chain of tau with lead 1 and norm |M| (`weil_chain`)."""
        size = self.group.order
        return weil_chain([self.gauss_sum()], size, size, 1, size)

    def verify_gauss_sum_theorem(self):
        """The order of the root of unity tau^2/|M| in `gauss_chain`, whose
        abs_ok is tau * conj(tau) = |M|; TheoremViolated means a bug."""
        order = self.gauss_chain.ratio_order
        if order is None:
            raise TheoremViolated(f"tau^2/|M| not a root of unity for {self!r}")
        return order

    def character_of_element(self, a):
        """The character chi = B(a, -) as an exponent table, the one row
        builder: O(|M|) through `translation`."""
        q, n = self.exponents, self.value_order
        return [(q[s] - q[a] - q[y]) % n for y, s in enumerate(self.group.translation(a))]

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        """Spec shape: values are serialized cyclotomic numbers."""
        keys = self.group.key_index()
        return {"invariant_factors": list(self.group.moduli), "value_order": self.value_order,
                "values": {key: self.value(i).to_json() for key, i in keys.items()}}

    @staticmethod
    def from_json(obj):
        """Parse the spec shape; ValueError unless value_order is an int >= 1 and
        values is a JSON object of |M| keys (counted before anything of size |M|
        is built), each a canonical element key of `key_index` ("1,0", not "01,0"),
        valued by an int in [0, value_order) or a value_order-th root of unity."""
        group = FiniteAbelianGroup(obj["invariant_factors"])
        n = obj["value_order"]
        if type(n) is not int or n < 1:
            raise ValueError(f"value_order must be an int >= 1, got {n!r}")
        values = obj["values"]
        if not isinstance(values, dict):
            raise ValueError(f"values must be a JSON object, got {type(values).__name__}")
        if len(values) != group.order:
            raise ValueError(f"values must have one key per element of {group!r}, got {len(values)}")
        index = group.key_index()
        exps = [0] * group.order
        for key, val in values.items():
            idx = index.get(key)
            if idx is None:
                raise ValueError(f"value key {key!r} is not an element of {group!r}")
            if type(val) is int and 0 <= val < n:
                exps[idx] = val
            elif not isinstance(val, dict):
                raise ValueError(f"value {val!r} of element {group.decode(idx)} is neither an "
                                 f"exponent in [0, {n}) nor a cyclotomic number")
            else:
                z = CyclotomicNumber.from_json(val).embed(n)
                exps[idx] = zeta_exponent(z)
                if exps[idx] is None:
                    raise ValueError(f"value of element {group.decode(idx)} is not a "
                                     f"{n}-th root of unity")
        return QuadraticForm(group, n, exps)


# -- the recursive evaluation from the Gauss-sum theorem's proof ----------------

def recursive_gauss_eval(form):
    """Evaluate tau_Q by the orthogonal splitting of the Gauss-sum theorem's
    proof, from generator data: an independent oracle for `gauss_sum`.

    Once B_Q is bilinear, Q is fixed by its generator data `gram`:
    Q(x) = sum_s (x_s q_s + C(x_s, 2) G[s][s]) + sum_{s<t} x_s x_t G[s][t]
    and B(x, y) = x^T G y on integer coordinates.  The orthogonal lines and
    planes of `split`, which decided non-degeneracy, are reused, and
    `_wall_histogram` convolves their value histograms; the table itself is
    never summed.  ValueError on a degenerate form, NotQuadratic on a
    non-quadratic one.
    """
    if not form.is_nondegenerate():
        raise ValueError("recursive evaluation requires a non-degenerate form")
    _, q, gram = form.gram
    return zeta_sum(form.value_order, _wall_histogram(form.split, form.value_order, q, gram))


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _form_exponent(x, q, gram, n_val):
    """Q(sum_s x_s e_s) mod n_val for integer x from generator data (q, gram):
    the polynomial F of `QuadraticForm.witness`."""
    return sum(c * q[s] + c * (c - 1) // 2 * gram[s][s] + c * _dot(x[s + 1:], gram[s][s + 1:])
               for s, c in enumerate(x)) % n_val


def _fill(mods, n_val, q, gram):
    """Q on M = sum_s Z/mods[s] in index order from generator data (q, gram) mod
    n_val, one generator at a time, O(|M|): Q(x + c e_s) = Q(x) + c q_s + C(c, 2)
    G_ss + c B(x, e_s) for x in <e_t : t < s>, B(x, e_s) = sum_t x_t G_ts alike."""
    table = [0]
    for s, d in enumerate(mods):
        col = [0]
        for t in range(s):
            col = [b + c * gram[t][s] for c in range(mods[t]) for b in col]
        table = [(f + c * q[s] + c * (c - 1) // 2 * gram[s][s] + c * b) % n_val
                 for c in range(d) for f, b in zip(table, col)]
    return table


def _wall_histogram(split, n_val, q, gram):
    """{exponent: count} of Q over M, for Q given by its generator data (q,
    gram) mod n_val with B non-degenerate: the value histograms of the pieces
    of `split`, the `orthogonal_split` of those data, each piece Z/o or (Z/o)^2
    filled by `_fill`, convolved.  TheoremViolated, a bug detector, if the
    splitting met a radical element."""
    pieces, radical = split
    if radical is not None:
        raise TheoremViolated(f"{radical} is radical (bug detector)")
    hist = Counter({0: 1})
    for _, o, piece, h in pieces:
        qp = [_form_exponent(p, q, gram, n_val) for p in piece]
        part = Counter(_fill([o] * len(piece), n_val, qp, h))
        convolved = Counter()
        for e1, c1 in hist.items():
            for e2, c2 in part.items():
                convolved[(e1 + e2) % n_val] += c1 * c2
        hist = convolved
    return hist


def orthogonal_split(mods, modulus, gram):
    """Split M = sum_s Z/mods[s] into orthogonal lines and planes for the
    pairing B(x, y) = x^T gram y mod `modulus`, symmetric or alternating
    (C.T.C. Wall, "Quadratic forms on finite groups, and related topics",
    Topology 2, 1963).

    The r-primary parts of M are orthogonal; for each prime r, start from the
    r-primary parts of the generators and their Gram matrix b.  Let o be the
    largest order of an entry of b; B has r-power orders, so o bounds the
    order of B on their whole span.  Split off the line <u> of the first u
    with B(u, u) of order o.  Else take the first pair with B(v_i, v_j) of
    order o: split off the line <v_i + v_j> if B(v_i + v_j, v_i + v_j) has
    order o (for odd r and symmetric B it is 2 B(v_i, v_j) plus terms of
    lower order), else the plane <v_i, v_j>.  The plane's Gram matrix over
    modulus/o is invertible mod o: its off-diagonal entries are units, and
    its diagonal is even for r = 2 and symmetric B, zero for alternating B.
    Every other z is moved to z' = z - sum_i c_i p_i, orthogonal to the
    piece, with sum_i c_i B(p_i, p_j) = B(z, p_j) solved by that inverse, and
    b is updated in place row by row, B(z', w') = B(z', w) = B(z, w) -
    sum_i c_i(z) B(p_i, w): O(k^2) per piece, O(k^3) in all.  Zero vectors
    are dropped.

    Returns (pieces, radical).  A piece is (r, o, vectors, h), h the Gram
    matrix of its vectors mod `modulus`.  radical is None, or the first
    nonzero element of the radical met, where the pieces stop: the first
    vector left when o = 1, or o p for a piece vector p of order above o.
    """
    k = len(mods)
    reduce = lambda x: tuple(c % d for c, d in zip(x, mods))
    order = lambda e: modulus // gcd(e, modulus)
    pieces = []
    for r in _primes(lcm(*mods)):
        scale = [d // gcd(d, r ** d.bit_length()) for d in mods]
        vectors = [reduce(scale[s] * (t == s) for t in range(k)) for s in range(k)]
        b = [[scale[s] * scale[t] * gram[s][t] % modulus for t in range(k)] for s in range(k)]
        live = [s for s, d in enumerate(mods) if d % r == 0]
        while live:
            o = max(order(b[i][j]) for i in live for j in live)
            if o == 1:
                return pieces, vectors[live[0]]
            piece = next(([i] for i in live if order(b[i][i]) == o), None)
            if piece is None:
                i, j = piece = next([i, j] for i in live for j in live
                                    if i < j and order(b[i][j]) == o)
                if order(b[i][i] + b[i][j] + b[j][i] + b[j][j]) == o:
                    vectors[i] = reduce(a + c for a, c in zip(vectors[i], vectors[j]))
                    b[i] = [(x + y) % modulus for x, y in zip(b[i], b[j])]
                    for row in b:
                        row[i] = (row[i] + row[j]) % modulus
                    piece = [i]
            for p in (vectors[t] for t in piece):
                if lcm(*(d // gcd(d, c) for c, d in zip(p, mods))) != o:
                    return pieces, reduce(o * c for c in p)
            h = [[b[s][t] for t in piece] for s in piece]
            pieces.append((r, o, [vectors[t] for t in piece], h))
            # (h / unit)^-1 = adj / det mod o
            unit = modulus // o
            if len(piece) == 1:
                det, adj = h[0][0] // unit, [[1]]
            else:
                (a, c), (d, e) = ([x // unit for x in row] for row in h)
                det, adj = a * e - c * d, [[e, -c], [-d, a]]
            inv = pow(det, -1, o)
            live = [z for z in live if z not in piece]
            for z in live:
                cs = [inv * _dot([b[z][t] // unit for t in piece], col) % o for col in zip(*adj)]
                vectors[z] = reduce(x - _dot(cs, ps)
                                    for x, *ps in zip(vectors[z], *(vectors[t] for t in piece)))
                b[z] = [(x - _dot(cs, ys)) % modulus for x, *ys in zip(b[z], *(b[t] for t in piece))]
            live = [z for z in live if any(vectors[z])]
    return pieces, None


# -- char-2 invariant ------------------------------------------------------------

def char2_invariant(form):
    """On an elementary 2-group: the canonical a with B(v,v) = B(v,a) and
    Q(a), for the identity tau^2 = Q(a)|M| the caller compares.  Returns
    (a_tuple, Q(a))."""
    if any(d != 2 for d in form.group.moduli):
        raise NotElementaryTwoGroup(f"moduli {form.group.moduli} are not all 2")
    if not form.is_nondegenerate():
        raise ValueError("the canonical element needs a non-degenerate form")
    # v -> B(v, v) is additive here, as 2 B(u, v) = B(2u, v) = 0, and so is
    # B(-, a).  B has order 2 on the pieces of `split`: a line <u> has
    # B(u, u) != 0, and a plane is split off only when no diagonal entry is
    # left, so its B(u, u) = B(v, v) = 0.  The pieces are orthogonal and span
    # M, so B(-, a) = B(-, -) on all of them for a the sum of the lines, the
    # one such a by non-degeneracy.
    _, _, gram = form.gram
    n = form.value_order
    lines = [piece[0] for _, _, piece, _ in form.split[0] if len(piece) == 1]
    a = tuple(sum(u[s] for u in lines) % 2 for s in range(len(gram)))
    if any((_dot(row, a) - row[s]) % n for s, row in enumerate(gram)):
        raise TheoremViolated("the split's lines do not realize the diagonal character")
    return a, form.value(form.group.encode(a))


# -- degenerate descent ------------------------------------------------------------

def radical_descent(form):
    """Structure of tau_Q for a possibly degenerate form.

    Returns ("zero",) when Q restricted to the radical is a nontrivial
    character (then tau_Q = 0, verified), or ("descends", |radical|, tau_bar)
    with tau_Q = |radical| * tau_bar for the descended form (verified).
    """
    cosets = form._radical_cosets()
    rad = cosets[0]
    n_val = form.value_order
    q = form.exponents
    nontrivial = any(q[r] % n_val for r in rad)
    tau = form.gauss_sum()
    if nontrivial:
        if not tau.is_zero():
            raise TheoremViolated("tau must vanish when Q|radical is nontrivial")
        return ("zero",)
    tau_bar = zeta_sum(n_val, Counter(q[coset[0]] for coset in cosets))
    if tau != len(rad) * tau_bar:
        raise TheoremViolated("tau != |radical| * tau_bar in the descent")
    return ("descends", len(rad), tau_bar)


# -- deterministic pseudorandom non-degenerate forms --------------------------------

def random_nondegenerate(group, seed, max_tries=60):
    """Deterministic pseudorandom non-degenerate form on the group.

    Gram data on the standard generators is drawn at random, with values Q(e_i)
    that satisfy the wrap constraint and are twisted by a random character, so
    the table `_fill` builds from them is quadratic (`QuadraticForm.witness`).
    A draw whose `orthogonal_split` meets the radical is retried before any
    table is built; the accepted one is filled once.
    """
    import random

    rng = random.Random(seed)
    n_val = group.exponent**2
    mods = [d for d in group.moduli if d > 1]
    k = len(mods)
    for _ in range(max_tries):
        # a symmetric Gram matrix, B(e_i, e_j) killed by gcd(d_i, d_j)
        bmat = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                g = gcd(mods[i], mods[j])
                bmat[i][j] = bmat[j][i] = (n_val // g) * rng.randrange(g)
        # a unit diagonal kick to help non-degeneracy
        for i in range(k):
            unit = rng.choice([u for u in range(1, mods[i] + 1) if gcd(u, mods[i]) == 1])
            if rng.random() < 0.9:
                bmat[i][i] = (n_val // mods[i]) * unit % n_val
        # Q(e_i) with d_i Q(e_i) + C(d_i, 2) B(e_i, e_i) = 0 (that B term is
        # a multiple of n_val/2 or 0, hence of d_i), then a character twist
        qgen = [(-bmat[i][i] * (d * (d - 1) // 2)) % n_val // d + (n_val // d) * rng.randrange(d)
                for i, d in enumerate(mods)]
        qgen = [(c + (n_val // d) * rng.randrange(d)) % n_val for c, d in zip(qgen, mods)]
        if orthogonal_split(mods, n_val, bmat)[1] is None:
            return QuadraticForm(group, n_val, _fill(mods, n_val, qgen, bmat))
    raise ConstructionFailed(
        f"no non-degenerate form found on {group!r} after {max_tries} tries"
    )
