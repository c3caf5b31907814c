"""Exact arithmetic in cyclotomic fields Q(zeta_N) and integer polynomial
utilities (Newton identities, Weil-number certificates).

Every character value in the library is an element of some Q(zeta_N); all
arithmetic here is exact (no floating point) and runs on integers only.  An
element of Q[X]/(f), for a monic integer f, is an integer coefficient vector in
the power basis 1, X, ..., X^(deg f - 1) over one common denominator, kept in
lowest terms.  Q(zeta_N) is the case f = Phi_N, and the Weil certificate works
in Q[T]/(p0) for a squarefree L-polynomial p0; both reduce through one
`_OrderContext` and multiply with its one `mul`.  Q(zeta_N) reduces through
Q(zeta_r), r = rad N (Phi_N(X) = Phi_r(X^s), s = N / r): its context builds
r rows of length phi(r), never N rows of length phi(N), and `fold` one sparse
row per exponent it meets, so ORDER_CAP bounds N, phi(N) and that cache.  An
order that is its own radical, a prime above all, still builds N rows.
"""

from functools import cached_property, lru_cache
from itertools import compress
from math import comb, gcd, isqrt, lcm, prod

from .errors import IncompatibleOrders, NonIntegralElementarySymmetric, Record, TheoremViolated

# Computations refuse to build Q(zeta_N) beyond this order.
ORDER_CAP = 2**16

# The prime 2^61 - 1, modulo which a Weil certificate is refused first.
_ELL = 2**61 - 1


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _primes(n):
    """The distinct primes dividing n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first, as a tuple of ints.  For n = m p
    with p the largest prime factor, Phi_n(X) is Phi_m(X^p) when p | m, else
    Phi_m(X^p) / Phi_m(X)."""
    if n == 1:
        return (-1, 1)
    p = _primes(n)[-1]
    base = cyclotomic_polynomial(n // p)
    out = [0] * (p * (len(base) - 1) + 1)
    out[::p] = base
    return tuple(out if n // p % p == 0 else _int_poly_exact_div(out, base))


def _int_poly_exact_div(num, den):
    num = list(num)
    dn = len(den) - 1
    lead = den[dn]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j in range(dn + 1):
            num[i - dn + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


class _OrderContext:
    """Reduction data of Q[X]/(f(X^s)), f monic of degree d >= 1, in the power
    basis of degree deg = s d: X^(s a + b), 0 <= b < s, is row a of f's own
    recurrence placed at the indices s t + b.  With a period n (Phi_n, X =
    zeta_n) exponents are read mod n.  Elements are pairs (nums, den): an
    integer vector over a nonzero integer denominator."""

    def __init__(self, f, n=0, s=1):
        self.n, self.s = n, s
        self.deg = s * (len(f) - 1)
        # X^d = -(f - leading term); f is monic.
        self.top = tuple(-c for c in f[:-1])
        self._rows = [(1,) + (0,) * (len(f) - 2)]
        self._sparse = {}

    def _row(self, a):  # X^a mod f, by the recurrence X^(a+1) = X * X^a
        rows = self._rows
        while len(rows) <= a:
            cur = rows[-1]
            carry = cur[-1]
            nxt = [0, *cur[:-1]]
            if carry:
                for t, c in enumerate(self.top):
                    nxt[t] += carry * c
            rows.append(tuple(nxt))
        return rows[a]

    def row(self, j):
        return tuple(self.fold(((j, 1),)))

    def fold(self, terms, out=None):
        """out + sum of c * X^k over the pairs (k, c) of terms, as a list in
        the power basis (a new zero list when out is None)."""
        if out is None:
            out = [0] * self.deg
        n, s, sparse = self.n, self.s, self._sparse
        for k, c in terms:
            if not c:
                continue
            if n:
                k %= n
            row = sparse.get(k)
            if row is None:
                a, b = divmod(k, s)
                row = sparse[k] = tuple((s * t + b, r) for t, r in enumerate(self._row(a)) if r)
            for t, r in row:
                out[t] += c * r
        return out

    @cached_property
    def logs(self):  # {X^a mod f: a} over the n / s rows of the recurrence
        return {self._row(a): a for a in range(self.n // self.s)}

    def mul(self, a, b):
        """The product of the elements a and b, in lowest terms."""
        (xs, dx), (ys, dy) = a, b
        deg = self.deg
        conv = [0] * (2 * deg - 1)
        ys = [(j, y) for j, y in enumerate(ys) if y]
        for i, x in enumerate(xs):
            if x:
                for j, y in ys:
                    conv[i + j] += x * y
        return _lowest(self.fold(enumerate(conv[deg:], deg), conv[:deg]), dx * dy)

    def power(self, a, k, ell=None):
        """a^k for an element a in lowest terms and an int k >= 0; with a prime
        ell, a has denominator 1 and the powers are reduced mod ell, in
        F_ell[X]/(f)."""
        mul = self.mul
        if ell is not None:
            def mul(x, y):
                return tuple(c % ell for c in self.mul(x, y)[0]), 1
        result = (self.row(0), 1)
        while k:
            if k & 1:
                result = mul(result, a)
            k >>= 1
            if k:
                a = mul(a, a)
        return result


def _lowest(nums, den):
    """(nums, den) as (tuple, den > 0) with gcd(den, *nums) == 1; the gcd is
    taken only when den != 1."""
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


@lru_cache(maxsize=None)
def _context(n):
    """The context of Q(zeta_n)."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be at least 1, got {n}")
    if n > ORDER_CAP:
        raise IncompatibleOrders(f"cyclotomic order {n} exceeds cap {ORDER_CAP}")
    r = prod(_primes(n))
    return _OrderContext(cyclotomic_polynomial(r), n, n // r)


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction, denominator > 0;
    TypeError for anything else, a float included."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"not an exact rational scalar: {x!r}") from None


class CyclotomicNumber:
    """An exact element of Q(zeta_N).

    Stored as (nums[0] + nums[1] zeta + ... + nums[phi-1] zeta^(phi-1)) / den:
    an integer vector over one common denominator, kept canonical (den > 0,
    gcd(den, *nums) == 1), so equal elements of one order have equal fields.
    """

    __slots__ = ("order", "nums", "den")
    __hash__ = None

    def __new__(cls, order, coeffs):
        """coeffs: the power-basis coefficients, ints or Fractions."""
        return _from_pairs(order, [_ratio(c) for c in coeffs])

    @property
    def coeffs(self):
        """The power-basis coefficients as Fractions."""
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(r, order=1):
        num, den = _ratio(r)
        return _make(order, (num,) + (0,) * (_context(order).deg - 1), den)

    @staticmethod
    def zero(order=1):
        return CyclotomicNumber.from_rational(0, order)

    @staticmethod
    def one(order=1):
        return CyclotomicNumber.from_rational(1, order)

    # -- representation ------------------------------------------------------

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.as_rational()})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.order}^{j}")
        return "Cyc(" + " + ".join(terms) + ")"

    def to_json(self):
        den = self.den
        return {"order": self.order,
                "coeffs": [[c // (g := gcd(c, den)), den // g] for c in self.nums]}

    @staticmethod
    def from_json(obj):
        """Parse {"order": N, "coeffs": [[num, den], ...]}; ValueError unless N
        is an int >= 1 and each pair holds two ints (not bools) with den != 0."""
        order, pairs = obj["order"], obj["coeffs"]
        if type(order) is not int or order < 1 or not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and type(p[0]) is type(p[1]) is int and p[1]
            for p in pairs
        ):
            raise ValueError("a cyclotomic number needs an int order >= 1 and "
                             f"[num, den] int pairs with den != 0, got {obj!r}")
        return _from_pairs(order, pairs)

    # -- order management ----------------------------------------------------

    def embed(self, order):
        """Image under the canonical injection Q(zeta_N) -> Q(zeta_order)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"{self.order} does not divide {order}")
        step = order // self.order
        out = _context(order).fold((j * step, c) for j, c in enumerate(self.nums))
        return _make(order, out, self.den)

    def _common(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(other)
        n = lcm(self.order, other.order)
        return self.embed(n), other.embed(n)

    # -- arithmetic ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            try:
                num, den = _ratio(other)
            except TypeError:
                return NotImplemented
            return self.is_rational() and self.nums[0] == num and self.den == den
        a, b = self._common(other)
        return a.den == b.den and a.nums == b.nums

    def __add__(self, other):
        a, b = self._common(other)
        da, db = a.den, b.den
        return _make(a.order, [x * db + y * da for x, y in zip(a.nums, b.nums)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            num, den = _ratio(other)
            return _make(self.order, [c * num for c in self.nums], self.den * den)
        a, b = self._common(other)
        return _make(a.order, *_context(a.order).mul((a.nums, a.den), (b.nums, b.den)))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return _make(self.order, *_context(self.order).power((self.nums, self.den), k))

    def inv(self):
        """Multiplicative inverse by the Galois norm: for w = den * z, the
        product P of sigma_k(w) over the units k != 1 mod N makes w * P the
        norm of w, a nonzero integer, so 1/z = den * P / (w * P)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        w = _make(n, self.nums)
        rest = CyclotomicNumber.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                rest = rest * w.galois(k)
        norm = w * rest
        if not norm.is_rational():
            raise TheoremViolated("the norm of a cyclotomic integer is a rational integer")
        return rest * self.den / norm.nums[0]

    def __truediv__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self * other.inv()
        num, den = _ratio(other)
        if not num:
            raise ZeroDivisionError("division of a cyclotomic number by zero")
        if num == den == 1:
            return self
        return _make(self.order, [c * den for c in self.nums], self.den * num)

    def galois(self, k):
        """The automorphism sigma_k: zeta -> zeta^k, for k coprime to the order."""
        out = _context(self.order).fold((j * k, c) for j, c in enumerate(self.nums))
        return _make(self.order, out, self.den)

    def conj(self):
        """Complex conjugation, sigma_{-1}."""
        return self.galois(-1)

    # -- predicates ------------------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_rational(self):
        """The Fraction value if the element is rational, else None."""
        if self.is_rational():
            from fractions import Fraction

            return Fraction(self.nums[0], self.den)
        return None


def _from_pairs(order, pairs):
    """The element of Q(zeta_order) with power-basis coefficients num / den
    over the int pairs (num, den), den != 0."""
    if len(pairs) != _context(order).deg:
        raise ValueError("coefficient vector has wrong length")
    den = lcm(*(d for _, d in pairs))
    return _make(order, [c * (den // d) for c, d in pairs], den)


def _make(order, nums, den=1):
    """The CyclotomicNumber nums / den (ints, den != 0), in lowest terms."""
    z = object.__new__(CyclotomicNumber)
    z.order = order
    z.nums, z.den = _lowest(nums, den)
    return z


def zeta(order, k=1):
    """The root of unity zeta_order^k as a CyclotomicNumber."""
    return _make(order, _context(order).row(k))


def zeta_sum(order, exponent_counts):
    """Assemble sum_k c_k * zeta_order^k exactly from an integer exponent
    histogram {k: c_k}."""
    return _make(order, _context(order).fold(exponent_counts.items()))


def abs_square(z):
    """z * conj(z); lies in the real subfield, often rational."""
    return z * z.conj()


def zeta_exponent(z):
    """The k in [0, N) with z = zeta_N^k, N = z.order, else None: k = s a + b,
    where b is the residue mod s of every index at which z is nonzero and z
    holds the row a of Q(zeta_r) at b, b + s, ..."""
    ctx, nums = _context(z.order), z.nums
    b = next(compress(range(len(nums)), nums), 0) % ctx.s
    row = nums[b::ctx.s]
    if z.den != 1 or nums.count(0) - row.count(0) != len(nums) - len(row):
        return None
    a = ctx.logs.get(row)
    return None if a is None else ctx.s * a + b


def is_root_of_unity(z):
    """The multiplicative order of z if z is a root of unity, else None.

    Decided exactly by lookup: the roots of unity in Q(zeta_N) are exactly
    +-zeta_N^k, the group of order L = lcm(2, N).  z = zeta_N^k is zeta_L^j
    with j = k L/N, and z = -zeta_N^k is zeta_L^(j + L/2); the order is
    L / gcd(j, L).
    """
    n, bound = z.order, lcm(2, z.order)
    k, half = zeta_exponent(z), 0
    if k is None:
        k, half = zeta_exponent(-z), bound // 2
        if k is None:
            return None
    return bound // gcd(k * (bound // n) + half, bound)


class WeilChain(Record):
    """S_n = lead * lam^n with |lam|^2 = N = q^weight and lam^2 / N a root of
    unity of order ratio_order (None when it is none); lead = +-p^r."""
    lam: object
    lead: object
    r: object
    residuals: list  # S_n == lead * lam^n, for n = 1, 2, ...
    abs_ok: bool  # |lam|^2 = N
    weight: object
    ratio_order: object


def _exact_log(z, base):
    """k with z = +-base^k for an int or a rational-integer cyclotomic z, else None."""
    if isinstance(z, CyclotomicNumber):
        z = z.nums[0] if z.is_rational() and z.den == 1 else 0
    value, k = abs(z), 0
    while value > 1 and value % base == 0:
        value, k = value // base, k + 1
    return k if value == 1 else None


def weil_chain(sums, p, q, lead=None, norm=None):
    """The Weil chain of exact sums S_1, S_2, ...: a pure sum whose Frobenius
    eigenvalues all agree (equality in the triangle inequality; Deligne, SGA
    4 1/2).  Given a lead +-p^r and a norm N (Hasse--Davenport: (-1)^d p^r and
    q^d; a Gauss sum: 1 and |M|), lam = S_1 / lead.  Given neither, lead =
    S_1^2 / S_2 (so lam = S_2 / S_1) and the weight is log_q |lam|^2, or the
    result is None when S_1 or S_2 is missing or zero.  A root of unity lam^2 / N
    gives |sigma(lam)|^2 = N for every embedding sigma of Q(zeta) into C, and
    so lam * conj(lam) = N, since conjugation commutes with every sigma: for
    a known N the conjugate is formed only when that lookup fails."""
    if lead is None:
        if len(sums) < 2 or sums[0].is_zero() or sums[1].is_zero():
            return None
        lead = sums[0] * sums[0] / sums[1]
    lam = sums[0] / lead
    residuals, power = [True], lam  # S_1 = lead * lam by the choice of lam
    for s in sums[1:]:
        power = power * lam
        residuals.append(s == lead * power)
    if norm is None:  # |lam|^2 = q^weight whenever the log exists
        weight = _exact_log(abs_square(lam), q)
        abs_ok = weight is not None
        order = is_root_of_unity(lam * lam / q**weight) if abs_ok else None
    else:
        weight = _exact_log(norm, q)
        order = is_root_of_unity(lam * lam / norm)
        abs_ok = order is not None or abs_square(lam) == norm
    return WeilChain(lam, lead, _exact_log(lead, p), residuals, abs_ok, weight, order)


def _primitive(a):
    """The primitive part of an integer polynomial (low degree first), with a
    positive leading coefficient; [] for zero."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return a
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _int_poly_gcd(a, b):
    """A gcd in Q[X] of two integer polynomials (low degree first): the last
    nonzero term of their primitive pseudo-remainder sequence, so primitive
    with a positive leading coefficient ([] when both are zero)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead, db = b[-1], len(b) - 1
        while len(a) > db:
            # a <- lead * a - c * X^s * b cancels the top term of a
            c = a.pop()
            a = [lead * x for x in a]
            s = len(a) - db
            for j in range(db):
                a[s + j] -= c * b[j]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, _primitive(a)
    return a


class IntPolynomial:
    """A polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise TypeError(f"coefficients must be ints (not bools), got {coeffs!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*T^{i}" if i else str(c))
        return "IntPolynomial(" + " + ".join(terms) + ")"

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def squarefree_part(self):
        """P / gcd(P, P'), normalized monic (valid for monic P; exact).  The
        gcd is primitive, so by Gauss's lemma it divides P over Z."""
        if self.is_zero():
            return self
        g = _int_poly_gcd(self.coeffs, self.derivative().coeffs)
        try:
            q = _int_poly_exact_div(self.coeffs, g)
        except ArithmeticError:
            raise TheoremViolated("gcd(P, P') divides P") from None
        lead = q[-1]
        if any(c % lead for c in q):
            raise TheoremViolated("a monic factor of a monic integer polynomial is integral")
        return IntPolynomial([c // lead for c in q])

    def to_json(self):
        return list(self.coeffs)


def power_sums_to_char_poly(power_sums, b):
    """Monic integer polynomial of degree b whose roots have the given power sums.

    Newton's identities: e_k = (1/k) * sum_{i=1..k} (-1)^{i-1} e_{k-i} s_i,
    every division must be exact or the input counts are inconsistent.
    """
    if len(power_sums) < b:
        raise ValueError(f"need at least {b} power sums, got {len(power_sums)}")
    e = [1]
    for k in range(1, b + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * power_sums[i - 1]
            acc += term if i % 2 == 1 else -term
        q, r = divmod(acc, k)
        if r != 0:
            from fractions import Fraction

            raise NonIntegralElementarySymmetric(k, Fraction(acc, k))
        e.append(q)
    # P(T) = sum_{k=0..b} (-1)^k e_k T^{b-k}, low degree first
    coeffs = [0] * (b + 1)
    for k in range(b + 1):
        coeffs[b - k] = e[k] if k % 2 == 0 else -e[k]
    return IntPolynomial(coeffs)


def power_sums_from_char_poly(poly, n_terms):
    """Forward Newton recursion: power sums of the roots of a monic polynomial.

    p_k = sum_{i=1..min(k-1,b)} (-1)^{i-1} e_i p_{k-i} + [k <= b] (-1)^{k-1} k e_k.
    """
    if not poly.is_monic():
        raise ValueError("polynomial must be monic")
    b = poly.degree
    # coefficient of T^{b-k} is (-1)^k e_k
    e = [poly.coeffs[b - k] * (1 if k % 2 == 0 else -1) for k in range(b + 1)]
    s = []
    for k in range(1, n_terms + 1):
        acc = 0
        for i in range(1, min(k - 1, b) + 1):
            acc += (-1) ** (i - 1) * e[i] * s[k - i - 1]
        if k <= b:
            acc += (-1) ** (k - 1) * e[k] * k
        s.append(acc)
    return s


DEFAULT_WEIL_BOUND = 2 * lcm(*range(1, 25))


def _euler_phi(n):
    out = n
    for p in _primes(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def _root_of_unity_order_bound(degree):
    """lcm of all N with phi(N) <= degree.

    A root of unity lying in a product of number fields of degree <= `degree`
    has order N with phi(N) <= degree (phi(N) >= sqrt(N/2) bounds the search).
    """
    degree = max(degree, 2)
    bound = 2 * degree * degree + 1
    orders = [n for n in range(1, bound + 1) if _euler_phi(n) <= degree]
    return lcm(*orders)


def weil_certificate(poly, q, i, m_max=DEFAULT_WEIL_BOUND):
    """Certify that every root of poly equals zeta * sqrt(q^i), zeta a root of unity.

    Returns (m, root_orders) for the least m <= m_max with
    squarefree(poly) | T^{2m} - q^{i*m}, or None when no such m exists within
    the bound (an inconclusive outcome, not a refutation).  root_orders maps
    orders d of zeta to root counts; when q^i is not a perfect square the odd
    orders pair with their doubles (rational arithmetic cannot separate the
    sign of sqrt(q^i)), so the reported d is the least rationally certifiable
    exponent with alpha^d = q^{id/2}.  q >= 2 and i >= 1 are ints.
    """
    if not (type(q) is int and type(i) is int and q >= 2 and i >= 1):
        raise ValueError(f"need ints q >= 2 and i >= 1, got q={q!r}, i={i!r}")
    if poly.is_zero():
        raise ValueError("zero polynomial")
    if not poly.is_monic():
        raise ValueError("polynomial must be monic")
    p0 = poly.squarefree_part()
    if p0.degree == 0:
        return 1, {}
    # the roots of a certified p0 have |alpha|^2 = q^i, so the coefficient c_k of
    # T^k obeys c_k^2 <= C(d, k)^2 q^(i(d-k)), with equality at k = 0
    d, c = p0.degree, p0.coeffs
    if c[0] ** 2 != q ** (i * d) or any(c[k] ** 2 > comb(d, k) ** 2 * q ** (i * (d - k))
                                        for k in range(d)):
        return None
    ring = _OrderContext(p0.coeffs)
    one = (ring.row(0), 1)
    # u = T^2 / q^i in Q[T]/(p0); p0 | T^{2m} - q^{im}  <=>  u^m = 1.
    # If u is a root of unity its order divides lam (Kronecker bound on the
    # factor fields), so testing u^lam = 1 decides existence outright and the
    # least m is found by a divisor scan of lam.
    u = _lowest(ring.row(2), q**i)
    lam = _root_of_unity_order_bound(p0.degree)
    # u^lam = 1 makes the monic p0 divide T^(2 lam) - q^(i lam) in Z[T], hence
    # also mod a prime ell not dividing q.  So u^lam = 1 is tested first in
    # F_ell[T]/(p0), where the powers do not grow.  Every input, refused there
    # or not, is decided exactly by the divisor scan: u^d = 1 for no divisor d
    # of lam unless u^lam = 1.
    if q % _ELL:
        u_ell = (tuple(c * pow(q, -i, _ELL) % _ELL for c in ring.row(2)), 1)
        if ring.power(u_ell, lam, _ELL) != one:
            return None
    m = next((d for d in _divisors(lam) if d <= m_max and ring.power(u, d) == one), None)
    if m is None:
        return None
    # per-root orders of zeta = alpha / sqrt(q^i): zeta^d = 1 iff
    # alpha^d = q^{id/2}, testable whenever q^{id/2} is rational.  The roots
    # with alpha^d = val number deg gcd(p0, (T^d mod p0) - val), and T^d mod p0
    # is integral since p0 is monic.
    t = (ring.row(1), 1)
    dividing = {}
    for d in _divisors(2 * m):
        val = _integer_sqrt(q ** (i * d))
        if val is not None:
            target = list(ring.power(t, d)[0])
            target[0] -= val
            dividing[d] = len(_int_poly_gcd(p0.coeffs, target)) - 1
    orders = {}
    for d, count in dividing.items():
        exact = count - sum(c for dd, c in orders.items() if d % dd == 0)
        if exact > 0:
            orders[d] = exact
    return m, orders


def _integer_sqrt(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
