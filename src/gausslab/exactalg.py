"""Exact arithmetic in cyclotomic fields Q(zeta_N) and integer polynomial
utilities (Newton identities, Weil-number certificates).

Every character value in the library is an element of some Q(zeta_N); all
arithmetic here is exact (Fraction coefficients, no floating point).  Elements
are stored in the power basis 1, zeta, ..., zeta^{phi(N)-1} reduced modulo the
N-th cyclotomic polynomial.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import IncompatibleOrders, NonIntegralElementarySymmetric

# Computations refuse to build Q(zeta_N) beyond this order.
ORDER_CAP = 2**16

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first, as a tuple of ints."""
    if n == 1:
        return (-1, 1)
    # X^n - 1 divided by the product of Phi_d over proper divisors d | n.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n):
        if d == n:
            continue
        den = cyclotomic_polynomial(d)
        num = _int_poly_exact_div(num, den)
    return tuple(num)


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
    """Per-order reduction data: rows[j] = zeta^j in the power basis."""

    def __init__(self, n):
        phi = cyclotomic_polynomial(n)
        self.n = n
        self.deg = len(phi) - 1
        # X^deg = -(phi - leading term); phi is monic.
        self.top = tuple(-c for c in phi[:-1])
        self._rows = [None] * n
        row = [0] * self.deg
        row[0] = 1
        self._rows[0] = tuple(row)

    def row(self, j):
        j %= self.n
        if self._rows[j] is None:
            # extend from the largest cached row
            k = j
            while self._rows[k] is None:
                k -= 1
            cur = list(self._rows[k])
            while k < j:
                carry = cur[-1]
                cur = [0] + cur[:-1]
                if carry:
                    for t, c in enumerate(self.top):
                        cur[t] += carry * c
                k += 1
                self._rows[k] = tuple(cur)
        return self._rows[j]


@lru_cache(maxsize=None)
def _context(n):
    if n > ORDER_CAP:
        raise IncompatibleOrders(f"cyclotomic order {n} exceeds cap {ORDER_CAP}")
    return _OrderContext(n)


class CyclotomicNumber:
    """An exact element of Q(zeta_N)."""

    __slots__ = ("order", "coeffs")
    __hash__ = None

    def __init__(self, order, coeffs):
        ctx = _context(order)
        if len(coeffs) != ctx.deg:
            raise ValueError("coefficient vector has wrong length")
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(r, order=1):
        ctx = _context(order)
        coeffs = [Fraction(r)] + [_ZERO] * (ctx.deg - 1)
        return CyclotomicNumber(order, coeffs)

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
        return {
            "order": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj):
        coeffs = [Fraction(n, d) for n, d in obj["coeffs"]]
        return CyclotomicNumber(obj["order"], coeffs)

    # -- order management ----------------------------------------------------

    def embed(self, order):
        """Image under the canonical injection Q(zeta_N) -> Q(zeta_order)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"{self.order} does not divide {order}")
        ctx = _context(order)
        step = order // self.order
        out = [_ZERO] * ctx.deg
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for t, r in enumerate(ctx.row(j * step)):
                if r:
                    out[t] += c * r
        return CyclotomicNumber(order, out)

    def _common(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(other)
        n = lcm(self.order, other.order)
        return self.embed(n), other.embed(n)

    # -- arithmetic ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __add__(self, other):
        a, b = self._common(other)
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, CyclotomicNumber) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, [c * f for c in self.coeffs])
        a, b = self._common(other)
        ctx = _context(a.order)
        deg = ctx.deg
        conv = [_ZERO] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        out = list(conv[:deg])
        for j in range(deg, 2 * deg - 1):
            c = conv[j]
            if c == 0:
                continue
            for t, r in enumerate(ctx.row(j)):
                if r:
                    out[t] += c * r
        return CyclotomicNumber(a.order, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        result = CyclotomicNumber.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inv(self):
        """Multiplicative inverse via extended Euclid in Q[X] mod Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.coeffs)
        while a and a[-1] == 0:
            a.pop()
        # extended gcd of a and phi over Q[X]
        r0, r1 = phi, a
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:  # unit: done
                c = r1[0]
                inv_coeffs = [x / c for x in s1]
                break
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        ctx = _context(self.order)
        out = [_ZERO] * ctx.deg
        for j, c in enumerate(inv_coeffs):
            if c == 0:
                continue
            if j < ctx.deg:
                out[j] += c
            else:
                for t, r in enumerate(ctx.row(j)):
                    out[t] += c * r
        return CyclotomicNumber(self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, [c / f for c in self.coeffs])
        return self * other.inv()

    def conj(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        ctx = _context(self.order)
        out = [_ZERO] * ctx.deg
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for t, r in enumerate(ctx.row((-j) % self.order)):
                if r:
                    out[t] += c * r
        return CyclotomicNumber(self.order, out)

    # -- predicates ------------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        """The Fraction value if the element is rational, else None."""
        if self.is_rational():
            return self.coeffs[0]
        return None


def zeta(order, k=1):
    """The root of unity zeta_order^k as a CyclotomicNumber."""
    ctx = _context(order)
    return CyclotomicNumber(order, ctx.row(k % order))


def zeta_sum(order, exponent_counts):
    """Assemble sum_k c_k * zeta_order^k exactly from an exponent histogram."""
    ctx = _context(order)
    out = [_ZERO] * ctx.deg
    for k, c in exponent_counts.items():
        if c == 0:
            continue
        for t, r in enumerate(ctx.row(k)):
            if r:
                out[t] += c * r
    return CyclotomicNumber(order, out)


def abs_square(z):
    """z * conj(z); lies in the real subfield, often rational."""
    return z * z.conj()


def is_root_of_unity(z):
    """The multiplicative order of z if z is a root of unity, else None.

    Decided exactly: the only roots of unity in Q(zeta_N) have order dividing
    lcm(2, N), so a divisor scan of lcm(2, N) suffices.
    """
    if z.is_zero():
        return None
    bound = lcm(2, z.order)
    if not (z ** bound).is_one():
        return None
    for d in _divisors(bound):
        if (z ** d).is_one():
            return d
    return None  # unreachable


# -- rational polynomial helpers (low degree first, Fraction coefficients) ----

def _qpoly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else _ZERO
        y = b[i] if i < len(b) else _ZERO
        out.append(x - y)
    return out


def _qpoly_divmod(a, b):
    a = list(a)
    b = _qpoly_trim(b)
    if not b:
        raise ZeroDivisionError
    q = [_ZERO] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        if i >= len(a) or a[i] == 0:
            continue
        c = a[i] / b[-1]
        q[i - (len(b) - 1)] = c
        for j, y in enumerate(b):
            a[i - (len(b) - 1) + j] -= c * y
    return q, _qpoly_trim(a)


def _qpoly_gcd(a, b):
    a, b = _qpoly_trim(a), _qpoly_trim(b)
    while b:
        _, r = _qpoly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


class IntPolynomial:
    """A polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(int(c) for c in coeffs)

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
        """P / gcd(P, P'), normalized monic (valid for monic P; exact)."""
        if self.is_zero():
            return self
        g = _qpoly_gcd([Fraction(c) for c in self.coeffs],
                       [Fraction(c) for c in self.derivative().coeffs])
        if len(g) <= 1:
            q = [Fraction(c) for c in self.coeffs]
        else:
            qq, r = _qpoly_divmod([Fraction(c) for c in self.coeffs], g)
            assert not r
            q = qq
        lead = q[-1]
        q = [c / lead for c in q]
        assert all(c.denominator == 1 for c in q)
        return IntPolynomial([c.numerator for c in q])

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
    d = 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out -= out // n
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


def _qpoly_powmod(base, exponent, modulus):
    """base^exponent mod modulus over Q[X], binary powering."""
    result = [_ONE]
    base = _qpoly_divmod(base, modulus)[1]
    while exponent:
        if exponent & 1:
            result = _qpoly_divmod(_qpoly_mul(result, base), modulus)[1]
        base = _qpoly_divmod(_qpoly_mul(base, base), modulus)[1]
        exponent >>= 1
    return result


def weil_certificate(poly, q, i, m_max=DEFAULT_WEIL_BOUND):
    """Certify that every root of poly equals zeta * sqrt(q^i), zeta a root of unity.

    Returns (m, root_orders) for the least m <= m_max with
    squarefree(poly) | T^{2m} - q^{i*m}, or None when no such m exists within
    the bound (an inconclusive outcome, not a refutation).  root_orders maps
    orders d of zeta to root counts; when q^i is not a perfect square the odd
    orders pair with their doubles (rational arithmetic cannot separate the
    sign of sqrt(q^i)), so the reported d is the least rationally certifiable
    exponent with alpha^d = q^{id/2}.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial")
    if not poly.is_monic():
        raise ValueError("polynomial must be monic")
    p0 = poly.squarefree_part()
    if p0.degree == 0:
        return 1, {}
    modulus = [Fraction(c) for c in p0.coeffs]
    qi = Fraction(q) ** i
    # u = T^2 / q^i in Q[T]/(p0); p0 | T^{2m} - q^{im}  <=>  u^m = 1.
    # If u is a root of unity its order divides lam (Kronecker bound on the
    # factor fields), so testing u^lam = 1 decides existence outright and the
    # least m is found by a divisor scan of lam.
    u = _qpoly_divmod([_ZERO, _ZERO, _ONE / qi], modulus)[1]
    lam = _root_of_unity_order_bound(p0.degree)
    if _qpoly_trim(_qpoly_sub(_qpoly_powmod(u, lam, modulus), [_ONE])):
        return None
    m = None
    for d in _divisors(lam):
        if d > m_max:
            break
        if not _qpoly_trim(_qpoly_sub(_qpoly_powmod(u, d, modulus), [_ONE])):
            m = d
            break
    if m is None:
        return None
    # per-root orders of zeta = alpha / sqrt(q^i): zeta^d = 1 iff
    # alpha^d = q^{id/2}, testable whenever q^{id/2} is rational.
    half_powers = {}
    for d in _divisors(2 * m):
        if (i * d) % 2 == 0:
            half_powers[d] = Fraction(q) ** (i * d // 2)
        else:
            root = _integer_sqrt(q**(i * d))
            if root is not None:
                half_powers[d] = Fraction(root)
    dividing = {}
    for d, val in half_powers.items():
        target = _qpoly_sub(_qpoly_powmod([_ZERO, _ONE], d, modulus), [val])
        g = _qpoly_gcd(modulus, target)
        dividing[d] = len(_qpoly_trim(g)) - 1 if _qpoly_trim(g) else 0
    orders = {}
    for d in sorted(half_powers):
        exact = dividing[d] - sum(orders.get(dd, 0) for dd in sorted(orders) if d % dd == 0)
        if exact > 0:
            orders[d] = exact
    return m, orders


def _integer_sqrt(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
