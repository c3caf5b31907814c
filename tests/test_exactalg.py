"""Exact cyclotomic arithmetic, Newton identities and Weil certificates."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest

from gausslab.exactalg import (
    ORDER_CAP,
    CyclotomicNumber,
    IntPolynomial,
    _context,
    _divisors,
    _int_poly_exact_div,
    _integer_sqrt,
    _root_of_unity_order_bound,
    abs_square,
    cyclotomic_polynomial,
    is_root_of_unity,
    power_sums_from_char_poly,
    power_sums_to_char_poly,
    weil_certificate,
    zeta,
    zeta_exponent,
    zeta_sum,
)
from gausslab.errors import NonIntegralElementarySymmetric, TheoremViolated


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_exponent_arithmetic():
    assert zeta(8, 1) ** 2 == zeta(4, 1)
    assert zeta(3, 1) + zeta(3, 2) == -1
    assert zeta(4, 1) * zeta(4, 1) == -1


def test_one_plus_i_times_conjugate_is_two():
    z = 1 + zeta(4, 1)
    assert (z * z.conj()).as_rational() == 2
    assert abs_square(z) == 2


def test_inverse_and_division():
    z = zeta(7, 3) + 2 * zeta(7, 5) - 3
    assert z * z.inv() == 1
    assert z / z == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(5).inv()


def test_conjugation_is_involution():
    z = zeta(12, 5) + 3 * zeta(12, 7)
    assert z.conj().conj() == z


def test_embedding_is_ring_map_and_transitive():
    a, b = zeta(6, 1), zeta(6, 5)
    n = 36
    assert (a * b).embed(n) == a.embed(n) * b.embed(n)
    assert (a + b).embed(n) == a.embed(n) + b.embed(n)
    assert a.embed(12).embed(36) == a.embed(36)


def test_is_root_of_unity_orders():
    assert is_root_of_unity(zeta(8, 1)) == 8
    assert is_root_of_unity((1 + zeta(4, 1)) ** 2 / 2) == 4
    assert is_root_of_unity(CyclotomicNumber.from_rational(2)) is None
    assert is_root_of_unity(CyclotomicNumber.from_rational(-1)) == 2
    assert is_root_of_unity(zeta(5, 2) * zeta(3, 1)) == 15


def test_root_of_unity_products_lcm_order():
    for n1, k1, n2, k2 in [(8, 3, 3, 1), (5, 2, 4, 1), (9, 1, 2, 1)]:
        z = zeta(n1, k1) * zeta(n2, k2)
        order = is_root_of_unity(z)
        assert order is not None
        assert z ** order == 1
        for d in range(1, order):
            if order % d == 0:
                assert z ** d != 1 or d == order


def _powering_root_order(z):
    """The powering definition is_root_of_unity replaced, kept as an oracle:
    z^L = 1 with L = lcm(2, N), then the least divisor d of L with z^d = 1."""
    if z.is_zero():
        return None
    bound = lcm(2, z.order)
    if z**bound != 1:
        return None
    return next(d for d in range(1, bound + 1) if bound % d == 0 and z**d == 1)


LOOKUP_ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 25, 30]


@pytest.mark.parametrize("n", LOOKUP_ORDERS)
def test_root_of_unity_lookup_matches_powering(n):
    for k in range(n):
        for z in (zeta(n, k), -zeta(n, k)):
            order = is_root_of_unity(z)
            assert order == _powering_root_order(z) is not None
    one = CyclotomicNumber.one(n)
    for z in (0 * one, 2 * one, one + zeta(n, 1)):
        assert is_root_of_unity(z) == _powering_root_order(z)
    if n % 4 == 0:
        # |(3 + 4i)/5| = 1, but it is not a root of unity
        z = (3 + 4 * zeta(4, 1)).embed(n) / 5
        assert abs_square(z) == 1
        assert is_root_of_unity(z) is None
        assert _powering_root_order(z) is None


def test_abs_square_of_root_of_unity_is_one():
    assert abs_square(zeta(16, 5)).as_rational() == 1


def test_as_rational():
    assert zeta(3, 1).as_rational() is None
    assert (zeta(3, 1) + zeta(3, 2) + 4).as_rational() == 3
    assert CyclotomicNumber.from_rational(Fraction(2, 3)).as_rational() == Fraction(2, 3)


def test_zeta_sum_histogram():
    assert zeta_sum(4, {0: 1, 1: 1}) == 1 + zeta(4, 1)
    assert zeta_sum(3, {0: 1, 1: 1, 2: 1}).is_zero()


def test_serialization_round_trip():
    z = zeta(8, 3) / 2 + 5
    again = CyclotomicNumber.from_json(z.to_json())
    assert again == z


def test_newton_identities_examples():
    assert power_sums_to_char_poly([0, -4], 2).coeffs == (2, 0, 1)
    assert power_sums_to_char_poly([3, 3, 3], 3).coeffs == (-1, 3, -3, 1)
    assert power_sums_to_char_poly([1], 1).coeffs == (-1, 1)


def test_newton_forward_backward_consistency():
    poly = IntPolynomial([6, -11, 6, -1][::-1])  # (T-1)(T-2)(T-3) = T^3-6T^2+11T-6
    poly = IntPolynomial([-6, 11, -6, 1])
    s = power_sums_from_char_poly(poly, 6)
    assert s[:3] == [6, 14, 36]  # 1+2+3, 1+4+9, 1+8+27
    assert power_sums_to_char_poly(s, 3) == poly


def test_newton_non_integral_detection():
    with pytest.raises(NonIntegralElementarySymmetric) as err:
        power_sums_to_char_poly([1, 2], 2)  # e_2 = (1-2)/2 not integral
    assert err.value.k == 2


def test_weil_certificate_examples():
    m, orders = weil_certificate(IntPolynomial([2, 0, 1]), 2, 1)
    assert m == 2
    assert orders == {4: 2}
    assert weil_certificate(IntPolynomial([-2, 1]), 2, 2)[0] == 1
    assert weil_certificate(IntPolynomial([-3, 1]), 2, 1) is None


def test_weil_certificate_returns_early_on_non_weil_input(monkeypatch):
    # a root of a certified p0 has |alpha|^2 = q^i, so its coefficients obey
    # c_0^2 = q^(i d) and c_k^2 <= C(d, k)^2 q^(i (d - k)); input that breaks
    # them is refused before any powering in Q[T]/(p0)
    import gausslab.exactalg as exactalg

    def powering(coeffs):
        raise AssertionError("the Weil ring was built")

    monkeypatch.setattr(exactalg, "_OrderContext", powering)
    # T^16 + T + 3 at q = 2: powering to the Kronecker bound ran past 120 s
    assert weil_certificate(IntPolynomial([3, 1] + [0] * 14 + [1]), 2, 1) is None
    # c_0^2 = 4 = 2^2 holds, but c_1^2 = 25 > C(2, 1)^2 * 2
    assert weil_certificate(IntPolynomial([2, 5, 1]), 2, 1) is None
    assert weil_certificate(IntPolynomial([2, 0, 1]) * IntPolynomial([1, 0, 1]), 2, 1) is None
    # T^2 + 2T + 2 (roots -1 +- i, |alpha|^2 = 2) meets them and reaches the ring
    with pytest.raises(AssertionError, match="the Weil ring was built"):
        weil_certificate(IntPolynomial([2, 2, 1]), 2, 1)


def test_weil_certificate_refuses_modulo_a_prime_first(monkeypatch):
    # T^d + T + 2^(d/2) at q = 2 meets the coefficient bounds but is no Weil
    # polynomial: u^lam = 1 already fails in F_ell[T]/(p0), so the exact
    # powering in Q[T]/(p0), whose denominators grow like q^(i lam), never runs
    import time

    import gausslab.exactalg as exactalg

    exact = []
    power = exactalg._OrderContext.power

    def spy(self, a, k, ell=None):
        if ell is None:
            exact.append(k)
        return power(self, a, k, ell)

    monkeypatch.setattr(exactalg._OrderContext, "power", spy)
    for d in (8, 10, 12):
        start = time.perf_counter()
        assert weil_certificate(IntPolynomial([2 ** (d // 2), 1] + [0] * (d - 2) + [1]), 2, 1) is None
        assert time.perf_counter() - start < 0.5, d
    assert exact == []
    # a Weil polynomial passes the check and is still decided exactly
    assert weil_certificate(IntPolynomial([2, 2, 1]), 2, 1) == (4, {8: 2})
    assert exact
    # with q a multiple of ell there is no check, and the exact divisor scan
    # decides alone
    monkeypatch.setattr(exactalg, "_ELL", 2)
    exact.clear()
    assert weil_certificate(IntPolynomial([16, 1] + [0] * 6 + [1]), 2, 1) is None
    assert exact


def test_int_polynomial_rejects_non_integers():
    # no silent truncation: 2.7 and "2" are not coefficients, nor is True
    for coeffs in ([2.7, 0, 1], ["2", 0, True], [1, True], [Fraction(2), 1], [1, 0.0]):
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)
    assert IntPolynomial([2, 0, 1, 0]).coeffs == (2, 0, 1)


def test_integer_sqrt_is_exact_beyond_float_range():
    from gausslab.exactalg import _integer_sqrt

    assert _integer_sqrt(9**41) == 3**41  # a float square root misses it
    assert _integer_sqrt(9**400) == 3**400  # a float square root overflows
    assert _integer_sqrt(9**41 + 1) is None
    assert _integer_sqrt(-9) is None
    # alpha = 3^41 = 9^(41/2) itself: zeta = 1, one root of order 1
    assert weil_certificate(IntPolynomial([-(3**41), 1]), 9, 41) == (1, {1: 1})


def test_weil_certificate_requires_int_q_and_i():
    poly = IntPolynomial([2, 0, 1])
    for q, i in [(0, 1), (1, 1), (-2, 1), (2, 0), (2, -1), (2.0, 1), (2, 1.0), (True, 1),
                 (2, True)]:
        with pytest.raises(ValueError):
            weil_certificate(poly, q, i)


def test_weil_certificate_trivial_poly():
    assert weil_certificate(IntPolynomial([1]), 2, 1) == (1, {})


def test_weil_certificate_products_and_squarefree():
    p1 = IntPolynomial([2, 0, 1])   # T^2 + 2
    p2 = IntPolynomial([-2, 0, 1])  # T^2 - 2
    prod = p1 * p2
    m, _ = weil_certificate(prod, 2, 1)
    assert m == 2
    square = p1 * p1
    m2, _ = weil_certificate(square, 2, 1)
    assert m2 == 2  # squarefree part governs
    mixed = p1 * IntPolynomial([-3, 1])
    assert weil_certificate(mixed, 2, 1) is None


def test_order_below_one_is_rejected():
    for n in (0, -4):
        with pytest.raises(ValueError):
            _context(n)
        with pytest.raises(ValueError):
            zeta(n)


def test_float_scalars_raise_type_error():
    # a float is not exact: it has no numerator and denominator
    with pytest.raises(TypeError):
        CyclotomicNumber.from_rational(0.5)
    with pytest.raises(TypeError):
        zeta(4) * 0.5
    with pytest.raises(TypeError):
        0.5 * zeta(4)
    with pytest.raises(TypeError):
        zeta(4) / 0.5
    with pytest.raises(TypeError):
        CyclotomicNumber(4, [0.5, 0])
    assert zeta(4) != 0.5 and CyclotomicNumber.from_rational(1, 4) != 1.0


def test_dense_order_225_inverse():
    rng = random.Random(225)
    z = CyclotomicNumber(225, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 7))
                               for _ in range(120)])
    assert z * z.inv() == 1
    assert (z.inv() * z ** 2) == z


def test_order_cap_enforced():
    from gausslab.errors import IncompatibleOrders

    with pytest.raises(IncompatibleOrders):
        zeta(2**17, 1)


def test_int_polynomial_ops():
    a = IntPolynomial([1, 2, 1])
    b = IntPolynomial([1, 1])
    assert a == b * b
    assert a.squarefree_part() == b
    assert a.derivative() == IntPolynomial([2, 2])
    assert a.evaluate(3) == 16


def test_squarefree_invariants_survive_optimize(monkeypatch):
    # typed errors, not asserts: both checks still fire under python -O
    with pytest.raises(TheoremViolated):
        IntPolynomial([-1, 0, 2]).squarefree_part()  # 2T^2 - 1 is not monic
    import gausslab.exactalg as exactalg

    # a "gcd" that does not divide T^2 - 1 leaves a remainder
    monkeypatch.setattr(exactalg, "_int_poly_gcd", lambda a, b: [2, 1])
    with pytest.raises(TheoremViolated):
        IntPolynomial([-1, 0, 1]).squarefree_part()


# -- reference oracle: Fraction-coefficient polynomials over Q ----------------
# The helpers, the Euclid inverse, squarefree part and Weil certificate that
# the library ran before its exact algebra became integer-only; test-only.

def _qpoly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _qpoly_divmod(a, b):
    a, b = list(a), _qpoly_trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        if a[i] == 0:
            continue
        c = Fraction(a[i]) / b[-1]
        q[i - (len(b) - 1)] = c
        for j, y in enumerate(b):
            a[i - (len(b) - 1) + j] -= c * y
    return q, _qpoly_trim(a)


def _qpoly_gcd(a, b):
    a, b = _qpoly_trim(a), _qpoly_trim(b)
    while b:
        a, b = b, _qpoly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a] if a else a


def _qpoly_powmod(base, exponent, modulus):
    result = [Fraction(1)]
    base = _qpoly_divmod(base, modulus)[1]
    while exponent:
        if exponent & 1:
            result = _qpoly_divmod(_qpoly_mul(result, base), modulus)[1]
        base = _qpoly_divmod(_qpoly_mul(base, base), modulus)[1]
        exponent >>= 1
    return result


def _fraction_squarefree_part(poly):
    """P / gcd(P, P') over Q, normalized monic; None when it is not integral."""
    p = [Fraction(c) for c in poly.coeffs]
    g = _qpoly_gcd(p, [Fraction(c) for c in poly.derivative().coeffs])
    q = _qpoly_divmod(p, g)[0] if len(g) > 1 else p
    q = [c / q[-1] for c in q]
    return IntPolynomial([int(c) for c in q]) if all(c.denominator == 1 for c in q) else None


def _fraction_weil_certificate(poly, q, i, m_max=2 * lcm(*range(1, 25))):
    modulus = [Fraction(c) for c in _fraction_squarefree_part(poly).coeffs]
    if len(modulus) == 1:
        return 1, {}
    one = [Fraction(1)]
    u = _qpoly_divmod([0, 0, Fraction(1, q**i)], modulus)[1]
    lam = _root_of_unity_order_bound(len(modulus) - 1)
    if _qpoly_powmod(u, lam, modulus) != one:
        return None
    m = None
    for d in _divisors(lam):
        if d > m_max:
            break
        if _qpoly_powmod(u, d, modulus) == one:
            m = d
            break
    if m is None:
        return None
    half_powers = {}
    for d in _divisors(2 * m):
        if (i * d) % 2 == 0:
            half_powers[d] = Fraction(q) ** (i * d // 2)
        elif _integer_sqrt(q ** (i * d)) is not None:
            half_powers[d] = Fraction(_integer_sqrt(q ** (i * d)))
    orders = {}
    for d in sorted(half_powers):
        target = _qpoly_sub(_qpoly_powmod([0, 1], d, modulus), [half_powers[d]])
        g = _qpoly_trim(_qpoly_gcd(modulus, target))
        exact = (len(g) - 1 if g else 0) - sum(
            orders.get(dd, 0) for dd in sorted(orders) if d % dd == 0)
        if exact > 0:
            orders[d] = exact
    return m, orders


def _weil_cases():
    """(poly, q): seeded random-curve L-polynomials over F_2, F_3, F_4 and F_5,
    products of them with repeated factors, and uncertifiable polynomials."""
    from gausslab.fields import make_field
    from gausslab.varieties import random_curve_spec, zeta_pipeline

    cases = []
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        field = make_field(p, m)
        for seed in range(3):
            cases.append((zeta_pipeline(random_curve_spec(field, seed)).l_poly, field.q))
    t2 = IntPolynomial([2, 0, 1])
    for poly, q in cases[::3]:
        cases += [(poly * poly, q), (poly * poly * t2, q), (poly * IntPolynomial([q, 1]), q)]
    cases += [(t2 * t2 * t2, 2), (IntPolynomial([-3, 1]) * t2, 2), (IntPolynomial([1, 1, 1]), 5)]
    return cases


def test_integer_certificate_matches_fraction_reference():
    cases = _weil_cases()
    assert any(weil_certificate(poly, q, 1) is None for poly, q in cases)
    for poly, q in cases:
        assert poly.squarefree_part() == _fraction_squarefree_part(poly), poly
        for i in (1, 2, 3):
            assert weil_certificate(poly, q, i) == _fraction_weil_certificate(poly, q, i), (poly, q, i)
        assert weil_certificate(poly, q, 1, m_max=1) == _fraction_weil_certificate(poly, q, 1, 1)


# -- reference oracle: the Fraction-coefficient element ----------------------

class _FractionCyc:
    """The element of Q(zeta_N) with one Fraction per power-basis coefficient,
    as CyclotomicNumber stored it before it kept an integer vector over one
    common denominator; a test-only reference."""

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @staticmethod
    def from_rational(r, order=1):
        deg = len(cyclotomic_polynomial(order)) - 1
        return _FractionCyc(order, [Fraction(r)] + [Fraction(0)] * (deg - 1))

    def _fold(self, order, terms):
        ctx = _context(order)
        out = [Fraction(0)] * ctx.deg
        for k, c in terms:
            if c:
                for t, r in enumerate(ctx.row(k)):
                    if r:
                        out[t] += c * r
        return _FractionCyc(order, out)

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.as_rational()})"
        terms = [str(c) if j == 0 else f"{c}*z{self.order}^{j}"
                 for j, c in enumerate(self.coeffs) if c != 0]
        return "Cyc(" + " + ".join(terms) + ")"

    def to_json(self):
        return {"order": self.order,
                "coeffs": [[c.numerator, c.denominator] for c in self.coeffs]}

    def embed(self, order):
        if order == self.order:
            return self
        step = order // self.order
        return self._fold(order, ((j * step, c) for j, c in enumerate(self.coeffs)))

    def _common(self, other):
        if not isinstance(other, _FractionCyc):
            other = _FractionCyc.from_rational(other)
        n = lcm(self.order, other.order)
        return self.embed(n), other.embed(n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __add__(self, other):
        a, b = self._common(other)
        return _FractionCyc(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return _FractionCyc(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _FractionCyc(self.order, [c * other for c in self.coeffs])
        a, b = self._common(other)
        conv = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    conv[i + j] += x * y
        return a._fold(a.order, enumerate(conv))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _FractionCyc(self.order, [c / Fraction(other) for c in self.coeffs])
        return self * other.inv()

    def inv(self):
        """Extended Euclid in Q[X] mod Phi_N."""
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1, s0, s1 = _qpoly_trim(self.coeffs), [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _qpoly_divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        return self._fold(self.order, ((j, x / r1[0]) for j, x in enumerate(s1)))

    def conj(self):
        return self._fold(self.order, ((-j, c) for j, c in enumerate(self.coeffs)))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        return self.coeffs[0] if self.is_rational() else None


PARTNER_ORDER = {1: 2, 2: 3, 3: 4, 4: 6, 5: 3, 8: 12, 9: 6, 12: 8, 25: 5, 30: 4, 900: 4}
ORACLE_ORDERS = list(PARTNER_ORDER)
SCALARS = [3, -2, 0, Fraction(-5, 6), Fraction(2, 3), Fraction(-1, 2)]


def _agrees(z, ref):
    """z matches the reference and is canonical: den > 0, gcd(den, *nums) == 1."""
    assert all(type(c) is int for c in z.nums) and type(z.den) is int
    assert z.den > 0 and gcd(z.den, *z.nums) == 1
    assert len(z.nums) == len(cyclotomic_polynomial(z.order)) - 1
    assert z.order == ref.order and z.coeffs == ref.coeffs
    assert repr(z) == repr(ref)
    assert json.dumps(z.to_json()) == json.dumps(ref.to_json())
    assert (z.is_zero(), z == 1, z.is_rational(), z.as_rational()) == (
        ref.is_zero(), ref.is_one(), ref.is_rational(), ref.as_rational())


def _seeded_pairs(order, seed):
    """(CyclotomicNumber, reference) pairs: zero, one, a root of unity, and
    random vectors with integral coefficients and with denominators 2, 3, 6."""
    rng = random.Random(seed)
    deg = len(cyclotomic_polynomial(order)) - 1
    vectors = [[0] * deg, [1] + [0] * (deg - 1), list(_context(order).row(order - 1))]
    for dens in ([1], [2], [1, 3], [1, 2, 3, 6]):
        vectors.append([Fraction(rng.randrange(-4, 5), rng.choice(dens)) for _ in range(deg)])
    return [(CyclotomicNumber(order, v), _FractionCyc(order, v)) for v in vectors]


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_integer_vector_arithmetic_matches_fraction_reference(order):
    pairs = _seeded_pairs(order, order)
    # partners of another order: sums, products and == go through lcm orders
    other = _seeded_pairs(PARTNER_ORDER[order], order + 1)
    # the Fraction reference takes 0.3 s per product at degree 240
    heavy = order == 900
    partners = pairs[-1:] + other[-1:] if heavy else pairs[-2:] + other[-2:]
    for z, ref in pairs:
        _agrees(z, ref)
        _agrees(-z, -ref)
        _agrees(z.conj(), ref.conj())
        for m in (2 * order,) if heavy else (2 * order, 3 * order):
            _agrees(z.embed(m), ref.embed(m))
            assert z == z.embed(m)
        for s in SCALARS:
            _agrees(z * s, ref * s)
            _agrees(s * z, s * ref)
            _agrees(z + s, ref + s)
            _agrees(s - z, s - ref)
            assert (z == s) == (ref == s)
            if s:
                _agrees(z / s, ref / s)
                _agrees(z / s * s, ref)
        for w, wref in partners:
            _agrees(z + w, ref + wref)
            _agrees(z - w, ref - wref)
            _agrees(z * w, ref * wref)
            assert (z == w) == (ref == wref)
        # the reference's Fraction Euclid takes minutes at degree 240
        if not heavy and not ref.is_zero():
            _agrees(z.inv(), ref.inv())
            w, wref = other[-1]
            _agrees(w / z, wref / ref)
        with pytest.raises(ZeroDivisionError):
            z / 0
    # a root-of-unity vector over a denominator is not a root of unity
    half = zeta(order, 1) / 2
    assert half.nums == _context(order).row(1) and half.den == 2
    assert is_root_of_unity(half) is None and is_root_of_unity(-half) is None


# -- reference oracle: the dense recurrence of Phi_N ---------------------------
# Phi_N by exact division over the divisors of N, and the table of every
# X^k mod Phi_N, k < N, by the recurrence X^(k+1) = X * X^k: how the library
# reduced Q(zeta_N) before it went through Q(zeta_rad N); test-only.

@lru_cache(maxsize=None)
def _divided_cyclotomic(n):
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        num = _int_poly_exact_div(num, _divided_cyclotomic(d))
    return tuple(num)


def _dense_rows(n):
    f = _divided_cyclotomic(n)
    rows = [(1,) + (0,) * (len(f) - 2)]
    while len(rows) < n:
        cur = rows[-1]
        nxt = [0, *cur[:-1]]
        for t, c in enumerate(f[:-1]):
            nxt[t] -= cur[-1] * c
        rows.append(tuple(nxt))
    return rows


def _dense_order(nums, table, n):
    """The order of nums as a root of unity by the dense table {row: k}, else None."""
    bound = lcm(2, n)
    k, half = table.get(nums), 0
    if k is None:
        k, half = table.get(tuple(-c for c in nums)), bound // 2
        if k is None:
            return None
    return bound // gcd(k * (bound // n) + half, bound)


RADICAL_ORDERS = [1, 2, 3, 4, 8, 9, 12, 16, 25, 27, 30, 36, 64, 81, 100, 210, 225, 256, 625, 900]


@pytest.mark.parametrize("n", RADICAL_ORDERS)
def test_radical_rows_match_the_dense_recurrence(n):
    rows = _dense_rows(n)
    table = {row: k for k, row in enumerate(rows)}
    assert cyclotomic_polynomial(n) == _divided_cyclotomic(n)
    ctx = _context(n)
    assert ctx.deg == len(rows[0])
    assert [ctx.row(k) for k in range(n)] == rows
    assert ctx.row(n + 1) == ctx.row(-(n - 1)) == rows[1 % n]
    rng = random.Random(n)
    for size in (1, 5, 3 * n):
        hist = {rng.randrange(-2 * n, 2 * n): rng.randrange(-3, 4) for _ in range(size)}
        dense = [sum(c * rows[k % n][t] for k, c in hist.items()) for t in range(ctx.deg)]
        assert zeta_sum(n, hist) == CyclotomicNumber(n, dense), hist
    for k in range(n):
        z = zeta(n, k)
        assert z.nums == rows[k] and z.den == 1
        # zeta_N^k has order N / gcd(k, N); -zeta_N^k = zeta_2N^(2k + N)
        assert is_root_of_unity(z) == n // gcd(k, n)
        assert is_root_of_unity(-z) == 2 * n // gcd(2 * k + n, 2 * n)
        assert zeta_exponent(z) == k and zeta_exponent(z / 2) is None
        assert is_root_of_unity(z / 2) is None and is_root_of_unity(-z / 3) is None
    for _ in range(min(4 * n, 400)):
        j, k = rng.randrange(n), rng.randrange(n)
        for z in (zeta(n, j) + zeta(n, k), zeta(n, j) - zeta(n, k), 2 * zeta(n, j)):
            assert is_root_of_unity(z) == _dense_order(z.nums, table, n), (j, k, z)
            assert zeta_exponent(z) == table.get(z.nums)
    assert is_root_of_unity(CyclotomicNumber.zero(n)) is None
    # every row came from at most r = rad N recurrence rows of length phi(r)
    r = lcm(*(p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))))
    assert ctx.s * r == n and len(ctx._rows) <= r and len(ctx._rows[0]) * ctx.s == ctx.deg


def test_the_order_cap_builds_no_dense_rows():
    # N = 2^16 = ORDER_CAP: its dense rows would take N * phi(N) = 2^31
    # cells; through Q(zeta_2) every step stays far below 32 MB
    import tracemalloc

    from gausslab import cli
    from gausslab.quadform import FiniteAbelianGroup, random_nondegenerate

    n = ORDER_CAP
    _context.cache_clear()
    cyclotomic_polynomial.cache_clear()
    tracemalloc.start()
    try:
        rng = random.Random(n)
        hist = {rng.randrange(n): rng.randrange(-3, 4) for _ in range(2000)}
        z = zeta_sum(n, hist)
        assert sum(map(bool, z.nums)) <= len(hist) and is_root_of_unity(z) is None
        for k in (0, 1, 3, n // 2, n // 2 + 1, n - 1, rng.randrange(n)):
            assert is_root_of_unity(zeta(n, k)) == n // gcd(k, n)
            assert is_root_of_unity(-zeta(n, k)) == 2 * n // gcd(2 * k + n, 2 * n)
        form = random_nondegenerate(FiniteAbelianGroup([256]), 1)
        assert form.value_order == n
        report = cli.dispatch("gauss-verify", {"form": {
            "invariant_factors": [256], "value_order": n,
            "values": {key: form.exponents[i] for key, i in form.group.key_index().items()}}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ok"] and report["result"]["abs_square"] == "256", report["checks"]
    assert peak < 32 * 2**20, peak
