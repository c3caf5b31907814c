"""Exact cyclotomic arithmetic, Newton identities and Weil certificates."""

from fractions import Fraction

import pytest

from gausslab.exactalg import (
    CyclotomicNumber,
    IntPolynomial,
    abs_square,
    cyclotomic_polynomial,
    is_root_of_unity,
    power_sums_from_char_poly,
    power_sums_to_char_poly,
    weil_certificate,
    zeta,
    zeta_sum,
)
from gausslab.errors import NonIntegralElementarySymmetric


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
    assert (z * z.inv()).is_one()
    assert (z / z).is_one()
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
        assert (z ** order).is_one()
        for d in range(1, order):
            if order % d == 0:
                assert not (z ** d).is_one() or d == order


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


def test_integer_sqrt_is_exact_beyond_float_range():
    from gausslab.exactalg import _integer_sqrt

    assert _integer_sqrt(9**41) == 3**41  # a float square root misses it
    assert _integer_sqrt(9**400) == 3**400  # a float square root overflows
    assert _integer_sqrt(9**41 + 1) is None
    assert _integer_sqrt(-9) is None
    # alpha = 3^41 = 9^(41/2) itself: zeta = 1, one root of order 1
    assert weil_certificate(IntPolynomial([-(3**41), 1]), 9, 41) == (1, {1: 1})


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
