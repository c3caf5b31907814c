"""Finite fields, towers, additive polynomials and length-2 Witt vectors."""

import random

import pytest

from gausslab.errors import (
    FieldMismatch,
    NonIrreducibleModulus,
    NotASubfield,
    NotPrime,
    ZeroPolynomial,
)
from gausslab.fields import (
    AdditivePolynomial,
    WittVector2,
    _pmod,
    absolute_trace,
    absolute_trace_int,
    additive_kernel,
    extension,
    gamma_carry,
    gamma_value,
    make_field,
    relative_trace,
    subfield_elements,
    witt_one,
    witt_to_zp2,
    witt_trace,
    witt_verschiebung,
    witt_zero,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F16 = make_field(2, 4)


def test_make_field_basics():
    assert make_field(2, 1).modulus == (0, 1)
    assert F4.modulus == (1, 1, 1)  # the unique degree-2 irreducible mod 2
    w = F4.gen()
    assert w * w == w + F4.one()
    with pytest.raises(NonIrreducibleModulus):
        make_field(2, 2, (1, 0, 1))  # X^2+1 = (X+1)^2 mod 2
    with pytest.raises(NotPrime):
        make_field(4, 1)


def test_make_field_instance_unification():
    assert make_field(2, 2) is make_field(2, 2, (1, 1, 1))


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{p}-{m}") for p, m in [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 5), (2, 6)]]
    + [pytest.param(2, 4, (1, 0, 0, 1, 1), id="2-4-X4+X3+1")],
)
def test_field_axioms_exhaustive(p, m, modulus):
    # pairs exhaustively for all shapes up to 64 points; triples exhaustively
    # up to 27 points, on a fixed deterministic sample beyond
    field = make_field(p, m, modulus)
    els = list(field.elements())
    assert len(els) == p**m
    for a in els:
        if a:
            assert a * a.inv() == field.one()
        assert a + (-a) == field.zero()
        assert a * field.one() == a and a + field.zero() == a
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
    if len(els) <= 27:
        triples = ((a, b, c) for a in els for b in els for c in els)
    else:
        rng = random.Random(7)
        triples = (
            (rng.choice(els), rng.choice(els), rng.choice(els)) for _ in range(20000)
        )
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# reference definitions of the field kernels, kept as oracles for the
# cached F_p-linear tables in fields.py

def _reference_mul(a, b):
    """Schoolbook product reduced mod p at every step, then _pmod."""
    field = a.field
    prod = [0] * (2 * field.m - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] = (prod[i + j] + x * y) % field.p
    red = _pmod(tuple(prod), field.modulus, field.p)
    return red + (0,) * (field.m - len(red))


def _reference_trace(x):
    """Sum over the Frobenius orbit x, x^p, ..., x^(p^(m-1))."""
    acc, y = x.field.zero(), x
    for _ in range(x.field.m):
        acc, y = acc + y, y**x.field.p
    assert not any(acc.coeffs[1:])  # the orbit sum lies in F_p
    return acc.coeffs[0]


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{p}-{m}") for p, m in [(2, 2), (2, 4), (2, 8), (3, 2), (3, 4), (5, 2)]]
    + [pytest.param(2, 4, (1, 0, 0, 1, 1), id="2-4-X4+X3+1")],
)
def test_kernels_match_reference_definitions(p, m, modulus):
    field = make_field(p, m, modulus)
    els = list(field.elements())
    if len(els) <= 64:
        pairs = [(a, b) for a in els for b in els]
    else:
        rng = random.Random(5)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(5000)]
    for a, b in pairs:
        assert (a * b).coeffs == _reference_mul(a, b)
    for x in els:
        trace = _reference_trace(x)
        assert absolute_trace_int(x) == trace and absolute_trace(x).coeffs == (trace,)
        for k in (0, 1, m - 1, m, m + 1, -1):
            expected = x ** (p ** (k % m if k < 0 else k))
            assert x.frobenius(k) == expected
            assert x.pth_root(k).frobenius(k) == x
            assert x.frobenius(k).pth_root(k) == x
    for s in range(1, m + 1):
        if m % s == 0:
            fixed = [x for x in els if x ** (p**s) == x]
            assert subfield_elements(field, s) == fixed
    if len(els) <= 16:
        # x**k against repeated multiplication by x, or by the inverse found
        # by search for k < 0
        for x in els:
            acc = field.one()
            for k in range(2 * len(els) + 1):
                assert x**k == acc
                acc = acc * x
            if not x:
                with pytest.raises(ZeroDivisionError):
                    x**-1
                continue
            (x_inv,) = [y for y in els if x * y == field.one()]
            acc = field.one()
            for k in (-1, -2, -3):
                acc = acc * x_inv
                assert x**k == acc


def test_multiplicative_group_cyclic_spot_check():
    # orders of elements divide q-1 and some element attains it
    for field in (F8, F9):
        orders = set()
        for a in field.elements():
            if not a:
                continue
            o = 1
            cur = a
            while cur != field.one():
                cur = cur * a
                o += 1
            orders.add(o)
            assert (field.q - 1) % o == 0
        assert max(orders) == field.q - 1


def test_absolute_trace_examples():
    w = F4.gen()
    assert absolute_trace_int(w) == 1  # w + w^2 = 1
    assert absolute_trace_int(F4.zero()) == 0
    assert absolute_trace_int(F4.one()) == 0  # 1 + 1 in char 2
    tr = absolute_trace(w)
    assert tr.field.p == 2 and tr.field.m == 1


def test_trace_additive_and_frobenius_invariant():
    for x in F9.elements():
        for y in F9.elements():
            assert absolute_trace_int(x + y) == (absolute_trace_int(x) + absolute_trace_int(y)) % 3
        assert absolute_trace_int(x.frobenius()) == absolute_trace_int(x)


def test_relative_trace_tower():
    for x in F16.elements():
        t1 = relative_trace(x, 2)
        assert relative_trace(t1, 1, source=2) == relative_trace(x, 1)
    for x in F4.elements():
        assert relative_trace(x, 2) == x  # identity tower
    with pytest.raises(NotASubfield):
        relative_trace(F16.gen(), 3)


def test_cross_term_trace_rewrite_regression():
    # the trace rewrite behind all pairing normalizations: Tr(z) = Tr(z^2)
    # gives Tr(x y^2) = Tr(x^2 y) over F_4, exhaustively
    for x in F4.elements():
        for y in F4.elements():
            assert absolute_trace_int(x * y * y) == absolute_trace_int(x * x * y)
            assert absolute_trace_int(x) == absolute_trace_int(x * x)


def test_embedding_ring_hom_and_section():
    big, emb = extension(F4, 2)
    assert big is F16
    for x in F4.elements():
        assert emb.section(emb(x)) == x
        for y in F4.elements():
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
    with pytest.raises(FieldMismatch):
        emb(F8.gen())


def test_subfield_elements():
    sub = subfield_elements(F16, 2)
    assert len(sub) == 4
    for x in sub:
        assert x.frobenius(2) == x


def test_gamma_carry_examples():
    assert gamma_carry(2) == {(1, 1): 1}
    assert gamma_carry(3) == {(1, 2): 2, (2, 1): 2}
    for x in F9.elements():
        assert not gamma_value(x, F9.zero())


def test_gamma_carry_p5():
    coeffs = gamma_carry(5)
    # -(binom(5,i)/5) mod 5: binom: 5,10,10,5 -> /5: 1,2,2,1 -> negated: 4,3,3,4
    assert coeffs == {(1, 4): 4, (2, 3): 3, (3, 2): 3, (4, 1): 4}


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_witt_ring_axioms_exhaustive(field):
    vectors = [WittVector2(field, a, b) for a in field.elements() for b in field.elements()]
    one = witt_one(field)
    for u in vectors:
        assert u * one == u
        assert (u + (-u)).is_zero()
        for v in vectors:
            assert u + v == v + u
            assert u * v == v * u
            for t in vectors:
                assert (u + v) + t == u + (v + t)
                assert (u * v) * t == u * (v * t)
                assert u * (v + t) == u * v + u * t


def test_witt_ring_axioms_f9():
    # pairs exhaustive; triples on a fixed deterministic sample (desk budget)
    vectors = [WittVector2(F9, a, b) for a in F9.elements() for b in F9.elements()]
    one = witt_one(F9)
    for u in vectors:
        assert u * one == u
        assert (u + (-u)).is_zero()
        for v in vectors:
            assert u + v == v + u
            assert u * v == v * u
    rng = random.Random(11)
    for _ in range(4000):
        u, v, t = (rng.choice(vectors) for _ in range(3))
        assert (u + v) + t == u + (v + t)
        assert (u * v) * t == u * (v * t)
        assert u * (v + t) == u * v + u * t


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_prime_iso_zp2(p):
    field = make_field(p, 1)
    vectors = [WittVector2(field, a, b) for a in field.elements() for b in field.elements()]
    iso = {v: witt_to_zp2(v) for v in vectors}
    assert sorted(iso.values()) == list(range(p * p))
    assert iso[witt_one(field)] == 1
    for u in vectors:
        for v in vectors:
            assert iso[u + v] == (iso[u] + iso[v]) % (p * p)
            assert iso[u * v] == (iso[u] * iso[v]) % (p * p)


def test_witt_operator_identities():
    # F(x,y) = (x^p, y^p); V(a) = (0,a); R(x,y) = x; FV = VF = p
    from gausslab.fields import witt_frobenius, witt_restriction

    for a in F4.elements():
        for b in F4.elements():
            w = WittVector2(F4, a, b)
            assert witt_frobenius(w) == WittVector2(F4, a * a, b * b)
            assert witt_restriction(w) == a
            assert w + w == WittVector2(F4, F4.zero(), a * a)  # p*(x,y) = (0, x^p)
    for a in F4.elements():
        assert witt_frobenius(witt_verschiebung(a)) == witt_verschiebung(a.frobenius())


def test_witt_frobenius_is_ring_hom():
    from gausslab.fields import witt_frobenius

    vectors = [WittVector2(F4, a, b) for a in F4.elements() for b in F4.elements()]
    for u in vectors:
        for v in vectors:
            assert witt_frobenius(u + v) == witt_frobenius(u) + witt_frobenius(v)
            assert witt_frobenius(u * v) == witt_frobenius(u) * witt_frobenius(v)


def test_witt_trace_examples():
    assert witt_trace(WittVector2(F2, F2.one(), F2.zero())) == 1
    for a in F4.elements():
        assert witt_trace(witt_verschiebung(a)) == (2 * absolute_trace_int(a)) % 4
    vectors = [WittVector2(F4, a, b) for a in F4.elements() for b in F4.elements()]
    for u in vectors:
        for v in vectors:
            assert witt_trace(u + v) == (witt_trace(u) + witt_trace(v)) % 4


def test_additive_polynomial_evaluation_additive():
    f = AdditivePolynomial(F4, {0: F4.gen(), 1: F4.one(), 2: F4.gen() ** 2})
    big, emb = extension(F4, 2)
    lifted = f.lift(emb)
    els = list(big.elements())
    for u in els:
        for v in els:
            assert lifted.evaluate(u + v) == lifted.evaluate(u) + lifted.evaluate(v)


def test_additive_polynomial_composition():
    f = AdditivePolynomial(F4, {1: F4.one()})
    g = AdditivePolynomial(F4, {0: F4.gen(), 1: F4.one()})
    fg = f.compose(g)
    for x in F4.elements():
        assert fg.evaluate(x) == f.evaluate(g.evaluate(x))
    assert fg.top_exponent() == 2  # degrees multiply


def test_additive_kernel_examples():
    # X^q - X over F_{q^n}: kernel = F_q
    f = AdditivePolynomial(F4, {1: F4.one(), 0: F4.one()})  # X^2 + X over F4
    assert sorted(e.as_int() for e in additive_kernel(f, 1)) == [0, 1]
    fq = AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()})
    assert len(additive_kernel(fq, 2)) == 2
    ident = AdditivePolynomial(F4, {0: F4.one()})
    assert [e.as_int() for e in additive_kernel(ident, 1)] == [0]
    with pytest.raises(ZeroPolynomial):
        additive_kernel(AdditivePolynomial(F4, {}), 1)


def test_additive_kernel_is_subspace():
    f = AdditivePolynomial(F2, {2: F2.one(), 0: F2.one()})  # X^4 + X
    ker = additive_kernel(f, 2)
    # over the splitting field the size is p^(i_max - v): here 2^(2-0)
    assert len(ker) == 4
    kset = {k.coeffs for k in ker}
    for a in ker:
        for b in ker:
            assert (a + b).coeffs in kset


def test_additive_kernel_splitting_size_with_defect():
    # f = X^8 + X^2 = Frob o (X^4 + X): inseparability defect v = 1,
    # size p^(i_max - v) = 2^(3-1) over the splitting field
    f = AdditivePolynomial(F2, {3: F2.one(), 1: F2.one()})
    assert len(additive_kernel(f, 2)) == 4


def test_enumeration_order_is_lexicographic():
    seen = [e.coeffs for e in F4.elements()]
    assert seen == sorted(seen)


def test_field_serialization():
    from gausslab.fields import FiniteField

    again = FiniteField.from_json(F9.to_json())
    assert again is F9
