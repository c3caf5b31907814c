"""Finite fields, towers, additive polynomials and length-2 Witt vectors."""

import itertools
import random
import re
from functools import lru_cache
from math import comb

import pytest

from gausslab.errors import (
    FieldMismatch,
    NonIrreducibleModulus,
    NotASubfield,
    NotPrime,
    ScaleCapExceeded,
    TheoremViolated,
    ZeroPolynomial,
)
from gausslab import fields
from gausslab.fields import (
    AdditivePolynomial,
    Embedding,
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


def test_make_field_decides_a_default_modulus_once(monkeypatch):
    # the search tests each candidate it scans once, and FiniteField tests
    # the one it finds again, as it tests a given modulus; a field made
    # before is returned with no test
    checked = []
    is_irreducible = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible",
                        lambda mod, p: checked.append(tuple(mod)) or is_irreducible(mod, p))
    monkeypatch.setattr(fields, "_FIELDS", {})
    monkeypatch.setattr(fields, "_default_modulus",
                        lru_cache(maxsize=None)(fields._first_irreducible))
    field = make_field(3, 5)
    candidates = [tail + (1,) for tail in itertools.product(range(1, 3), *[range(3)] * 4)]
    assert checked == candidates[:candidates.index(field.modulus) + 1] + [field.modulus]
    checked.clear()
    assert make_field(3, 5) is field and make_field(3, 5, field.modulus) is field
    assert checked == []
    assert make_field(2, 3, (1, 1, 0, 1)).modulus == (1, 1, 0, 1)
    assert checked == [(1, 1, 0, 1)]
    with pytest.raises(NonIrreducibleModulus):
        make_field(2, 3, (1, 0, 0, 1))
    checked.clear()
    assert fields.FiniteField(3, 5).modulus == field.modulus
    assert checked == [field.modulus]  # the search is cached, the test is not


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


def _reference_add(a, b, p, sign=1):
    """Coefficient-wise a + sign * b over F_p, on coefficient tuples."""
    return tuple((x + sign * y) % p for x, y in zip(a, b))


def _check_kernels(field):
    p, m, q, one, zero = field.p, field.m, field.q, field.one(), field.zero()
    els = list(field.elements())
    if q <= 64:
        pairs = [(a, b) for a in els for b in els]
    else:
        rng = random.Random(5)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(5000)]
    for a, b in pairs:
        assert (a * b).coeffs == _reference_mul(a, b)
        assert (a + b).coeffs == _reference_add(a.coeffs, b.coeffs, p)
        assert (a - b).coeffs == _reference_add(a.coeffs, b.coeffs, p, -1)
        # operands that are themselves results of field operations
        prod, total = a * b, b + a
        assert (prod + total).coeffs == _reference_add(prod.coeffs, total.coeffs, p)
        assert (prod - total).coeffs == _reference_add(prod.coeffs, total.coeffs, p, -1)
    for x in els:
        assert (-x).coeffs == tuple(-c % p for c in x.coeffs)
        for y in (x, x * one, -x):
            assert (y + (-y)).coeffs == (y - y).coeffs == zero.coeffs
            assert y + zero == zero + y == y and y - zero == y and zero - y == -y
            assert (y * zero).coeffs == (zero * y).coeffs == zero.coeffs
        for c in (-p - 1, -1, 0, 1, 2, p, p + 1):
            assert (x * c).coeffs == (c * x).coeffs == tuple(v * c % p for v in x.coeffs)
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
    # x**k for k in -3..2q against repeated multiplication by x, or by the
    # inverse found by search for k < 0; zero, one and a seeded sample
    powered = els if q <= 16 else els[:2] + random.Random(3).sample(els[2:], 6)
    for x in powered:
        acc = one
        for k in range(2 * q + 1):
            assert x**k == acc
            acc = acc * x
        if not x:
            with pytest.raises(ZeroDivisionError):
                x**-1
            continue
        (x_inv,) = [y for y in els if x * y == one]
        acc = one
        for k in (-1, -2, -3):
            acc = acc * x_inv
            assert x**k == acc


@pytest.mark.parametrize(
    "p,m,modulus",
    [pytest.param(p, m, None, id=f"{p}-{m}") for p, m in [(2, 2), (2, 4), (2, 8), (3, 2), (3, 4), (5, 2)]]
    + [pytest.param(2, 4, (1, 0, 0, 1, 1), id="2-4-X4+X3+1")],
)
def test_kernels_match_reference_definitions(p, m, modulus, monkeypatch):
    # fresh fields, not make_field's shared ones: first on the polynomial
    # path (cap lowered so the checks cannot build tables), then with tables
    with monkeypatch.context() as patch:
        patch.setattr(fields, "TABLE_CAP", 1)
        field = fields.FiniteField(p, m, modulus)
        _check_kernels(field)
        assert field._log is None
    field = fields.FiniteField(p, m, modulus)
    for _ in range(field.q):
        field.one() * field.one()
    assert field._log is not None
    _check_kernels(field)


def test_tables_wait_for_q_multiplies():
    for p, m in [(2, 1), (3, 1), (2, 4), (3, 4), (5, 2)]:
        field = fields.FiniteField(p, m)
        n, x = field.q - 1, field.gen()
        for _ in range(n):
            x * x
        assert field._log is None and field._exp is None
        x * x
        log, exp = field._log, field._exp
        assert len(log) == n and len(exp) == 2 * n
        # exp holds q-1 interned elements twice over, each carrying its log
        assert all(exp[k].coeffs is c and exp[k + n] is exp[k] and exp[k]._dlog == k
                   for c, k in log.items())
        # the generator is the least element, in as_int order, of order q-1
        orders = [min(k for k in range(1, n + 1) if y**k == field.one())
                  for y in map(field.from_int, range(1, field.q))]
        assert exp[1].as_int() == 1 + orders.index(n)


def _tables_built(field):
    for _ in range(field.q):
        field.one() * field.one()
    assert field._exp is not None
    return field


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 4), (3, 2), (5, 2), (3, 4)])
def test_table_path_logs_interning_and_zech(p, m):
    field = fields.FiniteField(p, m)
    early = list(field.elements())  # made before the tables exist
    assert all(x._dlog is None for x in early)
    _tables_built(field)
    n, exp, log = field.q - 1, field._exp, field._log
    assert all(x._dlog is None for x in early)  # filled on first use only
    for x in early:
        assert x * field.one() == x  # one table operation fills the log
        k = x._dlog
        assert k == log.get(x.coeffs, -1)
        assert (k == -1) == (not x) and (not x or exp[k] == x)
    # interned elements equal and hash like the element made from their coefficients
    for k in range(n):
        made = field.element(exp[k].coeffs)
        assert exp[k] == made and hash(exp[k]) == hash(made) and exp[k] is not made
        assert exp[k].as_int() == made.as_int()
        one_plus = _reference_add(field.one().coeffs, exp[k].coeffs, p)
        assert field._zech[k] == log.get(one_plus, -1)  # log(1 + g^k), -1 at zero
    # results of table operations are the interned elements themselves
    rng = random.Random(f"interned-{p}-{m}")
    for _ in range(200):
        a, b = exp[rng.randrange(n)], exp[rng.randrange(n)]
        assert a * b is exp[a._dlog + b._dlog]
        for r in (a + b, a - b, -a, a**rng.randrange(-5, 20), a.inv(), a.frobenius()):
            assert r._dlog is not None and (r._dlog == -1 or r is exp[r._dlog])
        assert (a + b).coeffs == _reference_add(a.coeffs, b.coeffs, p)
        assert (-a).coeffs == tuple(-c % p for c in a.coeffs)


@pytest.mark.parametrize("p,m", [(3, 4), (2, 8)])
def test_table_path_scales_by_an_int_like_the_coefficients(p, m):
    # x * c and c * x by the log of the constant c mod p, for every element of
    # F_81 and F_256 and every c in -p-1..p+1, against c times each coefficient
    field = _tables_built(fields.FiniteField(p, m))
    for x in field.elements():
        for c in range(-p - 1, p + 2):
            expected = tuple(a * c % p for a in x.coeffs)
            assert (x * c).coeffs == (c * x).coeffs == expected
            assert (x * c)._dlog == field._log.get(expected, -1)


def test_table_path_refuses_operands_from_another_field():
    # equal q, different moduli: both fields have tables, neither accepts the other's elements
    fields_16 = [_tables_built(fields.FiniteField(2, 4, mod)) for mod in ((1, 1, 0, 0, 1), (1, 0, 0, 1, 1))]
    a, b = (f.gen() * f.gen() for f in fields_16)
    assert a.coeffs == b.coeffs and a != b
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b / a, lambda: a + 1):
        with pytest.raises(FieldMismatch):
            op()


def test_zero_and_power_basis_are_made_once_per_field_object():
    # zero() is a fresh element until the tables exist, then the interned zero
    # with its log; two equal fields made apart each get their own power basis
    # and zero, and their elements still do not mix
    f1, f2 = fields.FiniteField(2, 4), fields.FiniteField(2, 4)
    assert f1 == f2 and f1 is not f2
    z1, z2 = f1.zero(), f1.zero()
    assert z1 == z2 and z1 is not z2 and z1._dlog is None and not z1
    for field in (f1, f2):
        _tables_built(field)
        assert field.zero() is field.zero() is field._zero and field._zero._dlog == -1
        assert field.zero().field is field and field.zero().coeffs == (0,) * field.m
        basis = field._power_basis
        assert basis is field._power_basis
        assert [x.coeffs for x in basis] == [tuple(int(s == t) for s in range(4)) for t in range(4)]
        assert all(x.field is field for x in basis)
    b1, b2 = f1._power_basis, f2._power_basis
    assert b1 is not b2 and b1 != b2 and f1.zero() is not f2.zero() and f1.zero() != f2.zero()
    for op in (lambda: f1.zero() + f2.zero(), lambda: b1[1] * b2[1], lambda: b1[0] + f2.zero(),
               lambda: f2.zero() - b1[2]):
        with pytest.raises(FieldMismatch):
            op()


def test_field_above_the_cap_never_builds_tables():
    field = make_field(2, 17, (1, 0, 0, 1) + (0,) * 13 + (1,))  # X^17 + X^3 + 1
    assert field.q > fields.TABLE_CAP
    rng = random.Random(17)
    for _ in range(300):
        a, b = (field.from_int(rng.randrange(field.q)) for _ in range(2))
        assert (a * b).coeffs == _reference_mul(a, b)
    x = field.one()
    for _ in range(field.q):
        x = x * field.gen()
    assert x == field.gen()  # X^q = X
    assert field._log is None and field._exp is None


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


@pytest.mark.parametrize("n", [0, -1])
def test_extension_degree_below_one_is_rejected(n):
    with pytest.raises(ValueError, match=f"extension degree must be at least 1, got {n}"):
        extension(F4, n, False)


def test_extension_refuses_before_building(monkeypatch):
    # the field bound, which GAUSSLAB_CAP does not move, and the embedding
    # search of the q points of the small field are checked before make_field
    # runs; the bound is lowered here so that the override build stays cheap
    F8 = make_field(2, 3)
    fields.extension.cache_clear()  # a cached extension is not checked again
    monkeypatch.setattr(fields, "FIELD_CAP", 2**8)
    monkeypatch.setattr(fields, "make_field", lambda *args: pytest.fail("built"))
    monkeypatch.setenv("GAUSSLAB_CAP", str(2**200))
    with pytest.raises(ScaleCapExceeded, match="extension field over 512 points exceeds cap 256"):
        extension(F8, 3, False)
    monkeypatch.setenv("GAUSSLAB_CAP", "7")
    with pytest.raises(ScaleCapExceeded, match="embedding search over 8 points exceeds cap 7"):
        extension(F8, 2, False)
    monkeypatch.setattr(fields, "make_field", make_field)
    big, emb = extension(F8, 3, True)
    assert big is make_field(2, 9) and emb.small is F8
    assert extension(F8, 1, False)[0] is F8  # degree 1 builds nothing


def _section(emb, y):
    """The preimage of y in the small field of an embedding, by a sweep of
    that field; None if y is not in the image."""
    return next((x for x in emb.small.elements() if emb(x) == y), None)


def test_embedding_ring_hom_and_section():
    big, emb = extension(F4, 2, False)
    assert big is F16
    assert sum(_section(emb, y) is not None for y in F16.elements()) == 4
    for x in F4.elements():
        assert _section(emb, emb(x)) == x
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


def _reference_gamma(x, z):
    """The sum gamma_value replaced, kept as an oracle: from zero, every term
    scaled by its integer coefficient."""
    acc = x.field.zero()
    for (i, j), c in gamma_carry(x.field.p).items():
        acc = acc + (x**i) * (z**j) * c
    return acc


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 4), (2, 8)])
def test_gamma_value_matches_reference(p, m):
    field = make_field(p, m)
    els = list(field.elements())
    if field.q <= 25:
        pairs = [(x, z) for x in els for z in els]
    else:
        rng = random.Random(f"gamma-{p}-{m}")
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(2000)]
    for x, z in pairs:
        assert gamma_value(x, z) == _reference_gamma(x, z)


def test_field_invariants_survive_optimize(monkeypatch):
    # typed errors, not asserts: both checks still fire under python -O
    with monkeypatch.context() as m:
        m.setattr(fields, "subfield_elements", lambda big, s: [])
        with pytest.raises(TheoremViolated):
            Embedding(F4, F16)
    with monkeypatch.context() as m:
        m.setattr(fields.FiniteField, "_poly_mul", lambda self, a, b: self.one())
        field = fields.FiniteField(3, 2)
        with pytest.raises(TheoremViolated):
            for _ in range(field.q):
                field.gen() * field.gen()


def _frobenius_columns_by_powers(field, k):
    """Column j of x -> x^(p^k) as X^(j p^k), one square-and-multiply per
    column: the build `_frobenius_columns` replaced, kept as the oracle."""
    e = field.p**k
    return tuple(fields._sparse((field.gen() ** (j * e)).coeffs) for j in range(field.m))


def test_frobenius_columns_and_trace_vector_match_per_column_powers():
    # F_{2^20} is above TABLE_CAP, so every product is a polynomial multiply;
    # a fresh F_{3^4} is checked before its log tables exist
    big = make_field(2, 20)
    assert big.q > fields.TABLE_CAP
    small = fields.FiniteField(3, 4)
    built = {k: small._frobenius_columns(k) for k in (1, 2, 3)}
    trace = small._trace_vector
    assert small._exp is None
    for k, columns in built.items():
        assert columns == _frobenius_columns_by_powers(small, k), k
    for k in (1, 7, 19):
        assert big._frobenius_columns(k) == _frobenius_columns_by_powers(big, k), k
    # Tr(X^j) as the orbit sum of X^j under x -> x^p, taken by powering
    for field, vector in ((small, trace), (big, big._trace_vector)):
        for j, t in enumerate(vector):
            x = field.gen() ** j
            orbit = sum((x ** field.p**i for i in range(field.m)), field.zero())
            assert orbit.coeffs == (t,) + (0,) * (field.m - 1), (field, j)


def _trial_division_irreducible(mod, p):
    """The trial division _is_irreducible replaced, kept as an oracle: a
    polynomial of degree >= 2 is reducible iff a monic polynomial of degree
    <= half of its degree divides it."""
    mod = fields._ptrim(mod)
    deg = len(mod) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _pmod(mod, tail + (1,), p):
                return False
    return True


@pytest.mark.parametrize("p,max_m", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_is_irreducible_matches_trial_division(p, max_m):
    for m in range(max_m + 1):
        for tail in itertools.product(range(p), repeat=m):
            assert fields._is_irreducible(tail + (1,), p) == _trial_division_irreducible(
                tail + (1,), p), (p, tail)


def test_is_irreducible_at_a_large_prime():
    # X^p mod f comes by squaring, not from a remainder of degree p: X^2 - c
    # is irreducible iff c is not a square (Euler's criterion)
    p = 1_000_003
    for c in range(1, 40):
        assert fields._is_irreducible(((-c) % p, 0, 1), p) == (pow(c, p // 2, p) == p - 1), c
    assert make_field(p, 2).modulus == (1, 0, 1)  # p = 3 mod 4, so -1 is not a square


def _reference_first_irreducible(p, m):
    """The full scan _first_irreducible replaced, kept as an oracle: every
    monic candidate in itertools.product order, constant term 0 included,
    each tested by trial division."""
    for tail in itertools.product(range(p), repeat=m):
        if _trial_division_irreducible(tail + (1,), p):
            return tail + (1,)


def _degrees_up_to(bound):
    """(p, the largest m with p^m <= bound) for the primes p with p^2 <= bound."""
    primes = [p for p in range(2, int(bound**0.5) + 1) if fields.is_prime(p)]
    return [(p, next(m for m in itertools.count(1) if p ** (m + 1) > bound)) for p in primes]


@pytest.mark.parametrize("p,max_m", _degrees_up_to(2**16))
def test_first_irreducible_matches_the_full_scan(p, max_m):
    # every default modulus of a field with p^m <= 2^16 (m = 1 gives X)
    for m in range(1, max_m + 1):
        assert make_field(p, m).modulus == _reference_first_irreducible(p, m), (p, m)


def _rabin_irreducible(mod, p):
    """M.O. Rabin's test (SIAM J. Comput. 9, 1980) in its gcd form, on its
    own polynomial arithmetic: a monic f of degree m is irreducible iff f
    divides X^(p^m) - X and gcd(f, X^(p^(m/r)) - X) = 1 for each prime r | m."""
    m = len(mod) - 1

    def rem(a, b):
        a = [v % p for v in a]
        while a and not a[-1]:
            a.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, v in enumerate(b):
                a[shift + i] = (a[shift + i] - c * v) % p
            while a and not a[-1]:
                a.pop()
        return a

    def mulmod(a, b):
        out = [0] * (len(a) + len(b))
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return rem(out, mod)

    def frobenius_minus_x(k):  # X^(p^k) - X mod f
        x = [0, 1]
        for _ in range(k):
            y = [1]
            for bit in bin(p)[2:]:
                y = mulmod(y, y)
                if bit == "1":
                    y = mulmod(y, x)
            x = y
        x += [0] * (2 - len(x))
        x[1] -= 1
        return rem(x, mod)

    def gcd(a, b):
        while b:
            a, b = b, rem(a, b)
        return a

    if m < 1 or frobenius_minus_x(m):
        return False
    return all(len(gcd(list(mod), frobenius_minus_x(m // r))) == 1
               for r in range(2, m + 1) if m % r == 0 and fields.is_prime(r))


def test_rabin_oracle_matches_trial_division():
    for p, max_m in ((2, 8), (3, 5)):
        for m in range(max_m + 1):
            for tail in itertools.product(range(p), repeat=m):
                assert _rabin_irreducible(tail + (1,), p) == _trial_division_irreducible(
                    tail + (1,), p), (p, tail)


# found by the full trial-division scan, which took about a minute at F_{2^40}
_LARGE_DEFAULT_MODULI = {
    (2, 32): (1,) + (0,) * 24 + (1, 0, 0, 0, 1, 1, 0, 1),
    (2, 40): (1,) + (0,) * 34 + (1, 1, 1, 0, 0, 1),
    (3, 20): (1,) + (0,) * 16 + (1, 0, 2, 1),
}


@pytest.mark.parametrize("p,m", sorted(_LARGE_DEFAULT_MODULI))
def test_large_default_moduli_pass_rabins_test(p, m):
    modulus = make_field(p, m).modulus
    assert modulus == _LARGE_DEFAULT_MODULI[p, m]
    assert _rabin_irreducible(modulus, p)
    # X^m + 1 is reducible: (X + 1)^32 and (X^5 + 1)^8 over F_2, and over F_3
    # X^20 + 1 has the roots of order 8, which lie in F_9
    assert not _rabin_irreducible((1,) + (0,) * (m - 1) + (1,), p)
    assert not fields._is_irreducible((1,) + (0,) * (m - 1) + (1,), p)


def test_first_irreducible_fault_is_typed(monkeypatch):
    # a search that finds no irreducible is an internal fault, not an assert;
    # called directly, past the lru_cache of _default_modulus
    assert fields._first_irreducible(2, 3) == (1, 0, 1, 1)  # 1 + X^2 + X^3
    monkeypatch.setattr(fields, "_is_irreducible", lambda mod, p: False)
    with pytest.raises(TheoremViolated, match="no irreducible of degree 3 over F_2"):
        fields._first_irreducible(2, 3)


def _witt_one(field):
    return WittVector2(field, field.one(), field.zero())


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_witt_ring_axioms_exhaustive(field):
    vectors = [WittVector2(field, a, b) for a in field.elements() for b in field.elements()]
    one = _witt_one(field)
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
    one = _witt_one(F9)
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
    assert iso[_witt_one(field)] == 1
    for u in vectors:
        for v in vectors:
            assert iso[u + v] == (iso[u] + iso[v]) % (p * p)
            assert iso[u * v] == (iso[u] * iso[v]) % (p * p)


def _witt_prime_table(p):
    """{(x0, x1): k} for the k-th multiple of (1, 0) in W2(F_p), k < p^2, one
    Witt addition at a time: the table `witt_to_zp2` and `witt_trace` read
    before the closed form x0^p + p x1, kept as the oracle."""
    field = make_field(p, 1)
    table, acc, one = {}, witt_zero(field), _witt_one(field)
    for k in range(p * p):
        table[acc.x0.coeffs[0], acc.x1.coeffs[0]] = k
        acc = acc + one
    assert len(table) == p * p  # W2(F_p) is cyclic of order p^2
    return table


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_witt_closed_form_matches_the_table(p):
    # over F_p witt_to_zp2 and witt_trace are the table; over F_{p^2} the
    # trace is the table's entry for the sum of the two Witt-Frobenius iterates
    from gausslab.fields import witt_frobenius

    table, field, big = _witt_prime_table(p), make_field(p, 1), make_field(p, 2)
    for (x0, x1), k in table.items():
        w = WittVector2(field, field.element([x0]), field.element([x1]))
        assert witt_to_zp2(w) == witt_trace(w) == k
    rng = random.Random(f"witt-table-{p}")
    for _ in range(20):
        w = WittVector2(big, *(big.from_int(rng.randrange(big.q)) for _ in range(2)))
        total = w + witt_frobenius(w)
        assert witt_trace(w) == table[total.x0.coeffs[0], total.x1.coeffs[0]]


def test_gamma_coefficients_are_the_binomial_quotients():
    # (-1)^i / i mod p against -binom(p, i)/p mod p, for every p <= 211
    for p in filter(fields.is_prime, range(2, 212)):
        assert fields._gamma_coeffs(p) == {i: -(comb(p, i) // p) % p for i in range(1, p)}, p


def test_witt_trace_over_a_large_prime_field():
    # W2(F_1009) has 1009^2 elements and none is listed: (x0, x1) is the
    # Teichmueller lift of x0, the t = x0 mod p with t^(p-1) = 1 mod p^2,
    # plus p x1; the sum and the product of two vectors map to those of the
    # images
    p = 1009
    field = make_field(p, 1)
    u, v = (WittVector2(field, field.element([a]), field.element([b]))
            for a, b in ((5, 7), (998, 1)))
    teich = next(t for t in range(5, p * p, p) if pow(t, p - 1, p * p) == 1)
    assert witt_trace(u) == witt_to_zp2(u) == (teich + p * 7) % (p * p)
    assert witt_to_zp2(u + v) == (witt_to_zp2(u) + witt_to_zp2(v)) % (p * p)
    assert witt_to_zp2(u * v) == witt_to_zp2(u) * witt_to_zp2(v) % (p * p)


def test_witt_operator_identities():
    # F(x,y) = (x^p, y^p); V(a) = (0,a); FV = VF = p
    from gausslab.fields import witt_frobenius

    for a in F4.elements():
        for b in F4.elements():
            w = WittVector2(F4, a, b)
            assert witt_frobenius(w) == WittVector2(F4, a * a, b * b)
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


def _witt_trace_by_additions(w):
    """The Witt trace as a sum of the m Witt-Frobenius iterates of w, one
    Witt addition at a time."""
    from gausslab.fields import witt_frobenius

    acc, cur = witt_zero(w.field), w
    for _ in range(w.field.m):
        acc, cur = acc + cur, witt_frobenius(cur)
    return witt_to_zp2(acc)


@pytest.mark.parametrize("field", [F2, F4, F8, F3, F9], ids=["F2", "F4", "F8", "F3", "F9"])
def test_witt_trace_matches_the_sum_of_iterates(field):
    for a in field.elements():
        for b in field.elements():
            w = WittVector2(field, a, b)
            assert witt_trace(w) == _witt_trace_by_additions(w), w


def test_witt_trace_outside_w2_fp_is_a_mismatch(monkeypatch):
    # a carry off the prime field (here: gamma replaced by x z + X) cannot
    # come from a Frobenius-fixed sum and raises instead of being truncated
    monkeypatch.setattr(fields, "gamma_value", lambda x, z: x * z + F4.gen())
    with pytest.raises(FieldMismatch, match="does not lie in W2"):
        witt_trace(WittVector2(F4, F4.one(), F4.zero()))


def test_additive_polynomial_evaluation_additive():
    f = AdditivePolynomial(F4, {0: F4.gen(), 1: F4.one(), 2: F4.gen() ** 2})
    big, emb = extension(F4, 2, False)
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


def _seeded_additive(field, rng):
    """A nonzero AdditivePolynomial with exponents in -2..2."""
    els = list(field.elements())
    coeffs = {i: rng.choice(els) for i in range(-2, 3) if rng.random() < 0.6}
    coeffs[rng.randint(-2, 2)] = rng.choice(els[1:])
    return AdditivePolynomial(field, coeffs)


@pytest.mark.parametrize("field", [F4, F9], ids=["F4", "F9"])
def test_additive_polynomial_scales_by_an_integer(field):
    # an int multiplies by the integer, as FieldElement * int does; it is not
    # the mixed-radix element from_int(c) (over F_4, -1 would give X + 1)
    f = _seeded_additive(field, random.Random(f"scale-{field.tag}"))
    assert (f + f.scale(-1)).is_zero()
    assert f.scale(field.p).is_zero()
    for c in (-1, 2, field.p):
        assert f.scale(c) == f.scale(c * field.one())
        for x in field.elements():
            assert f.scale(c).evaluate(x) == f.evaluate(x) * c


@pytest.mark.parametrize("field", [F4, F9, F16], ids=["F4", "F9", "F16"])
def test_additive_polynomials_over_z_pointwise(field):
    # exponents range over Z: every operation agrees with its definition on
    # every element, negative Frobenius powers being exact p-th roots
    rng = random.Random(f"additive-{field.tag}")
    els = list(field.elements())
    big, emb = extension(field, 2, False)
    for _ in range(4):
        f, g = _seeded_additive(field, rng), _seeded_additive(field, rng)
        c = rng.choice(els)
        fg, fd = f.compose(g), f.adjoint()
        low, high = min(f.coeffs), max(f.coeffs)
        assert f.span() == high - low == fd.span() == f.twist(-low).top_exponent()
        lifted = f.lift(emb)
        for x in els:
            fx = f.evaluate(x)
            assert fg.evaluate(x) == f.evaluate(g.evaluate(x))
            for k in range(-3, 4):
                assert f.twist(k).evaluate(x) == fx.frobenius(k)
            assert (f + g).evaluate(x) == fx + g.evaluate(x)
            assert f.scale(c).evaluate(x) == c * fx
            assert lifted.evaluate(emb(x)) == emb(fx)
            for y in els:
                assert absolute_trace_int(fx * y) == absolute_trace_int(x * fd.evaluate(y))
    zero = AdditivePolynomial(field, {})
    assert zero.span() is None
    frob = AdditivePolynomial(field, {1: field.gen(), 2: field.one()})
    assert (f + f.scale(-field.one())).is_zero()
    # a sum with a polynomial over another field is refused, whether or not
    # an exponent is shared
    for other in (AdditivePolynomial(big, {1: big.one()}), AdditivePolynomial(big, {7: big.one()})):
        for total in (lambda: frob + other, lambda: other + frob):
            with pytest.raises(FieldMismatch):
                total()


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


def test_additive_kernel_caps_its_roots_before_listing(monkeypatch):
    # X^32 + X has p^span = 32 roots, all of F_32: cap 32 lists them, cap 31
    # refuses before any is listed; at n = 1 it has at most q^n = 2 roots
    f = AdditivePolynomial(F2, {5: F2.one(), 0: F2.one()})
    monkeypatch.setenv("GAUSSLAB_CAP", "32")
    assert len(additive_kernel(f, 5)) == 32
    monkeypatch.setenv("GAUSSLAB_CAP", "31")
    assert len(additive_kernel(f, 1)) == 2
    monkeypatch.setattr(fields, "_linear_kernel", lambda *args: pytest.fail("listed"))
    with pytest.raises(ScaleCapExceeded, match="additive kernel roots over 32 points exceeds cap 31"):
        additive_kernel(f, 5)


def _brute_force_roots(f, n):
    """Reference zero set: every element of F_{q^n} tested, in enumeration order."""
    big, emb = extension(f.field, n, False)
    lifted = f.lift(emb)
    return [x for x in big.elements() if not lifted.evaluate(x)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_additive_kernel_matches_brute_force(field, n):
    # the nullspace routine against the field sweep it replaced, value and
    # order: exponents >= 0, a negative exponent, an inseparable defect (no X)
    rng = random.Random(f"kernel-{field.tag}-{n}")
    nonzero = list(field.elements())[1:]
    for exponents in ((0,), (0, 1), (0, 2), (-1, 0), (-2, 1), (1, 2), (1, 3)):
        f = AdditivePolynomial(field, {i: rng.choice(nonzero) for i in exponents})
        assert additive_kernel(f, n) == _brute_force_roots(f, n), (f, n)


def test_enumeration_order_is_lexicographic():
    seen = [e.coeffs for e in F4.elements()]
    assert seen == sorted(seen)


def test_field_serialization():
    from gausslab.fields import FiniteField

    again = FiniteField.from_json(F9.to_json())
    assert again is F9


@pytest.mark.parametrize("coeffs,coefficient", [
    ([1, 2], "1 must be an integer in range(0, 2), got 2"),
    ([True, 0], "0 must be an integer in range(0, 2), got True"),
    ([0, 1.0], "1 must be an integer in range(0, 2), got 1.0"),
])
def test_element_from_json_names_the_bad_coefficient(coeffs, coefficient):
    # each coefficient goes through errors.checked_int, under the element's name
    message = f"{coeffs!r} is not an element of F4: coefficient {coefficient}"
    with pytest.raises(ValueError, match=re.escape(message)):
        F4.element_from_json(coeffs)
    assert F4.element_from_json([1, 1]) == F4.element((1, 1))
