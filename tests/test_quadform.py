"""Quadratic forms on finite abelian groups and their Gauss sums."""

import pytest

from gausslab.errors import (
    CharacterNotInImage,
    NotElementaryTwoGroup,
    NotQuadratic,
    TheoremViolated,
)
from gausslab.exactalg import abs_square, is_root_of_unity, zeta
from gausslab.quadform import (
    FiniteAbelianGroup,
    QuadraticForm,
    _table_recursive_tau,
    char2_invariant,
    radical_descent,
    random_nondegenerate,
    recursive_gauss_eval,
)

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
Z4 = FiniteAbelianGroup([4])
Z22 = FiniteAbelianGroup([2, 2])

EXEASY = QuadraticForm(Z2, 4, [0, 1])          # Q(0)=1, Q(1)=i
Z3FORM = QuadraticForm(Z3, 3, [0, 1, 1])       # zeta_3^{x^2}
HYPERBOLIC = QuadraticForm(Z22, 2, [0, 0, 0, 1])  # (-1)^{xy}


def test_group_indexing():
    g = FiniteAbelianGroup([2, 4])
    assert g.order == 8 and g.exponent == 4
    for idx in g.elements():
        assert g.encode(g.decode(idx)) == idx
    assert g.add(g.encode((1, 3)), g.encode((1, 2))) == g.encode((0, 1))
    assert g.element_order(g.encode((0, 1))) == 4


def test_exeasy_is_nondegenerate_quadratic():
    assert EXEASY.is_quadratic()
    assert EXEASY.is_nondegenerate()
    assert EXEASY.pairing.value(1, 1) == -1  # B(1,1) = Q(0)Q(1)^{-2}


def test_exeasy_gauss_sum_is_one_plus_i():
    assert EXEASY.gauss_sum() == 1 + zeta(4, 1)


def test_character_is_quadratic_with_trivial_pairing():
    chi = QuadraticForm(Z4, 4, [0, 1, 2, 3])
    assert chi.is_quadratic()
    assert all(chi.pairing.exponent(x, y) == 0 for x in range(4) for y in range(4))
    assert not chi.is_nondegenerate()


def test_z4_zeta8_square_table():
    q8 = QuadraticForm(Z4, 8, [0, 1, 4, 1])  # zeta_8^{x^2}
    assert q8.is_quadratic()
    for x in range(4):
        for y in range(4):
            assert q8.pairing.exponent(x, y) == (2 * x * y) % 8


def test_not_quadratic_witness():
    bad = QuadraticForm(Z4, 8, [0, 1, 1, 1])
    assert not bad.is_quadratic()
    with pytest.raises(NotQuadratic) as err:
        bad.is_quadratic(raise_on_failure=True)
    assert len(err.value.witness) == 3


def test_z3_form():
    assert Z3FORM.is_quadratic() and Z3FORM.is_nondegenerate()
    tau = Z3FORM.gauss_sum()
    assert tau == 1 + 2 * zeta(3, 1)
    assert abs_square(tau) == 3
    assert Z3FORM.verify_gauss_sum_theorem() == 2  # tau^2/3 = -1


def test_trivial_group():
    t = QuadraticForm.trivial(FiniteAbelianGroup([]))
    assert t.gauss_sum() == 1


def test_trivial_form_is_degenerate():
    t = QuadraticForm(Z2, 1, [0, 0])
    assert t.is_quadratic()
    assert t.radical() == [0, 1]


def test_gauss_sum_direct_sum_multiplicativity():
    z6 = FiniteAbelianGroup([2, 3])
    vals = [0] * 6
    for idx in range(6):
        x2, x3 = z6.decode(idx)
        vals[idx] = (3 * [0, 1][x2] + 4 * [0, 1, 1][x3]) % 12
    q6 = QuadraticForm(z6, 12, vals)
    assert q6.is_quadratic() and q6.is_nondegenerate()
    tau = q6.gauss_sum()
    assert tau == EXEASY.gauss_sum().embed(12) * Z3FORM.gauss_sum().embed(12)
    assert abs_square(tau) == 6
    assert recursive_gauss_eval(q6) == tau


def test_verify_gauss_sum_theorem_exeasy():
    assert EXEASY.verify_gauss_sum_theorem() == 4  # (1+i)^2/2 = i


def test_recursive_oracle_matches_direct_sum():
    for form in (EXEASY, Z3FORM, HYPERBOLIC):
        assert recursive_gauss_eval(form) == form.gauss_sum()
    assert HYPERBOLIC.gauss_sum() == 2


def test_twist_identity_exeasy():
    # chi(1) = -1, i.e. exponent 2 in Q(zeta_4)
    a = EXEASY.twist_gauss_identity([0, 2])
    assert a == 1
    assert EXEASY.twist([0, 2]).gauss_sum() == 1 - zeta(4, 1)


def test_twist_trivial_character():
    a = EXEASY.twist_gauss_identity([0, 0])
    assert a == 0
    assert EXEASY.twist([0, 0]).gauss_sum() == EXEASY.gauss_sum()


def test_twist_identity_z3_both_sides():
    chi = [0, 1, 2]  # zeta_3^x
    a = Z3FORM.solve_character(chi)
    lhs = Z3FORM.twist(chi).gauss_sum()
    rhs = zeta(3, -Z3FORM.exponents[a] % 3) * Z3FORM.gauss_sum()
    assert lhs == rhs


def test_twist_identity_all_elements():
    for form in (EXEASY, Z3FORM, HYPERBOLIC):
        n = form.group.order
        for a in range(n):
            chi = form.character_of_element(a)
            twisted = form.twist(chi)
            assert twisted.gauss_sum() * form.value(a) == form.gauss_sum()


def test_character_not_in_image_when_degenerate():
    degenerate = QuadraticForm(Z2, 2, [0, 1])  # the character x -> (-1)^x
    with pytest.raises(CharacterNotInImage):
        degenerate.solve_character([0, 1])


def test_char2_invariant_examples():
    a, tau, qa = char2_invariant(EXEASY)
    assert a == (1,)
    assert tau * tau == qa * 2
    a, tau, qa = char2_invariant(HYPERBOLIC)
    assert a == (0, 0) and tau == 2 and qa == 1
    # exeasy + exeasy on (Z/2)^2: a = (1,1), tau^2 = -4
    z22 = FiniteAbelianGroup([2, 2])
    dsum = QuadraticForm(z22, 4, [0, 1, 1, 2])
    a, tau, qa = char2_invariant(dsum)
    assert a == (1, 1)
    assert tau * tau == -4
    assert qa == -1
    with pytest.raises(NotElementaryTwoGroup):
        char2_invariant(Z3FORM)


def test_killcl_proof_identity():
    # Q(mv) = Q(v)^m * prod_{i<m} B(iv, v), the induction behind the order
    # bound, on random forms
    for shape, seed in [((4, 2), 0), ((9,), 1), ((8,), 5)]:
        g = FiniteAbelianGroup(shape)
        form = random_nondegenerate(g, seed)
        n = form.value_order
        for v in g.elements():
            for m in range(1, g.element_order(v) + 1):
                expected = (m * form.exponents[v]
                            + sum(form.pairing.exponent(g.scalar(i, v), v)
                                  for i in range(1, m))) % n
                assert form.exponents[g.scalar(m, v)] == expected


def test_diagonal_is_character_on_elementary_two_groups():
    # v -> B(v, v) is additive on (Z/2)^k (part 1 of the char-2 proposition)
    g = FiniteAbelianGroup([2, 2, 2])
    form = random_nondegenerate(g, 9)
    b = form.pairing.exponent
    n = form.value_order
    for u in g.elements():
        for v in g.elements():
            s = g.add(u, v)
            assert (b(s, s) - b(u, u) - b(v, v)) % n == 0


def test_killcl_value_orders():
    # every value's order divides exponent(M)^2
    for shape, seed in [((4, 4), 0), ((2, 8), 1), ((9,), 2)]:
        g = FiniteAbelianGroup(shape)
        form = random_nondegenerate(g, seed)
        assert form.exponents[0] == 0  # Q(0) = 1
        cap = g.exponent**2
        for e in form.exponents:
            val = zeta(form.value_order, e)
            order = is_root_of_unity(val)
            assert cap % order == 0


def test_random_nondegenerate_determinism_and_validity():
    g = FiniteAbelianGroup([2, 4, 4])
    f1 = random_nondegenerate(g, 17)
    f2 = random_nondegenerate(g, 17)
    assert f1.exponents == f2.exponents
    assert f1.is_quadratic() and f1.is_nondegenerate()


def test_random_on_z2_gives_plus_minus_i():
    seen = {random_nondegenerate(Z2, s).exponents[1] for s in range(10)}
    assert seen <= {1, 3} and seen


def test_random_trivial_group():
    f = random_nondegenerate(FiniteAbelianGroup([]), 5)
    assert f.gauss_sum() == 1


def test_radical_descent_trivial_on_radical():
    # Q(x) = i^{x^2 mod 4} on Z/4 degenerates with radical {0, 2}
    form = QuadraticForm(Z4, 4, [0, 1, 0, 1])
    assert form.is_quadratic()
    assert form.radical() == [0, 2]
    outcome = radical_descent(form)
    assert outcome[0] == "descends"
    assert outcome[1] == 2
    assert form.gauss_sum() == 2 * outcome[2]


def test_radical_descent_nontrivial_character_kills_sum():
    # character on Z/2: radical is everything, Q|radical nontrivial
    chi = QuadraticForm(Z2, 2, [0, 1])
    assert radical_descent(chi) == ("zero",)
    assert chi.gauss_sum().is_zero()


def test_serialization_round_trip():
    js = EXEASY.to_json()
    again = QuadraticForm.from_json(js)
    assert again.exponents == EXEASY.exponents
    assert again.group.moduli == (2,)


def test_from_json_rejects_bad_value_tables():
    def job(values):
        return {"invariant_factors": [3], "value_order": 3, "values": values}

    assert QuadraticForm.from_json(job({"0": 0, "1": 1, "2": 1})).exponents == [0, 1, 1]
    for values in (
        {"0": 0, "1": 1},                            # Q(2) missing
        {"0": 0, "1": 1, "2": 1, "01": 1},           # "01" repeats the element 1
        {"0": 0, "7": 1, "2": 1},                    # 7 is outside [0, 3)
        {"0": 0, "1": 1, "-1": 1},
        {"0": 0, "1": 1, "2": 1, "0,0": 1},          # wrong arity
        {"": 0, "0": 0, "1": 1, "2": 1},
    ):
        with pytest.raises(ValueError):
            QuadraticForm.from_json(job(values))
    with pytest.raises(ValueError):
        QuadraticForm.from_json(
            {"invariant_factors": [2, 1], "value_order": 4,
             "values": {"0,0": 0, "1,0": 1, "1,1": 1}}
        )


def test_q0_must_be_one():
    # B(0, 0) = -Q(0): also on groups without generators
    for moduli in ([], [1, 1], [3]):
        g = FiniteAbelianGroup(moduli)
        form = QuadraticForm(g, 4, [1] + [0] * (g.order - 1))
        assert not form.is_quadratic()
        with pytest.raises(NotQuadratic):
            form.radical()


def test_recursion_invariants_survive_optimize():
    # a degenerate datum breaks the descent step; the recursion must say so
    # with a typed error, not an assert that python -O strips
    with pytest.raises(TheoremViolated):
        _table_recursive_tau(Z2.addition_table(), [0, 1], 2)


# -- exhaustive references for the generator-based checks ---------------------------

def _reference_tables(form):
    """Addition and pairing tables built entry by entry through decode/encode."""
    g = form.group
    tuples = [g.decode(i) for i in g.elements()]
    add = [[g.encode(tuple(x + y for x, y in zip(a, b))) for b in tuples] for a in tuples]
    q, n = form.exponents, form.value_order
    pairing = [[(q[add[i][j]] - q[i] - q[j]) % n for j in g.elements()] for i in g.elements()]
    return add, pairing


def _exhaustive_witness(form, add, b):
    """B(x+g, y) = B(x, y) + B(g, y) for every generator g and all x, y."""
    g = form.group
    for gen in g.generators():
        for i in g.elements():
            row_ig, row_i, row_g = b[add[i][gen]], b[i], b[gen]
            for j in g.elements():
                if (row_i[j] + row_g[j] - row_ig[j]) % form.value_order:
                    return (g.decode(i), g.decode(gen), g.decode(j))
    return None


def _exhaustive_radical(form, b):
    return [i for i in form.group.elements() if not any(b[i])]


def _exhaustive_char2_element(form, b):
    """The first a with B(v, a) = B(v, v) for every v."""
    elements = form.group.elements()
    return next(a for a in elements if all(b[v][a] == b[v][v] for v in elements))


def _pulled_back(form, extra):
    """Q(x, y) = Q(x) on M + Z/extra: degenerate, with radical 0 + Z/extra."""
    g = FiniteAbelianGroup(form.group.moduli + (extra,))
    return QuadraticForm(
        g, form.value_order, [form.exponents[i % form.group.order] for i in g.elements()]
    )


ORACLE_FORMS = [
    ([2, 4], 3), ([9], 1), ([4, 2, 6], 5), ([2] * 6, 2), ([8, 8, 8], 0), ([2], 4),
]


def test_generator_checks_agree_with_exhaustive_oracles():
    forms = [random_nondegenerate(FiniteAbelianGroup(m), s) for m, s in ORACLE_FORMS]
    degenerate = [
        QuadraticForm(Z4, 4, [0, 1, 2, 3]),
        QuadraticForm(Z4, 4, [0, 1, 0, 1]),
        QuadraticForm(Z22, 1, [0, 0, 0, 0]),
        QuadraticForm(FiniteAbelianGroup([3, 3]), 3, [x % 3 + 2 * (x // 3) for x in range(9)]),
        _pulled_back(forms[0], 2),
        _pulled_back(forms[5], 2),
        _pulled_back(forms[1], 3),
    ]
    for form in forms + degenerate:
        add, b = _reference_tables(form)
        assert form.group.addition_table() == add, form
        assert _exhaustive_witness(form, add, b) is None, form
        assert form.is_quadratic(), form
        radical = _exhaustive_radical(form, b)
        assert form.radical() == radical, form
        assert form.is_nondegenerate() == (form in forms), form
        for a in (0, form.group.order - 1):
            assert form.character_of_element(a) == b[a]
            assert form.solve_character(b[a]) == b.index(b[a])
        if all(d == 2 for d in form.group.moduli) and len(radical) == 1:
            a, _, _ = char2_invariant(form)
            assert form.group.encode(a) == _exhaustive_char2_element(form, b), form


def test_failure_seen_only_against_the_second_generator():
    # B(-, e_0) is additive here; only h = e_1 exposes the failure
    bad = QuadraticForm(FiniteAbelianGroup([2, 4]), 8, [0, 0, 6, 2, 7, 7, 6, 2])
    add, b = _reference_tables(bad)
    assert _exhaustive_witness(bad, add, b) is not None
    assert not bad.is_quadratic()
    assert bad.pairing.witness[2] == (0, 1)


# |M| <= 64; not Z/2, where every table with Q(0) = 1 is quadratic
@pytest.mark.parametrize("moduli,seed", ORACLE_FORMS[:4])
def test_every_single_entry_corruption_is_rejected(moduli, seed):
    form = random_nondegenerate(FiniteAbelianGroup(moduli), seed)
    assert form.group.order <= 64
    for x in form.group.elements():
        exps = list(form.exponents)
        exps[x] += 1
        bad = QuadraticForm(form.group, form.value_order, exps)
        add, b = _reference_tables(bad)
        oracle = _exhaustive_witness(bad, add, b)
        assert oracle is not None and len(oracle) == 3, x
        assert not bad.is_quadratic(), x
        with pytest.raises(NotQuadratic) as err:
            bad.is_quadratic(raise_on_failure=True)
        assert len(err.value.witness) == 3
        with pytest.raises(NotQuadratic):
            bad.radical()
        with pytest.raises(NotQuadratic):
            bad.is_nondegenerate()


@pytest.mark.parametrize(
    "moduli", [[], [1], [5], [1, 1], [3, 1, 2], [2, 1, 4, 1], [1, 3, 3], [4, 2, 6]]
)
def test_addition_table_matches_decode_encode(moduli):
    g = FiniteAbelianGroup(moduli)
    table = g.addition_table()
    assert len(table) == g.order
    for i in g.elements():
        assert g.translation(i) == table[i]
        for j in g.elements():
            assert table[i][j] == g.encode(tuple(x + y for x, y in zip(g.decode(i), g.decode(j))))
