"""Quadratic forms on finite abelian groups and their Gauss sums."""

import hashlib
import json
import re
from functools import partial
from itertools import product
from math import gcd, lcm

import pytest

from gausslab import cli, quadform
from gausslab.errors import (
    NotElementaryTwoGroup,
    NotQuadratic,
    TheoremViolated,
)
from gausslab.exactalg import abs_square, is_root_of_unity, weil_chain, zeta, zeta_sum
from gausslab.fields import is_prime
from gausslab.quadform import (
    FiniteAbelianGroup,
    QuadraticForm,
    _wall_histogram,
    char2_invariant,
    orthogonal_split,
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


def _pairing_exponent(form, i, j):
    """B(i, j) mod N, one entry of the pairing, from three table values."""
    q = form.exponents
    return (q[form.group.add(i, j)] - q[i] - q[j]) % form.value_order


def _twisted(form, chi_exponents):
    """The form x -> Q(x) chi(x) for a character given by exponents mod N."""
    n = form.value_order
    return QuadraticForm(form.group, n, [(e + c) % n for e, c in zip(form.exponents, chi_exponents)])


def _twist_gauss_identity(form, chi_exponents):
    """Check tau_{Q chi} = Q(a)^{-1} tau_Q for chi = B(a, -), a the least
    element whose `character_of_element` is chi; returns a."""
    a = next(a for a in form.group.elements() if form.character_of_element(a) == chi_exponents)
    twisted = _twisted(form, chi_exponents).gauss_sum()
    assert twisted == zeta(form.value_order, -form.exponents[a]) * form.gauss_sum()
    return a


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
    assert zeta(4, _pairing_exponent(EXEASY, 1, 1)) == -1  # B(1,1) = Q(0)Q(1)^{-2}


def test_exeasy_gauss_sum_is_one_plus_i():
    assert EXEASY.gauss_sum() == 1 + zeta(4, 1)


def test_character_is_quadratic_with_trivial_pairing():
    chi = QuadraticForm(Z4, 4, [0, 1, 2, 3])
    assert chi.is_quadratic()
    assert all(_pairing_exponent(chi, x, y) == 0 for x in range(4) for y in range(4))
    assert not chi.is_nondegenerate()


def test_z4_zeta8_square_table():
    q8 = QuadraticForm(Z4, 8, [0, 1, 4, 1])  # zeta_8^{x^2}
    assert q8.is_quadratic()
    for x in range(4):
        for y in range(4):
            assert _pairing_exponent(q8, x, y) == (2 * x * y) % 8


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


@pytest.mark.parametrize("moduli", [[], [1], [2, 3, 4], [6, 10, 15], [16, 16]], ids=str)
def test_index_arithmetic_matches_the_tuple_definitions(moduli):
    # add, neg, scalar and element_order work digit by digit on the index;
    # each equals its decode/encode definition on every element (pair)
    g = FiniteAbelianGroup(moduli)
    tuples = [g.decode(i) for i in g.elements()]
    for i, x in enumerate(tuples):
        assert g.neg(i) == g.encode([-a for a in x])
        assert all(g.scalar(n, i) == g.encode([n * a for a in x]) for n in (-3, 0, 2, 7))
        assert g.element_order(i) == lcm(1, *(d // gcd(d, a) for d, a in zip(moduli, x)))
        assert [g.add(i, j) for j in g.elements()] == [
            g.encode([a + b for a, b in zip(x, y)]) for y in tuples]
    assert g.add(0, 0) == g.neg(0) == 0 and g.element_order(0) == 1


def test_trivial_group():
    t = QuadraticForm(FiniteAbelianGroup([]), 1, [0])
    assert t.gauss_sum() == 1


@pytest.mark.parametrize("exponents", [[0, 4], [0, -1]])
def test_exponents_outside_the_value_order_are_refused(exponents):
    # a table is kept as given, never reduced: N = 4 and -1 are not in [0, 4)
    with pytest.raises(ValueError, match=r"exponents must lie in \[0, 4\)"):
        QuadraticForm(Z2, 4, exponents)


def test_table_is_copied():
    # a tuple table is quadratic like its list, and a later edit of the
    # caller's list leaves the form as built
    table = [0, 1, 1, 2]
    z22 = FiniteAbelianGroup([2, 2])
    kept, frozen = QuadraticForm(z22, 4, table), QuadraticForm(z22, 4, tuple(table))
    table[3] = 0
    for form in (kept, frozen):
        assert form.exponents == [0, 1, 1, 2]
        assert form.is_quadratic() and form.is_nondegenerate()


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


def _looked_up_ratio_order(tau, size):
    """The order that `verify_gauss_sum_theorem` looked up itself before it
    called `weil_chain`, kept as the oracle."""
    return is_root_of_unity(tau * tau / size)


def test_weil_chain_matches_the_gauss_sum_lookup():
    # the three gauss-verify fixtures and seeded forms: lambda = tau, lead 1,
    # r = 0, weight 1, and the lookup's order; a tau doubled fails both tests
    from gausslab.corpus import corpus

    fixtures = [QuadraticForm.from_json(job["input"]["form"])
                for job in corpus().values() if job["command"] == "gauss-verify"]
    assert len(fixtures) == 3
    seeded = [random_nondegenerate(FiniteAbelianGroup(moduli), seed)
              for moduli in ([2] * 4, [4, 2], [9], [3, 3], [8], [5, 25]) for seed in range(3)]
    for form in fixtures + seeded:
        tau, size = form.gauss_sum(), form.group.order
        chain = weil_chain([tau], size, size, 1, size)
        assert (chain.lam, chain.lead, chain.r, chain.weight, chain.residuals) == (
            tau, 1, 0, 1, [True]), form
        assert chain.ratio_order == _looked_up_ratio_order(tau, size), form
        assert chain.ratio_order == form.verify_gauss_sum_theorem(), form
        assert chain.abs_ok is True and abs_square(tau) == size, form
        doubled = weil_chain([2 * tau], size, size, 1, size)
        assert doubled.ratio_order is None and _looked_up_ratio_order(2 * tau, size) is None, form
        assert not doubled.abs_ok, form


def test_gauss_certificate_takes_no_conjugate(monkeypatch, tmp_path, capsys):
    # tau^2/|M| a root of unity implies tau conj(tau) = |M|, so a gauss-verify
    # job takes no abs_square or Galois image; a tau doubled is still a fault.
    # The same holds for the Hasse-Davenport chains of the catalog data whose
    # lookup of tau^2/q^d succeeds.
    from gausslab import exactalg
    from gausslab.charsum import hasse_davenport_check
    from gausslab.corpus import catalog_data

    chains = [(datum, r, hasse_davenport_check(datum, r)) for _, datum, r, _ in catalog_data()]
    chains = [(datum, r, rep) for datum, r, rep in chains if rep.fev_ratio_order is not None]
    assert len(chains) == 8  # all but the two negative controls
    calls = []
    galois = exactalg.CyclotomicNumber.galois
    monkeypatch.setattr(exactalg.CyclotomicNumber, "galois",
                        lambda self, k: calls.append(k) or galois(self, k))
    monkeypatch.setattr(exactalg, "abs_square", lambda z: calls.append(z))
    forms = [EXEASY, Z3FORM, HYPERBOLIC] + [
        random_nondegenerate(FiniteAbelianGroup(moduli), 1) for moduli in ([2] * 4, [4, 2], [9])]
    for form in forms:
        report = cli.dispatch("gauss-verify", {"form": form.to_json()})
        assert report["ok"] and report["result"]["abs_square"] == str(form.group.order)
    for datum, r, rep in chains:
        assert hasse_davenport_check(datum, r) == rep
    assert calls == []
    tau = QuadraticForm._tau
    monkeypatch.setattr(QuadraticForm, "_tau", property(lambda self: 2 * tau.func(self)))
    for form in forms:
        with pytest.raises(TheoremViolated):
            QuadraticForm(form.group, form.value_order, form.exponents).verify_gauss_sum_theorem()
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"form": Z3FORM.to_json()}))
    assert cli.main(["gauss-verify", "--input", str(path)]) == 4
    assert "tau^2/|M| not a root of unity" in capsys.readouterr().err


def test_recursive_oracle_matches_direct_sum():
    # the last form reaches the descent step with a != 0: x = 2 is isotropic
    # and Q(x) = -1
    z4 = QuadraticForm(FiniteAbelianGroup([4]), 8, [0, 1, 4, 1])
    for form in (EXEASY, Z3FORM, HYPERBOLIC, z4):
        assert recursive_gauss_eval(form) == form.gauss_sum()
    assert HYPERBOLIC.gauss_sum() == 2


def test_twist_identity_exeasy():
    # chi(1) = -1, i.e. exponent 2 in Q(zeta_4)
    a = _twist_gauss_identity(EXEASY, [0, 2])
    assert a == 1
    assert _twisted(EXEASY, [0, 2]).gauss_sum() == 1 - zeta(4, 1)


def test_twist_trivial_character():
    a = _twist_gauss_identity(EXEASY, [0, 0])
    assert a == 0
    assert _twisted(EXEASY, [0, 0]).gauss_sum() == EXEASY.gauss_sum()


def test_twist_identity_z3_both_sides():
    chi = [0, 1, 2]  # zeta_3^x
    a = _twist_gauss_identity(Z3FORM, chi)
    lhs = _twisted(Z3FORM, chi).gauss_sum()
    rhs = zeta(3, -Z3FORM.exponents[a] % 3) * Z3FORM.gauss_sum()
    assert lhs == rhs


def test_twist_identity_all_elements():
    for form in (EXEASY, Z3FORM, HYPERBOLIC):
        n = form.group.order
        for a in range(n):
            chi = form.character_of_element(a)
            twisted = _twisted(form, chi)
            assert twisted.gauss_sum() * form.value(a) == form.gauss_sum()


def test_char2_invariant_examples():
    a, qa = char2_invariant(EXEASY)
    assert a == (1,)
    assert EXEASY.gauss_sum() ** 2 == qa * 2
    a, qa = char2_invariant(HYPERBOLIC)
    assert a == (0, 0) and HYPERBOLIC.gauss_sum() == 2 and qa == 1
    # exeasy + exeasy on (Z/2)^2: a = (1,1), tau^2 = -4
    z22 = FiniteAbelianGroup([2, 2])
    dsum = QuadraticForm(z22, 4, [0, 1, 1, 2])
    a, qa = char2_invariant(dsum)
    assert a == (1, 1)
    assert dsum.gauss_sum() ** 2 == -4
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
                            + sum(_pairing_exponent(form, g.scalar(i, v), v)
                                  for i in range(1, m))) % n
                assert form.exponents[g.scalar(m, v)] == expected


def test_diagonal_is_character_on_elementary_two_groups():
    # v -> B(v, v) is additive on (Z/2)^k (part 1 of the char-2 proposition)
    g = FiniteAbelianGroup([2, 2, 2])
    form = random_nondegenerate(g, 9)
    b = partial(_pairing_exponent, form)
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
        {"0": 0, "01": 1, "2": 1},                   # ... and with |M| keys
        {"0": 0, "7": 1, "2": 1},                    # 7 is outside [0, 3)
        {"0": 0, "1": 1, "-1": 1},
        {"0": 0, "1": 1, "2": 1, "0,0": 1},          # wrong arity
        {"0": 0, "1": 1, "0,0": 1},
        {"": 0, "0": 0, "1": 1, "2": 1},
        {"": 0, "1": 1, "2": 1},
        {"00": 0, "1": 1, "2": 1},                   # keys are written canonically
        {"0": 0, "+1": 1, "2": 1},
        {"0": 0, "1": 5, "2": 1},                    # exponents are in [0, 3), not reduced
        {"0": 0, "1": -3, "2": 1},
        {"0": 0, "1": True, "2": 1},
        {"0": 0, "1": 1.0, "2": 1},
        {"0": 0, "1": "1", "2": 1},
    ):
        with pytest.raises(ValueError):
            QuadraticForm.from_json(job(values))
    for order in (3.0, True, 0, "3"):
        with pytest.raises(ValueError, match="value_order must be an int >= 1"):
            QuadraticForm.from_json({**job({"0": 0, "1": 1, "2": 1}), "value_order": order})
    for factors in ([3.0], [True], ["3"]):
        with pytest.raises(ValueError, match="moduli must be ints >= 1"):
            QuadraticForm.from_json({**job({"0": 0, "1": 1, "2": 1}), "invariant_factors": factors})
    with pytest.raises(ValueError):
        QuadraticForm.from_json(
            {"invariant_factors": [2, 1], "value_order": 4,
             "values": {"0,0": 0, "1,0": 1, "1,1": 1}}
        )


def test_from_json_names_the_key_that_is_not_an_element():
    # with |M| keys the count passes, so each table reaches the key test
    for key in ("01", "0,0", "", "a,b", " 1", "1,", "-0", "3"):
        values = {"0": 0, "1": 1, key: 1}
        with pytest.raises(ValueError, match=re.escape(f"value key {key!r} is not an element")):
            QuadraticForm.from_json({"invariant_factors": [3], "value_order": 3, "values": values})


def test_from_json_refuses_a_table_of_the_wrong_size_before_building():
    # |M| = 2 * 10^12: a table of size |M| would not fit in memory
    for values in ({"0": 0}, {}, {"0,0": 0, "1,0": 0, "0,1": 0}):
        message = f"one key per element of FiniteAbelianGroup([{10**12}, 2]), got {len(values)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            QuadraticForm.from_json({"invariant_factors": [10**12, 2], "value_order": 2,
                                     "values": values})


def test_key_index_is_decode_in_index_order():
    for moduli in ((), (1,), (3, 4, 2), (2,) * 6):
        g = FiniteAbelianGroup(moduli)
        index = g.key_index()
        assert list(index.values()) == list(range(g.order))
        assert list(index) == [",".join(map(str, g.decode(i))) for i in range(g.order)]
    assert FiniteAbelianGroup(()).key_index() == {"": 0}
    assert FiniteAbelianGroup((1,)).key_index() == {"0": 0}
    # to_json writes the keys from_json reads
    form = random_nondegenerate(FiniteAbelianGroup((3, 4, 2)), 5)
    assert QuadraticForm.from_json(form.to_json()).exponents == form.exponents


def test_from_json_rejects_values_that_are_not_roots_of_unity():
    def job(value):
        return {"invariant_factors": [2], "value_order": 4, "values": {"0": 0, "1": value}}

    i = {"order": 4, "coeffs": [[0, 1], [1, 1]]}
    assert QuadraticForm.from_json(job(i)).exponents == [0, 1]
    assert QuadraticForm.from_json(job({"order": 2, "coeffs": [[-1, 1]]})).exponents == [0, 2]
    # 1/2 has the coefficient vector of 1 over the denominator 2
    for value in ({"order": 4, "coeffs": [[1, 2], [0, 1]]},
                  {"order": 4, "coeffs": [[1, 1], [1, 1]]},
                  {"order": 2, "coeffs": [[2, 1]]}):
        with pytest.raises(ValueError, match=r"element \(1,\) is not a 4-th root of unity"):
            QuadraticForm.from_json(job(value))


@pytest.mark.parametrize("moduli", [[25], [30]], ids=str)
def test_from_json_reads_cyclotomic_tables_at_orders_625_and_900(moduli):
    # zeta_625 and zeta_900 go through Q(zeta_5) and Q(zeta_30): the table of
    # values is read back exactly, and a value that is no root of unity (a
    # sum of two, twice one, one over a denominator) is refused
    form = random_nondegenerate(FiniteAbelianGroup(moduli), 1)
    n = form.value_order
    assert n == moduli[0] ** 2
    spec = form.to_json()
    assert QuadraticForm.from_json(spec).exponents == form.exponents
    lower = {**spec["values"], "1": zeta(moduli[0], 1).to_json()}
    assert QuadraticForm.from_json({**spec, "values": lower}).exponents[1] == moduli[0]
    for z in (zeta(n, 1) + zeta(n, 7), 2 * zeta(n, 3), zeta(n, 5) / 3):
        bad = {**spec["values"], "1": z.to_json()}
        with pytest.raises(ValueError, match=rf"element \(1,\) is not a {n}-th root of unity"):
            QuadraticForm.from_json({**spec, "values": bad})


def test_abs_square_check_reports_the_weil_chain(monkeypatch, tmp_path, capsys):
    # abs-square-is-order reads the Weil chain's abs_ok: a chain whose
    # abs_ok fails reports the check failed, with tau * conj(tau) as its
    # witness, and the job exits 1
    chain = QuadraticForm.gauss_chain
    monkeypatch.setattr(QuadraticForm, "gauss_chain", property(
        lambda self: type(c := chain.func(self))(**{**vars(c), "abs_ok": False})))
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"form": Z3FORM.to_json()}))
    assert cli.main(["gauss-verify", "--input", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    check = next(c for c in report["checks"] if c["name"] == "abs-square-is-order")
    witness = abs_square(Z3FORM.gauss_sum()).to_json()
    assert check == {"name": "abs-square-is-order", "pass": False, "witness": witness}
    assert report["result"]["abs_square"] == witness and report["result"]["ratio_order"] == 2
    assert not report["ok"]


def test_q0_must_be_one():
    # B(0, 0) = -Q(0): also on groups without generators
    for moduli in ([], [1, 1], [3]):
        g = FiniteAbelianGroup(moduli)
        form = QuadraticForm(g, 4, [1] + [0] * (g.order - 1))
        assert not form.is_quadratic()
        with pytest.raises(NotQuadratic):
            form.radical()


def test_recursion_invariants_survive_optimize():
    # degenerate generator data break the Wall splitting; it must say so with
    # a typed error, not an assert that python -O strips
    for mods, n_val, q, gram in (
        ([2], 2, [1], [[0]]),            # the character (-1)^x: B = 0, o = 1
        ([4], 4, [1], [[2]]),            # i^(x^2): B(e, e) has order 2, e order 4
        ([3, 3], 3, [0, 0], [[1, 0], [0, 0]]),  # e_1 is left radical
        ([2, 2], 4, [1, 0], [[2, 0], [0, 0]]),
        ([8, 8], 8, [0, 0], [[0, 2], [2, 0]]),  # a plane of order 4 on Z/8 x Z/8
    ):
        with pytest.raises(TheoremViolated):
            _wall_histogram(orthogonal_split(mods, n_val, gram), n_val, q, gram)


# -- the table recursion, the oracle for the Wall splitting ------------------------

def addition_table(group):
    """order x order table of index sums: row i is row (i - e_t) translated by
    e_t, t the lowest nonzero coordinate."""
    shifts = {g: group.translation(g) for g in group.generators()}
    table = [list(range(group.order))]
    for i in range(1, group.order):
        g = max(g for g in shifts if i % g == 0)  # e_t is the largest such g
        table.append([shifts[g][x] for x in table[i - g]])
    return table


def _hist(items):
    out = {}
    for k in items:
        out[k] = out.get(k, 0) + 1
    return out


def _table_recursive_tau(add, exps, n_val):
    """tau by the inductive proof of the Gauss-sum theorem on an (addition
    table, exponent) datum.  Pick the least x of prime order: if B(x,x) != 1,
    split off <x> and recurse on its orthogonal complement; otherwise untwist
    so Q vanishes on <x> and descend to <x>-perp / <x> with multiplier |<x>|."""
    n = len(exps)
    if n == 1:
        return zeta(n_val, exps[0])

    def b_row(i):
        return [(exps[s] - exps[i] - exps[j]) % n_val for j, s in enumerate(add[i])]

    def order_of(i):
        o, cur = 1, i
        while cur != 0:
            cur = add[cur][i]
            o += 1
        return o

    x = next((i for i in range(1, n) if is_prime(order_of(i))), None)
    if x is None:
        raise TheoremViolated("a nontrivial finite group has an element of prime order")
    p = order_of(x)
    cyclic = [0]
    cur = x
    while cur != 0:
        cyclic.append(cur)
        cur = add[cur][x]
    row_x = b_row(x)
    comp = [i for i in range(n) if row_x[i] == 0]
    if row_x[x]:
        tau_x = zeta_sum(n_val, _hist(exps[c] for c in cyclic))
        sub = _restrict_table(add, exps, comp)
        return tau_x * _table_recursive_tau(sub[0], sub[1], n_val)
    target = exps[x]
    a = next(
        (c for c in range(n) if (exps[add[c][x]] - exps[c] - exps[x]) % n_val == target),
        None,
    )
    if a is None:
        raise TheoremViolated("non-degeneracy realizes the character B(-, x) = Q(x)")
    row_a = b_row(a)
    shifted = [(exps[i] - row_a[i]) % n_val for i in range(n)]
    if any(shifted[c] for c in cyclic):
        raise TheoremViolated("the untwisted form does not vanish on <x>")
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
    neg_a = next(cand for cand in range(n) if add[a][cand] == 0)
    correction = zeta(n_val, exps[neg_a])
    return correction * p * _table_recursive_tau(qadd, qexps, n_val)


def _restrict_table(add, exps, elements):
    elements = sorted(elements)
    index = {e: t for t, e in enumerate(elements)}
    sub_add = [[index[add[i][j]] for j in elements] for i in elements]
    sub_exps = [exps[i] for i in elements]
    return sub_add, sub_exps


def _plane(d, n_val, q):
    """The form x -> zeta_n_val^q(x_0, x_1) on Z/d x Z/d."""
    g = FiniteAbelianGroup([d, d])
    return QuadraticForm(g, n_val, [q(*g.decode(i)) % n_val for i in g.elements()])


# planes where no B(e_s, e_s) has the largest order: the odd-prime branch
# (split off <v_i + v_j>) and the plane branch at p = 2
BRANCH_FORMS = [
    _plane(3, 3, lambda x, y: x * y),
    _plane(9, 9, lambda x, y: x * y),
    _plane(2, 2, lambda x, y: x * y),
    _plane(2, 2, lambda x, y: x * x + x * y + y * y),
    _plane(4, 4, lambda x, y: x * y),
    _plane(4, 4, lambda x, y: x * x + x * y + y * y),
]
BATTERY_SHAPES = [
    [], [1], [2], [3], [4], [5], [8], [9], [25], [6], [12], [30], [2, 2], [2, 4],
    [4, 4], [3, 3], [3, 9], [2, 6], [1, 4], [2, 1, 2], [2, 2, 2], [4, 2, 6], [2] * 6, [8, 8],
]


def test_wall_oracle_matches_table_recursion_and_gauss_sum():
    order = lambda form, e: form.value_order // gcd(e, form.value_order)
    for form in BRANCH_FORMS:
        assert form.is_quadratic() and form.is_nondegenerate(), form
        b = partial(_pairing_exponent, form)
        e0, e1 = form.group.generators()
        assert max(order(form, b(e0, e0)), order(form, b(e1, e1))) < order(form, b(e0, e1))
    forms = BRANCH_FORMS + [random_nondegenerate(FiniteAbelianGroup(m), s)
                            for m in BATTERY_SHAPES for s in range(4)]
    for form in forms:
        tau = form.gauss_sum()
        assert recursive_gauss_eval(form) == tau, form
        assert _table_recursive_tau(addition_table(form.group), form.exponents,
                                    form.value_order) == tau, form


def test_wall_oracle_on_z4_7():
    # |M| = 16384: the table recursion would need an |M| x |M| table
    form = random_nondegenerate(FiniteAbelianGroup([4] * 7), 1)
    assert recursive_gauss_eval(form) == form.gauss_sum()


def test_recursive_oracle_refuses_degenerate_and_non_quadratic_forms():
    with pytest.raises(ValueError):
        recursive_gauss_eval(QuadraticForm(Z4, 4, [0, 1, 0, 1]))
    with pytest.raises(NotQuadratic):
        recursive_gauss_eval(QuadraticForm(Z4, 8, [0, 1, 1, 1]))


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
        QuadraticForm(FiniteAbelianGroup([3, 3]), 3, [(x + 2 * (x // 3)) % 3 for x in range(9)]),
        _pulled_back(forms[0], 2),
        _pulled_back(forms[5], 2),
        _pulled_back(forms[1], 3),
    ]
    for form in forms + degenerate:
        add, b = _reference_tables(form)
        assert addition_table(form.group) == add, form
        assert _exhaustive_witness(form, add, b) is None, form
        assert form.is_quadratic(), form
        radical = _exhaustive_radical(form, b)
        assert form.radical() == radical, form
        assert form.is_nondegenerate() == (form in forms), form
        for a in (0, form.group.order - 1):
            assert form.character_of_element(a) == b[a]
        if all(d == 2 for d in form.group.moduli) and len(radical) == 1:
            a, _ = char2_invariant(form)
            assert form.group.encode(a) == _exhaustive_char2_element(form, b), form


def test_failure_seen_only_against_the_second_generator():
    # B(-, e_0) is additive here; only h = e_1 exposes the failure
    bad = QuadraticForm(FiniteAbelianGroup([2, 4]), 8, [0, 0, 6, 2, 7, 7, 6, 2])
    add, b = _reference_tables(bad)
    assert _exhaustive_witness(bad, add, b) is not None
    assert not bad.is_quadratic()
    assert bad.witness[2] == (0, 1)


# |M| <= 64; not Z/2, where every table with Q(0) = 1 is quadratic
@pytest.mark.parametrize("moduli,seed", ORACLE_FORMS[:4])
def test_every_single_entry_corruption_is_rejected(moduli, seed):
    form = random_nondegenerate(FiniteAbelianGroup(moduli), seed)
    assert form.group.order <= 64
    for x in form.group.elements():
        exps = list(form.exponents)
        exps[x] = (exps[x] + 1) % form.value_order
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
    table = addition_table(g)
    assert len(table) == g.order
    for i in g.elements():
        assert g.translation(i) == table[i]
        for j in g.elements():
            assert table[i][j] == g.encode(tuple(x + y for x, y in zip(g.decode(i), g.decode(j))))


# -- the O(|M|) bilinearity test against the exhaustive oracles ---------------------

def _scan_witness(form, add, b):
    """The generator scan's witness from the reference tables: the first
    (x, g, h) in the order g, h over generators, x over M with B(x+g, h) !=
    B(x, h) + B(g, h); (0, 0, 0) when Q(0) != 1."""
    g = form.group
    if form.exponents[0]:
        return (g.decode(0),) * 3
    gens = g.generators()
    return next(((g.decode(x), g.decode(gen), g.decode(h)) for gen in gens for h in gens
                 for x in g.elements() if (b[h][add[x][gen]] - b[h][x] - b[h][gen]) % form.value_order),
                None)


def _generator_data_forms(moduli, n_val):
    """Every quadratic form on M with values mod n_val: the tables sum_s
    (x_s q_s + C(x_s, 2) G_ss) + sum_(s<t) x_s x_t G_st over every (q, G) with
    d_s q_s + C(d_s, 2) G_ss = d_s G_st = 0 mod n_val (d_s > 1), a quadratic
    table having exactly one such (q, G), its own values on generators."""
    g = FiniteAbelianGroup(moduli)
    mods = [d for d in moduli if d > 1]
    k = len(mods)
    pairs = [(s, t) for s in range(k) for t in range(s, k)]
    killed = [[c for c in range(n_val) if all(d * c % n_val == 0 for d in (mods[s], mods[t]))]
              for s, t in pairs]
    coords = [[c for c, d in zip(g.decode(i), moduli) if d > 1] for i in g.elements()]
    for q in product(range(n_val), repeat=k):
        for entries in product(*killed):
            gram = [[0] * k for _ in range(k)]
            for (s, t), c in zip(pairs, entries):
                gram[s][t] = gram[t][s] = c
            if any((d * q[s] + d * (d - 1) // 2 * gram[s][s]) % n_val for s, d in enumerate(mods)):
                continue
            yield QuadraticForm(g, n_val, [
                sum(c * q[s] + c * (c - 1) // 2 * gram[s][s]
                    + sum(c * x[t] * gram[s][t] for t in range(s + 1, k))
                    for s, c in enumerate(x)) % n_val for x in coords])


def _check_against_oracles(form, add):
    q, n = form.exponents, form.value_order
    b = [[(q[add[i][j]] - q[i] - q[j]) % n for j in range(len(q))] for i in range(len(q))]
    exhaustive = _exhaustive_witness(form, add, b)
    witness = form.witness
    # B(0, 0) = -Q(0): the only failure on a group without generators
    assert (witness is None) == (exhaustive is None and q[0] == 0)
    assert witness == _scan_witness(form, add, b), form.exponents
    if witness is None:
        assert form.is_nondegenerate() == (len(_exhaustive_radical(form, b)) == 1), form.exponents
        assert form.radical() == _exhaustive_radical(form, b)
    else:
        x, g, h = (form.group.encode(t) for t in witness)
        assert (b[add[x][g]][h] - b[x][h] - b[g][h]) % n or q[0], witness
        with pytest.raises(NotQuadratic):
            form.is_nondegenerate()
    return witness is None


# (moduli, value order, forms whose every single-entry corruption is checked)
EVERY_FORM = [
    ([1], 3, 3), ([2], 8, 8), ([3], 9, 9), ([4], 8, 16), ([6], 36, 36), ([2, 2], 4, 8),
    ([3, 3], 3, 9), ([2, 1, 4, 1], 8, 4), ([4, 2, 6], 2, 2),
]


@pytest.mark.parametrize("moduli,n_val,corrupted", EVERY_FORM)
def test_bilinearity_decision_agrees_with_exhaustive_oracles(moduli, n_val, corrupted):
    # every quadratic form, and every single-entry corruption of the first
    # few: the O(|M|) decision, the witness and non-degeneracy against the
    # exhaustive oracles
    group = FiniteAbelianGroup(moduli)
    add = addition_table(group)
    forms = list(_generator_data_forms(moduli, n_val))
    assert len({tuple(f.exponents) for f in forms}) == len(forms) >= 1
    for form in forms:
        assert _check_against_oracles(form, add), form.exponents
    for form in forms[:corrupted]:
        for x in group.elements():
            for shift in range(1, n_val):
                exps = list(form.exponents)
                exps[x] = (exps[x] + shift) % n_val
                _check_against_oracles(QuadraticForm(group, n_val, exps), add)


@pytest.mark.parametrize("moduli,n_val", [([1], 4), ([2], 4), ([3], 3), ([4], 4), ([2, 2], 4)])
def test_every_table_on_tiny_groups_agrees_with_exhaustive_oracles(moduli, n_val):
    # all n_val^|M| tables, Q(0) != 1 included; the quadratic ones are
    # exactly the tables of generator data
    group = FiniteAbelianGroup(moduli)
    add = addition_table(group)
    quadratic = {tuple(f.exponents) for f in _generator_data_forms(moduli, n_val)}
    for exps in product(range(n_val), repeat=group.order):
        form = QuadraticForm(group, n_val, exps)
        assert _check_against_oracles(form, add) == (exps in quadratic), exps


@pytest.mark.parametrize("n_val,count", [(2, 4), (4, 242), (8, 242)])
def test_char2_element_from_the_split_agrees_with_exhaustive_oracle(n_val, count):
    # every non-degenerate quadratic form on (Z/2)^k, k <= 3, with values mod
    # n_val: (Z/2)^2 alone carries 4 of them mod 2
    forms = [f for k in (1, 2, 3) for f in _generator_data_forms([2] * k, n_val)
             if f.is_nondegenerate()]
    assert len(forms) == count
    for form in forms:
        _, b = _reference_tables(form)
        a, qa = char2_invariant(form)
        assert form.group.encode(a) == _exhaustive_char2_element(form, b), form.exponents
        assert form.gauss_sum() ** 2 == qa * form.group.order


def _exhaustive_descent(form, add, b):
    """radical_descent from the reference tables: the radical, and the least
    element of each coset x + radical as its representative."""
    q, n = form.exponents, form.value_order
    radical = _exhaustive_radical(form, b)
    if any(q[r] for r in radical):
        return ("zero",)
    reps = sorted({min(add[x][r] for r in radical) for x in form.group.elements()})
    return ("descends", len(radical), zeta_sum(n, _hist(q[x] for x in reps)))


@pytest.mark.parametrize("moduli,n_val", [
    ([2, 4], 8), ([4, 2, 6], 2), ([3, 3], 3), ([6], 36), ([2, 2], 4), ([4], 8), ([2, 1, 4, 1], 8),
])
def test_radical_descent_agrees_with_exhaustive_oracle(moduli, n_val):
    # every quadratic form, degenerate ones included
    outcomes = set()
    for form in _generator_data_forms(moduli, n_val):
        add, b = _reference_tables(form)
        outcome = radical_descent(form)
        assert outcome == _exhaustive_descent(form, add, b), form.exponents
        outcomes.add(outcome[:2])
    assert ("zero",) in outcomes and len(outcomes) > 2


def test_fill_refuted_table_without_a_scan_witness_is_a_fault(monkeypatch):
    # the scan runs only after the fill refutes the table, and must then find
    # a witness: a fill that refutes a quadratic table is a bug, exit 4
    monkeypatch.setattr(quadform, "_fill", lambda mods, n_val, q, gram: [])
    with pytest.raises(TheoremViolated):
        QuadraticForm(Z22, 2, [0, 0, 0, 1]).is_quadratic()


def test_gauss_verify_builds_no_generator_row(monkeypatch):
    # a quadratic table: bilinearity, non-degeneracy, the oracle and the
    # char-2 element come from the k + k^2 Gram lookups and one Wall split,
    # and the table is summed once (the other zeta_sum is the oracle's Wall
    # histogram)
    def refuse(*args):
        raise AssertionError("a generator row or translation was built")

    sums = []
    zeta_sum_ = quadform.zeta_sum
    monkeypatch.setattr(quadform.QuadraticForm, "character_of_element", refuse)
    monkeypatch.setattr(quadform.FiniteAbelianGroup, "translation", refuse)
    monkeypatch.setattr(quadform, "zeta_sum", lambda n, hist: sums.append(n) or zeta_sum_(n, hist))
    checks = ["is-quadratic", "abs-square-is-order", "recursive-oracle-agrees"]
    for moduli, seed in (([4, 2, 6], 5), ([8, 8, 8], 0), ([9], 1), ([2, 4], 3), ([2] * 6, 2)):
        form = random_nondegenerate(FiniteAbelianGroup(moduli), seed)
        sums.clear()
        report = cli.dispatch("gauss-verify", {"form": {
            "invariant_factors": moduli, "value_order": form.value_order,
            "values": {key: form.exponents[i] for key, i in form.group.key_index().items()}}})
        assert report["result"]["nondegenerate"] and report["ok"], report
        char2 = ["char2-square-identity"] if set(moduli) == {2} else []
        assert [c["name"] for c in report["checks"]] == checks + char2
        assert sums == [form.value_order] * 2


def test_random_nondegenerate_splits_each_draw_and_fills_once(monkeypatch):
    # (Z/2)^6 with seed 2 draws 5 Gram matrices; only the accepted one is filled
    splits, fills = [], []
    split, fill = quadform.orthogonal_split, quadform._fill
    monkeypatch.setattr(quadform, "orthogonal_split", lambda *a: splits.append(1) or split(*a))
    monkeypatch.setattr(quadform, "_fill", lambda *a: fills.append(1) or fill(*a))
    random_nondegenerate(FiniteAbelianGroup([2] * 6), 2)
    assert (len(splits), len(fills)) == (5, 1)


# sha256 of json [[value_order, exponents] for seeds 0..7], first 16 hex digits,
# for the groups of the benchmark's forms
RANDOM_FORM_DIGESTS = {
    (16,): "223b37888bb021ff", (9, 9): "256cee41bc85eb7a", (25,): "97c06716a2847c6c",
    (30,): "4ea342b0b72e0923", (5, 25): "ca00b99ee2156235", (2,) * 6: "2aa071c1fab85a1c",
    (3,) * 4: "fe761a40bbf1156c", (4,) * 3: "e22bfb43f90b3a73", (5,) * 3: "56a55c1a4cd7beec",
    (16, 16): "b2962056bb4ae983", (8, 8, 8): "cf373f428cc243c9",
}


@pytest.mark.parametrize("moduli", sorted(RANDOM_FORM_DIGESTS))
def test_random_nondegenerate_forms_are_pinned(moduli):
    forms = [random_nondegenerate(FiniteAbelianGroup(moduli), s) for s in range(8)]
    blob = json.dumps([[f.value_order, f.exponents] for f in forms]).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == RANDOM_FORM_DIGESTS[moduli]


@pytest.mark.parametrize("moduli,digest", [([4] * 7, "dbe231525bb956cf"),
                                           ([2] * 16, "73ad3bff0ea17530")])
def test_large_random_forms_are_pinned(moduli, digest):
    form = random_nondegenerate(FiniteAbelianGroup(moduli), 1)
    blob = json.dumps([form.value_order, form.exponents]).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
