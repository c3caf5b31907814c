"""Heisenberg groups, Stone-von-Neumann representations, deck transformations."""

import itertools
import random
from math import gcd

import pytest

from gausslab import heisenberg
from gausslab.charsum import (
    ASLinear,
    CrossMonomial,
    DiagMonomial,
    HalfSquare,
    Precompose,
    QuadDatum,
    WittLinear,
    _ga_value,
    _term_plan,
    geometric_kernel,
)
from gausslab.corpus import _frobenius_pairing
from gausslab.errors import (
    NonInjectiveCharacter,
    NotAlternating,
    NotPerfect,
    TheoremViolated,
)
from gausslab.exactalg import abs_square, zeta, zeta_sum
from gausslab.fields import AdditivePolynomial, extension, make_field
from gausslab.heisenberg import (
    AlternatingPairing,
    HeisenbergGroup,
    SvNRepresentation,
    _check_deck_commutators,
    _covering_points,
    _validate_deck_maps,
    build_group,
    check_faithful,
    heisenberg_from_datum,
    stone_von_neumann,
)
from gausslab.quadform import FiniteAbelianGroup

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def standard_pairing(p, r=1):
    """The symplectic pairing sum_i (a_i d_i - b_i c_i) on (Z/p)^(2r), into Z/p."""
    g = FiniteAbelianGroup([p] * (2 * r))
    table = [[0] * g.order for _ in range(g.order)]
    for i in g.elements():
        for j in g.elements():
            x, y = g.decode(i), g.decode(j)
            table[i][j] = sum(
                x[2 * t] * y[2 * t + 1] - x[2 * t + 1] * y[2 * t] for t in range(r)
            ) % p
    return AlternatingPairing(g, p, table)


# -- exhaustive definitions, kept as oracles for the generator checks of the
# constructors

def _exhaustive_group_law(h):
    """The sweeps the check of the HeisenbergGroup constructor replaces: |H| = |A||K|, identity and
    inverse laws, associativity over H^3 (through the Cayley table), the center
    scan Z(H) = A, and [(0,x),(0,y)] = (e(x,y),0) over K x K."""
    els = list(h.elements())
    if len(els) != h.order:
        return False
    pos = {g: t for t, g in enumerate(els)}
    table = [[pos[h.multiply(g1, g2)] for g2 in els] for g1 in els]
    one = pos[h.identity()]
    idx = range(len(els))
    for t, g in enumerate(els):
        if table[t][one] != t or table[one][t] != t or table[t][pos[h.inverse(g)]] != one:
            return False
    for a in idx:
        row_a = table[a]
        for b in idx:
            row_ab, row_b = table[row_a[b]], table[b]
            if any(row_ab[c] != row_a[row_b[c]] for c in idx):
                return False
    center = [g for t, g in enumerate(els) if all(table[t][u] == table[u][t] for u in idx)]
    if sorted(center) != [(a, 0) for a in range(h.a_modulus)]:
        return False
    k = h.k_group
    return all(
        h.commutator((0, x), (0, y)) == (h.pairing.value(x, y), 0)
        for x in k.elements()
        for y in k.elements()
    )


def _exhaustive_homomorphism(rep):
    """rho(g1 g2) = rho(g1) rho(g2) on all |H|^2 pairs."""
    grp = rep.group
    els = list(grp.elements())
    return all(
        rep.matrix(grp.multiply(g1, g2)) == rep.compose(rep.matrix(g1), rep.matrix(g2))
        for g1 in els
        for g2 in els
    )


def _induced_matrix(rep, g):
    """rho(g) of the representation induced from psi on A x L', extended by 1
    on L' = <y_i>, computed by arithmetic in K: column lambda is the coset of
    (0, l), l = sum lambda_i x_i; g = (a, k) moves it to the coset of (0, l''),
    k + l = l'' + m with l'' in L and m in L', with the phase
    psi(a + c(k, l) - c(l'', m)).  The oracle for the closed-form matrices."""
    grp = rep.group
    k = grp.k_group
    pairs = grp.basis
    orders = [k.element_order(x) for x, _, _ in pairs]
    labels = list(itertools.product(*(range(o) for o in orders)))
    label_index = {lab: t for t, lab in enumerate(labels)}

    def l_element(lab):
        idx = 0
        for c, (x, _, _) in zip(lab, pairs):
            idx = k.add(idx, k.scalar(c, x))
        return idx

    a_h, k_h = g
    perm, exps = [], []
    for lab in labels:
        l_idx = l_element(lab)
        total_k = k.add(k_h, l_idx)
        alphas, _ = grp._coords[total_k]
        l2_lab = tuple(a % o for a, o in zip(alphas, orders))
        l2_idx = l_element(l2_lab)
        m_idx = k.add(total_k, k.neg(l2_idx))
        b = (a_h + grp.cocycle(k_h, l_idx) - grp.cocycle(l2_idx, m_idx)) % rep.mod
        perm.append(label_index[l2_lab])
        exps.append(rep.psi_unit * b % rep.mod)
    return (tuple(perm), tuple(exps))


def _solved_coordinates(group):
    """(alpha(k), beta(k)) solved at every k, as the table was before it was
    filled from the generators: e(k, y_i) = alpha_i eps_i and e(x_i, k) =
    beta_i eps_i mod A, alpha_i and beta_i mod o_i."""
    pairs, orders, mod = group.basis, group.orders, group.a_modulus

    def solve(value, eps, o):
        (out,) = [c for c in range(o) if c * eps % mod == value]
        return out

    return [tuple(tuple(solve(group.pairing.value(*ends), eps, o)
                        for (x, y, eps), o in zip(pairs, orders)
                        for ends in [((k, y), (x, k))[side]])
                  for side in (0, 1)) for k in group.k_group.elements()]


def _assert_induced(group):
    """The closed-form matrices equal the induced ones for every g and every
    primitive psi."""
    for psi in (u for u in range(group.a_modulus) if gcd(u, group.a_modulus) == 1):
        rep = SvNRepresentation(group, psi)
        for g in group.elements():
            assert rep.matrix(g) == _induced_matrix(rep, g)


def _oracle_ranks(group, mod, table):
    """The all-pairs sweeps the Gram checks and the symplectic reduction on
    generators replaced: e(x, x) = 0 at every x, biadditivity at every
    (generator, x, y), the radical scan, then the Darboux recursion that splits
    off a maximal-order pair of all of K x K and recurses on its orthogonal
    complement.  Returns the Darboux ranks, or raises what the sweeps raised."""
    g, t = group, table
    for i in g.elements():
        if t[i][i] % mod:
            raise NotAlternating(f"e(x,x) != 0 at x = {g.decode(i)}")
    for gen in g.generators():
        shift = g.translation(gen)
        for i in g.elements():
            for j in g.elements():
                if (t[shift[i]][j] - t[i][j] - t[gen][j]) % mod or (
                        t[j][shift[i]] - t[j][i] - t[j][gen]) % mod:
                    raise NotAlternating("pairing is not biadditive")
    rad = [i for i in g.elements() if not any(v % mod for v in t[i])]
    if len(rad) != 1:
        raise NotPerfect(g.decode(rad[1]))
    ranks, elements = [], list(g.elements())
    while len(elements) > 1:
        o, x, y = max((mod // gcd(t[x][y], mod), x, y) for x in elements for y in elements)
        if o == 1 or g.element_order(x) != o or g.element_order(y) != o:
            raise NotPerfect(g.decode(x))
        ranks.append(o)
        elements = [z for z in elements if t[z][x] % mod == 0 and t[z][y] % mod == 0]
    return ranks


def _fill(group, mod, gram):
    """sum_{s,t} x_s y_t gram[s][t] mod A on every pair, from the coordinates
    0 <= x_s < d_s: a table whether or not gram is well-defined."""
    tuples = list(group.tuples())
    return [[sum(a * b * gram[s][t] for s, a in enumerate(x) for t, b in enumerate(y)) % mod
             for y in tuples] for x in tuples]


def _values(pairing):
    els = pairing.group.elements()
    return [[pairing.value(i, j) for j in els] for i in els]


def _assert_darboux(pairing):
    """e(x_i, y_j) = delta_ij eps_i and e(x_i, x_j) = e(y_i, y_j) = 0, with x_i,
    y_i and eps_i of one order."""
    g, mod, pairs = pairing.group, pairing.a_modulus, pairing.basis
    for a, (x, y, eps) in enumerate(pairs):
        assert g.element_order(x) == g.element_order(y) == mod // gcd(eps, mod)
        for b, (x2, y2, _) in enumerate(pairs):
            assert pairing.value(x, y2) == (eps if a == b else 0)
            assert pairing.value(x, x2) == pairing.value(y, y2) == 0


def _outcome(build):
    try:
        return build()
    except (NotAlternating, NotPerfect) as exc:
        return type(exc)


def _random_gram(rng, moduli, mod, alternating):
    """When `alternating`, an antisymmetric Gram matrix with zero diagonal,
    each entry a multiple of A / gcd(A, d_s, d_t), so d_s G = d_t G = 0;
    otherwise any k x k matrix over Z/A."""
    k = len(moduli)
    if not alternating:
        return [[rng.randrange(mod) for _ in range(k)] for _ in range(k)]
    gram = [[0] * k for _ in range(k)]
    for s, t in itertools.combinations(range(k), 2):
        step = mod // gcd(mod, moduli[s], moduli[t])
        v = step * rng.randrange(mod // step)
        gram[s][t], gram[t][s] = v, -v % mod
    return gram


# (moduli of K, A, random pairings): (Z/4)^2 into Z/2 has the radical element
# (2, 0); Z/6 and (Z/2)^2 x (Z/3)^2 into Z/6 have two primary parts
GRAM_SHAPES = [
    ([2, 2], 2, 12), ([3, 3], 3, 12), ([4, 4], 4, 20), ([4, 4], 2, 12), ([8, 8], 8, 20),
    ([4, 2], 4, 12), ([4, 4], 8, 12), ([2, 2, 2, 2], 2, 20), ([3, 3, 3, 3], 3, 6),
    ([4, 4, 2, 2], 4, 10), ([8, 4, 4, 2], 8, 4), ([6, 6], 6, 20), ([2, 2, 3, 3], 6, 12),
    ([2, 3, 2, 3], 6, 12),
]


@pytest.mark.parametrize("moduli,mod,count", GRAM_SHAPES,
                         ids=["x".join(map(str, m)) + f"-A{a}" for m, a, _ in GRAM_SHAPES])
def test_gram_reduction_agrees_with_all_pairs_oracle(moduli, mod, count):
    # same verdict, same exception class and same ranks as the all-pairs
    # sweeps, on well-defined Gram matrices and on arbitrary ones
    rng = random.Random(f"{moduli}-{mod}")
    group = FiniteAbelianGroup(moduli)
    seen = set()
    for n in range(count):
        gram = _random_gram(rng, moduli, mod, alternating=n % 4 != 3)
        table = _fill(group, mod, gram)
        expected = _outcome(lambda: _oracle_ranks(group, mod, table))
        pairing = _outcome(lambda: AlternatingPairing(group, mod, table))
        from_gram = _outcome(lambda: AlternatingPairing.from_gram(group, mod, gram))
        if isinstance(expected, list):
            assert build_group(pairing).orders == expected
            assert build_group(from_gram).orders == expected
            assert _values(pairing) == _values(from_gram) == table
            _assert_darboux(pairing)
            _assert_darboux(from_gram)
            build_group(pairing)
            seen.add("perfect")
        else:
            assert pairing is from_gram is expected
            seen.add(expected.__name__)
    assert "NotAlternating" in seen


def test_svn_matrices_agree_with_the_induced_oracle():
    # on every perfect pairing of the Gram battery, with every primitive psi;
    # the coordinate table, filled from the generators, is the one solved at
    # every k
    perfect = 0
    for moduli, mod, count in GRAM_SHAPES:
        rng = random.Random(f"{moduli}-{mod}")
        group = FiniteAbelianGroup(moduli)
        for n in range(count):
            pairing = _outcome(lambda: AlternatingPairing.from_gram(
                group, mod, _random_gram(rng, moduli, mod, n % 4 != 3)))
            if isinstance(pairing, AlternatingPairing):
                heis = build_group(pairing)
                assert heis._coords == _solved_coordinates(heis)
                _assert_induced(heis)
                perfect += 1
    assert perfect >= 40


def test_svn_matrices_do_no_arithmetic_in_k(monkeypatch):
    # a matrix reads the Darboux coordinates of k: with K's index arithmetic
    # refused, every matrix and character is still computed, and unchanged
    groups = [build_group(standard_pairing(p, r)) for p, r in ((2, 1), (3, 1), (2, 2), (4, 1))]
    group = FiniteAbelianGroup([2, 2, 3, 3])
    gram = [[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 0, 2], [0, 0, 4, 0]]
    groups.append(build_group(AlternatingPairing.from_gram(group, 6, gram)))
    reps = [SvNRepresentation(h, 1) for h in groups]  # the checks multiply in H
    expected = [[(_induced_matrix(rep, g), rep.character(g)) for g in rep.group.elements()]
                for rep in reps]

    def refuse(*args):
        raise RuntimeError("arithmetic in K")

    for name in ("add", "decode", "encode"):
        monkeypatch.setattr(FiniteAbelianGroup, name, refuse)
    with pytest.raises(RuntimeError):
        groups[0].k_group.add(1, 1)
    for rep, matrices in zip(reps, expected):
        rep._characters = None
        assert [(rep.matrix(g), rep.character(g)) for g in rep.group.elements()] == matrices


def test_gram_battery_covers_every_verdict():
    # each shape meets all three verdicts, except that a perfect pairing needs
    # K = L + L with Hom(L, Z/A) = L, which (Z/4)^2 into Z/2, Z/4 x Z/2 and
    # Z/8 x Z/4 x Z/4 x Z/2 are not
    never_perfect = [([4, 4], 2), ([4, 2], 4), ([8, 4, 4, 2], 8)]
    for moduli, mod, count in GRAM_SHAPES:
        group = FiniteAbelianGroup(moduli)
        rng = random.Random(f"{moduli}-{mod}")
        outcomes = [_outcome(lambda: AlternatingPairing.from_gram(
            group, mod, _random_gram(rng, moduli, mod, n % 4 != 3))) for n in range(count)]
        verdicts = {v if isinstance(v, type) else AlternatingPairing for v in outcomes}
        perfect = set() if (moduli, mod) in never_perfect else {AlternatingPairing}
        assert verdicts == {NotAlternating, NotPerfect} | perfect
    # (Z/4)^2 into Z/2: 2 e_0 pairs to 0 with everything
    g = FiniteAbelianGroup([4, 4])
    with pytest.raises(NotPerfect) as info:
        AlternatingPairing.from_gram(g, 2, [[0, 1], [1, 0]])
    assert info.value.witness in ((2, 0), (0, 2))


def test_composite_a_modulus_merges_primary_pairs():
    # (Z/2)^2 x (Z/3)^2 into Z/6, 3 (x0 y1 - x1 y0) + 2 (x2 y3 - x3 y2): one
    # Darboux pair of order 6, as on (Z/6)^2
    group = FiniteAbelianGroup([2, 2, 3, 3])
    gram = [[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 0, 2], [0, 0, 4, 0]]
    pairing = AlternatingPairing(group, 6, _fill(group, 6, gram))
    assert build_group(pairing).orders == [6]
    assert _oracle_ranks(group, 6, _fill(group, 6, gram)) == [6]
    h = build_group(pairing)
    assert _exhaustive_group_law(h)
    assert stone_von_neumann(h, 1).dim == 6


def test_naive_pairing_on_order_two_factors_is_not_well_defined():
    # x2 y3 - x3 y2 on the Z/2 factors of (Z/4)^2 x (Z/2)^2, into Z/4:
    # e(2 e_2, e_3) = 2 != e(0, e_3)
    group = FiniteAbelianGroup([4, 4, 2, 2])
    gram = [[0] * 4 for _ in range(4)]
    gram[2][3], gram[3][2] = 1, 3
    table = _fill(group, 4, gram)
    with pytest.raises(NotAlternating, match="not well-defined"):
        AlternatingPairing(group, 4, table)
    with pytest.raises(NotAlternating, match="not well-defined"):
        AlternatingPairing.from_gram(group, 4, gram)
    with pytest.raises(NotAlternating):
        _oracle_ranks(group, 4, table)


@pytest.mark.parametrize("moduli,mod", [([2, 2], 2), ([3, 3], 3), ([4, 4], 4), ([2, 2], 4)])
def test_every_single_entry_corruption_is_refused(moduli, mod):
    group = FiniteAbelianGroup(moduli)
    gram = [[0, mod // moduli[1]], [-mod // moduli[1] % mod, 0]]
    table = _fill(group, mod, gram)
    assert build_group(AlternatingPairing(group, mod, table)).orders == _oracle_ranks(
        group, mod, table)
    for i, j in itertools.product(group.elements(), repeat=2):
        for delta in range(1, mod):
            bad = [list(row) for row in table]
            bad[i][j] = (bad[i][j] + delta) % mod
            with pytest.raises(NotAlternating):
                _oracle_ranks(group, mod, bad)
            with pytest.raises(NotAlternating):
                AlternatingPairing(group, mod, bad)


def _per_u_scan(big, h, limit):
    """The covering-point search _covering_points replaced: per u, scan z."""
    points = []
    for u in big.elements():
        target = h(u)
        for z in big.elements():
            if z.frobenius() - z == target:
                points.append((u, z))
                break
        if len(points) >= limit:
            break
    return points


def _kernel_coordinates(kernel, p):
    """Index -> kernel element: sum_t x_t basis[t] for every x in the index
    order of FiniteAbelianGroup((p,) * dim) (x_0 fastest), each an earlier
    element plus one basis vector.  The listing of K heisenberg_from_datum
    made before it solved on the basis only."""
    big = kernel.field
    vectors = [(0,) * big.m]
    for w in (point[0].coeffs for point in kernel.basis):
        vectors = [tuple((a + c * b) % p for a, b in zip(v, w)) for c in range(p) for v in vectors]
    return dict(enumerate(map(big.element, vectors)))


def _per_element_solutions(plan, element_at, big):
    """The per-k solve heisenberg_from_datum replaced: g_k with g_k^(p) - g_k
    = beta_k for every k in K, keyed by k.coeffs."""
    return {k.coeffs: heisenberg._solve_additive(heisenberg._beta_poly(plan[0], k), big)
            for k in element_at.values()}


def _all_pairs_table(element_at, solutions, p):
    """The table fill heisenberg_from_datum replaced: e(k, k') = g_k(k') -
    g_k'(k) evaluated on every pair of K, each value an F_p constant."""
    table = []
    for ki in element_at.values():
        row = []
        for kj in element_at.values():
            val = solutions[ki.coeffs].evaluate(kj) - solutions[kj.coeffs].evaluate(ki)
            assert not any(val.coeffs[1:])
            row.append(val.coeffs[0] % p)
        table.append(row)
    return table


def _all_pairs_deck_sweep(element_at, solutions, pairing, points):
    """The sweep _check_deck_commutators replaced: for all k, k' in K and every
    point, [d_k, d_k'] is the fiber translation by e(k, k')."""
    def deck(k, point):
        u, z = point
        return (u + k, z + solutions[k.coeffs].evaluate(u))

    for i, ki in element_at.items():
        for j, kj in element_at.items():
            for pt in points:
                a = deck(ki, deck(kj, pt))
                b = deck(kj, deck(ki, pt))
                dz = a[1] - b[1]
                if a[0] != b[0] or any(dz.coeffs[1:]):
                    return False
                if dz.coeffs[0] % pairing.a_modulus != pairing.value(i, j):
                    return False
    return True


# (p, r): standard pairings on (Z/p)^(2r), |H| = p^(2r+1)
ORACLE_SIZES = [
    pytest.param(2, 1, id="H8"),
    pytest.param(3, 1, id="H27"),
    pytest.param(2, 2, id="H32"),
    pytest.param(4, 1, id="H64"),
]


def test_darboux_standard_z2():
    e = standard_pairing(2)
    assert len(e.basis) == 1
    x, y, eps = e.basis[0]
    assert e.value(x, y) == eps != 0


def test_darboux_z4_squared():
    g = FiniteAbelianGroup([4, 4])
    table = [[0] * 16 for _ in range(16)]
    for i in range(16):
        for j in range(16):
            a, b = g.decode(i)
            c, d = g.decode(j)
            table[i][j] = (a * d - b * c) % 4
    e = AlternatingPairing(g, 4, table)
    assert build_group(e).orders == [4]


def test_no_perfect_pairing_on_z2():
    g = FiniteAbelianGroup([2])
    with pytest.raises(NotPerfect):
        AlternatingPairing(g, 2, [[0, 0], [0, 0]])


def test_not_alternating_rejected():
    g = FiniteAbelianGroup([2, 2])
    table = [[1] * 4 for _ in range(4)]
    with pytest.raises(NotAlternating):
        AlternatingPairing(g, 2, table)


def test_build_group_order8_is_dihedral():
    h = build_group(standard_pairing(2))
    assert h.order == 8
    orders = {}
    for g in h.elements():
        orders[h.element_order(g)] = orders.get(h.element_order(g), 0) + 1
    # D_4 signature: exactly 2 elements of order 4 (Q_8 would have 6)
    assert orders == {1: 1, 2: 5, 4: 2}
    els = list(h.elements())
    center = [g for g in els if all(h.multiply(g, u) == h.multiply(u, g) for u in els)]
    assert center == [(0, 0), (1, 0)]


def test_build_group_order27_exponent3():
    h = build_group(standard_pairing(3))
    assert h.order == 27
    assert all(h.element_order(g) in (1, 3) for g in h.elements())


def test_commutator_reproduces_pairing():
    e = standard_pairing(3)
    h = build_group(e)
    for x in e.group.elements():
        for y in e.group.elements():
            assert h.commutator((0, x), (0, y)) == (e.value(x, y), 0)


def test_svn_order8():
    h = build_group(standard_pairing(2))
    rep = stone_von_neumann(h, 1)
    assert rep.dim == 2
    assert check_faithful(rep)
    # character vanishes off the center and is +-2 on it
    for g in h.elements():
        ch = rep.character(g)
        if g[1] == 0:
            assert ch == 2 * zeta(2, g[0])
        else:
            assert ch.is_zero()


def test_svn_order27():
    h = build_group(standard_pairing(3))
    rep = stone_von_neumann(h, 1)
    assert rep.dim == 3
    assert check_faithful(rep)


def test_svn_both_primitive_characters_give_equal_characters_z2():
    # any injective central character yields the unique class of dim sqrt|K|
    h = build_group(standard_pairing(3))
    rep1 = stone_von_neumann(h, 1)
    rep2 = stone_von_neumann(h, 2)
    assert rep1.dim == rep2.dim == 3
    assert check_faithful(rep1) and check_faithful(rep2)
    # character values differ by the central character but norms agree
    from gausslab.exactalg import abs_square

    for g in h.elements():
        assert abs_square(rep1.character(g)) == abs_square(rep2.character(g))


def test_svn_class_independent_of_darboux_choice():
    # swapping the roles of a dual pair is another maximal-isotropic choice;
    # the induced representations must have identical characters (the class
    # is determined by the character)
    for p in (2, 3):
        e = standard_pairing(p)
        h1 = HeisenbergGroup(e)
        x, y, eps = h1.basis[0]
        e.basis = [(y, x, e.value(y, x))]  # the constructor reads it off e
        h2 = HeisenbergGroup(e)
        assert h2.basis is e.basis is not h1.basis
        assert _exhaustive_group_law(h1) and _exhaustive_group_law(h2)
        rep1 = SvNRepresentation(h1, 1)
        rep2 = SvNRepresentation(h2, 1)
        assert _exhaustive_homomorphism(rep1) and _exhaustive_homomorphism(rep2)
        _assert_induced(h1)
        _assert_induced(h2)
        # the two groups share the same element set (a, k); compare pointwise.
        # different cocycles give different but cohomologous groups, so match
        # through the character on commutator-center structure: characters of
        # the same abstract class agree on center and vanish off it here
        for g in h1.elements():
            c1 = rep1.character(g)
            c2 = rep2.character(g)
            if g[1] == 0:
                assert c1 == c2
            else:
                assert c1.is_zero() and c2.is_zero()


def test_svn_rejects_non_injective_character():
    g = FiniteAbelianGroup([4, 4])
    table = [[0] * 16 for _ in range(16)]
    for i in range(16):
        for j in range(16):
            a, b = g.decode(i)
            c, d = g.decode(j)
            table[i][j] = (a * d - b * c) % 4
    h = build_group(AlternatingPairing(g, 4, table))
    with pytest.raises(NonInjectiveCharacter):
        stone_von_neumann(h, 2)  # zeta_4^2 = -1 is not primitive


@pytest.mark.parametrize("psi_unit", [True, 1.0, "1"])
def test_svn_refuses_a_psi_unit_that_is_not_an_int(psi_unit):
    # as the heisenberg job does: True is not taken as 1, 1.0 not as a TypeError
    h = build_group(standard_pairing(3))
    with pytest.raises(ValueError, match="psi_unit must be an integer"):
        SvNRepresentation(h, psi_unit)
    with pytest.raises(ValueError, match="psi_unit must be an integer"):
        stone_von_neumann(h, psi_unit)


def test_trivial_k():
    g = FiniteAbelianGroup([])
    e = AlternatingPairing(g, 4, [[0]])
    h = build_group(e)
    assert h.order == 4
    rep = stone_von_neumann(h, 1)
    assert rep.dim == 1 and check_faithful(rep)


@pytest.mark.parametrize("field,p", [(F2, 2), (F3, 3)])
def test_heisenberg_from_datum_xp_plus_1(field, p):
    datum = QuadDatum(field, 1, [DiagMonomial(0, 1, field.one())])
    dh = heisenberg_from_datum(datum)
    assert dh.kernel.size == p * p
    assert dh.group.order == p**3
    rep = stone_von_neumann(dh.group, 1)
    assert rep.dim == p
    assert check_faithful(rep)


def test_heisenberg_from_nondegenerate_datum_is_central():
    datum = QuadDatum(F3, 1, [HalfSquare(0, F3.one())])
    dh = heisenberg_from_datum(datum)
    assert dh.group.order == 3  # K trivial, H = A


_DECK_REFUSALS = [
    (QuadDatum(F2, 1, [WittLinear(0, F2.one())]), "the W2-valued p = 2 case is deferred"),
    (QuadDatum(F2, 1, [DiagMonomial(0, 1, F2.one()), WittLinear(0, F2.one()),
                       Precompose(0, AdditivePolynomial(F2, {1: F2.one()}))]),
     "the W2-valued p = 2 case is deferred"),
    (_frobenius_pairing(F2, 1), "the deck construction is one-dimensional"),
    (_frobenius_pairing(F3, 1), "the deck construction is one-dimensional"),
]


def test_heisenberg_from_datum_rejects_witt_terms(monkeypatch):
    # the W2-valued case, precomposed or not, and d != 1 are refused before
    # the kernel; precompositions and cross terms are not (see
    # test_heisenberg_from_datum_term_kinds)
    from gausslab import charsum

    kernel, computed = charsum.geometric_kernel, []
    monkeypatch.setattr(charsum, "geometric_kernel",
                        lambda *args, **kw: computed.append(args) or kernel(*args, **kw))
    for datum, message in _DECK_REFUSALS:
        computed.clear()
        with pytest.raises(ValueError, match=message):
            heisenberg_from_datum(datum)
        assert not computed, message


def test_deck_refusal_precedes_the_kernel_and_the_cap(monkeypatch):
    # a d = 2 datum and a Witt datum are refused as input the deck
    # construction does not cover, not as too large, and their kernels are
    # never computed
    from gausslab import charsum

    monkeypatch.setattr(charsum, "geometric_kernel",
                        lambda *args, **kw: pytest.fail("the geometric kernel was computed"))
    monkeypatch.setenv("GAUSSLAB_CAP", "1")
    for datum, message in _DECK_REFUSALS:
        with pytest.raises(ValueError, match=message):
            heisenberg_from_datum(datum)


def _same_deck_group(first, second):
    """Both data have one term plan, hence one kernel, one pairing and one set
    of deck maps."""
    assert _term_plan(first, lambda a: a) == _term_plan(second, lambda a: a)
    one, two = heisenberg_from_datum(first), heisenberg_from_datum(second)
    assert one.kernel.basis == two.kernel.basis and one.kernel.field is two.kernel.field
    assert _values(one.pairing) == _values(two.pairing)
    assert one.solutions == two.solutions
    assert one.group.orders == two.group.orders


def test_heisenberg_from_datum_term_kinds():
    # a linear twist cancels in every beta_k and in the lift property
    base = [DiagMonomial(0, 1, F3.one())]
    plain = heisenberg_from_datum(QuadDatum(F3, 1, base))
    twisted = heisenberg_from_datum(QuadDatum(F3, 1, base + [ASLinear(0, F3.element([2]))]))
    assert _values(twisted.pairing) == _values(plain.pairing)
    assert twisted.solutions == plain.solutions
    # a cross term a x^(p^i) x is the diagonal monomial for i >= 1 and the
    # half square 2a at i = 0; a x^(p^i + 1) with a in F_p precomposed with
    # X^p is the datum itself inside the trace (the reports of more such
    # pairs are compared in tests/test_cli.py)
    _same_deck_group(QuadDatum(F4, 1, [CrossMonomial(0, 0, 1, F4.gen())]),
                     QuadDatum(F4, 1, [DiagMonomial(0, 1, F4.gen())]))
    _same_deck_group(QuadDatum(F3, 1, base + [CrossMonomial(0, 0, 0, F3.one())]),
                     QuadDatum(F3, 1, base + [HalfSquare(0, F3.from_int(2))]))
    frobenius = Precompose(0, AdditivePolynomial(F3, {1: F3.one()}))
    _same_deck_group(QuadDatum(F3, 1, base + [frobenius]), QuadDatum(F3, 1, base))


def test_vdgv_datum_deck_group():
    # psi(Tr(x^3)) over F_2: |K| = 4, H of order 8, validated against deck maps
    datum = QuadDatum(F2, 1, [DiagMonomial(0, 1, F2.one())])
    dh = heisenberg_from_datum(datum)
    assert dh.kernel.splitting_degree == 2
    assert dh.pairing.group.order == 4
    # the derived pairing is perfect and alternating by construction
    assert build_group(dh.pairing).order == 8


@pytest.mark.parametrize("p,r", ORACLE_SIZES)
def test_generator_checks_agree_with_exhaustive_oracles(p, r):
    h = build_group(standard_pairing(p, r))
    assert h.order == p ** (2 * r + 1)
    assert _exhaustive_group_law(h)
    assert _exhaustive_homomorphism(stone_von_neumann(h, 1))


def _generator_corruptions(h):
    """Apply each single-entry corruption of what h stores about its
    generators, yielding its kind before restoring it: a Darboux coordinate of
    a standard generator of K shifted mod its pair order, an eps_i shifted
    mod A, a pair order replaced by another value up to twice A."""
    coords, pairs, orders = list(h._coords), list(h.basis), list(h.orders)
    for g in h.k_group.generators():
        for side in (0, 1):
            for i, o in enumerate(orders):
                for delta in range(1, o):
                    bad = [list(c) for c in coords[g]]
                    bad[side][i] = (bad[side][i] + delta) % o
                    h._coords[g] = tuple(map(tuple, bad))
                    yield "coordinate"
                    h._coords[g] = coords[g]
    for i, (x, y, eps) in enumerate(pairs):
        for delta in range(1, h.a_modulus):
            h.basis[i] = (x, y, (eps + delta) % h.a_modulus)
            yield "eps"
            h.basis[i] = pairs[i]
    for i, o in enumerate(orders):
        for other in set(range(1, 2 * h.a_modulus + 1)) - {o}:
            h.orders[i] = other
            yield "order"
            h.orders[i] = o


@pytest.mark.parametrize("p,r", ORACLE_SIZES)
def test_corrupted_coordinates_rejected(p, r):
    # every single-entry corruption of the generator coordinates, of eps_i or
    # of a pair order is caught by the checks of the constructor: the
    # generator data refuses a coordinate, an order and an eps not of its
    # pair's order; an eps replaced by another of that order reaches the
    # commutators.  The exhaustive group law sees the first and the last
    # (multiplication does not read the orders)
    h = build_group(standard_pairing(p, r))
    kinds = set()
    for kind in _generator_corruptions(h):
        kinds.add(kind)
        if kind != "order":
            assert not _exhaustive_group_law(h)
        if kind == "eps" and all(h.k_group.element_order(x) == h.a_modulus // gcd(eps, h.a_modulus)
                                 for x, _, eps in h.basis):
            with pytest.raises(TheoremViolated, match="commutator"):
                h._check()
        else:
            with pytest.raises(NotPerfect):
                h._check()
    assert kinds == {"coordinate", "eps", "order"}
    h._check()
    assert _exhaustive_group_law(h)


@pytest.mark.parametrize("p,r", ORACLE_SIZES[:3])
def test_corrupted_svn_matrix_rejected(p, r):
    # the matrices are read off the generator data of the group and psi.  The
    # check of the SvN constructor refuses every corrupted coordinate (which
    # the all-pairs homomorphism oracle sees too) and eps not of its pair's
    # order; a corrupted order is the group's to refuse (the matrices keep
    # the dimension they were built with), and an eps replaced by another of
    # that order leaves an irreducible representation of the corrupted
    # group, whose commutator only the group's check compares with the
    # pairing.  A psi that is not primitive gives a character norm above |H|.
    rep = SvNRepresentation(build_group(standard_pairing(p, r)), 1)
    kept = 0
    for kind in _generator_corruptions(rep.group):
        if kind == "coordinate":
            assert not _exhaustive_homomorphism(rep)
        rep._characters = None
        k_group, pairs = rep.group.k_group, rep.group.basis
        if kind == "order":
            with pytest.raises(NotPerfect):
                rep.group._check()
        elif kind == "eps" and all(k_group.element_order(x) == rep.mod // gcd(eps, rep.mod)
                                   for x, _, eps in pairs):
            rep._check()
            assert _exhaustive_homomorphism(rep)
            with pytest.raises(TheoremViolated, match="commutator"):
                rep.group._check()
            kept += 1
        else:
            with pytest.raises(TheoremViolated):
                rep._check()
    assert kept == (rep.mod == 3)  # over Z/3, eps = 1 becomes 2
    for psi in (u for u in range(rep.mod) if gcd(u, rep.mod) != 1):
        rep.psi_unit, rep._characters = psi, None
        with pytest.raises(TheoremViolated, match="not irreducible"):
            rep._check()
    rep.psi_unit, rep._characters = 1, None
    rep._check()
    assert _exhaustive_homomorphism(rep)


def test_verify_multiplies_on_generator_pairs_only(monkeypatch):
    # (Z/2)^8 into Z/2, |H| = 512 and k = 8: the group and SvN checks make
    # O((k + 1)^2) products and compositions, where checking rho(s h) for s in
    # S and h in H took |H| (k + 1) = 4608
    k = 8
    gram = [[int(s ^ t == 1) for t in range(k)] for s in range(k)]
    pairing = AlternatingPairing.from_gram(FiniteAbelianGroup([2] * k), 2, gram)
    calls = {"multiply": 0, "compose": 0}
    for cls in (HeisenbergGroup, SvNRepresentation):
        for name in set(calls) & set(vars(cls)):
            def counted(self, *args, name=name, method=getattr(cls, name)):
                calls[name] += 1
                return method(self, *args)
            monkeypatch.setattr(cls, name, counted)
    h = build_group(pairing)
    assert calls == {"multiply": 3 * k * k, "compose": 0}
    rep = stone_von_neumann(h, 1)
    assert calls == {"multiply": 3 * k * k + (k + 1) ** 2, "compose": (k + 1) ** 2}
    assert sum(calls.values()) <= 5 * (k + 1) ** 2 < h.order * (k + 1)
    assert check_faithful(rep) and rep.character((1, 0)) == -rep.dim
    assert sum(calls.values()) == 3 * k * k + 2 * (k + 1) ** 2

    # build_group and stone_von_neumann run the check of each constructor
    # once, and nothing else: the SvN check builds rho(s) once per generator
    # s, then rho(s t) per pair, rho(a, 0) per a and the matrices of the
    # characters with alpha = 0 (A |K| / dim of them)
    builds = {SvNRepresentation.matrix: 0, HeisenbergGroup._check: 0, SvNRepresentation._check: 0}
    for cls, method in ((SvNRepresentation, SvNRepresentation.matrix),
                        (HeisenbergGroup, HeisenbergGroup._check),
                        (SvNRepresentation, SvNRepresentation._check)):
        def counted(self, *args, method=method):
            builds[method] += 1
            return method(self, *args)
        monkeypatch.setattr(cls, method.__name__, counted)
    rep = stone_von_neumann(build_group(pairing), 1)
    chars = h.a_modulus * h.k_group.order // rep.dim
    assert list(builds.values()) == [(k + 1) + (k + 1) ** 2 + h.a_modulus + chars, 1, 1]


def test_svn_norm_squares_only_the_nonzero_characters(monkeypatch):
    # chi vanishes off the center {(a, 0)}: (Z/3)^4 into Z/3, |H| = 243, and
    # the norm check squares 3 characters
    h = build_group(standard_pairing(3, 2))
    squared = []
    monkeypatch.setattr(heisenberg, "abs_square", lambda z: squared.append(z) or abs_square(z))
    SvNRepresentation(h, 1)
    assert len(squared) == h.a_modulus == 3 < h.order


# a*x^(p^i+1) over F_p: (p, i, a); |K| = p^(2i)
DECK_DATA = [
    pytest.param(2, 1, 1, id="F2-i1"),
    pytest.param(3, 1, 1, id="F3-i1"),
    pytest.param(3, 1, 2, id="F3-i1-a2"),
    pytest.param(2, 2, 1, id="F2-i2"),
]
DECK_DATA_81 = DECK_DATA + [pytest.param(3, 2, 1, id="F3-i2")]  # x^10 over F_3: |K| = 81


def _diag(p, i, a):
    """a*x^(p^i+1) over F_p."""
    field = make_field(p, 1)
    return QuadDatum(field, 1, [DiagMonomial(0, i, field.element([a]))])


def _precomposed(field, terms, f):
    """The datum of `terms` with x_0 replaced by f(x_0), f given as {u: f_u}."""
    return QuadDatum(field, 1, terms + [Precompose(0, AdditivePolynomial(field, f))])


# (datum, |K|): the data of DECK_DATA, then 1-dimensional data whose term
# plans resolve multi-term precompositions and cross terms
DECK_DATUMS = [pytest.param(_diag(p, i, a), p ** (2 * i), id=param.id)
               for param in DECK_DATA for p, i, a in [param.values]] + [
    pytest.param(_precomposed(F2, [DiagMonomial(0, 1, F2.one())], {0: F2.one(), 1: F2.one()}),
                 16, id="F2-i1-pre"),
    pytest.param(_precomposed(F4, [DiagMonomial(0, 1, F4.one()), ASLinear(0, F4.gen())],
                              {0: F4.gen(), 1: F4.one()}), 16, id="F4-i1-pre-aslin"),
    pytest.param(_precomposed(F3, [HalfSquare(0, F3.one())], {0: F3.one(), 1: F3.one()}),
                 9, id="F3-halfsq-pre"),
    pytest.param(QuadDatum(F3, 1, [DiagMonomial(0, 1, F3.one()), CrossMonomial(0, 0, 0, F3.one())]),
                 9, id="F3-i1-cross0"),
    pytest.param(QuadDatum(F3, 1, [CrossMonomial(0, 0, 1, F3.element([2]))]), 9, id="F3-cross1"),
    pytest.param(QuadDatum(F2, 1, [CrossMonomial(0, 0, 2, F2.one()), ASLinear(0, F2.one())]),
                 16, id="F2-cross2-aslin"),
]
DECK_DATUMS_81 = DECK_DATUMS + [pytest.param(_diag(3, 2, 1), 81, id="F3-i2")]


def _deck_data(datum):
    """(dh, index -> k, E, term plan over E, g_k solved at every k) for a
    1-dimensional G_a-valued datum."""
    dh = heisenberg_from_datum(datum)
    big, emb = extension(datum.field, dh.kernel.field.m // datum.field.m, False)
    plan = _term_plan(datum, emb)
    element_at = _kernel_coordinates(dh.kernel, datum.field.p)
    return dh, element_at, big, plan, _per_element_solutions(plan, element_at, big)


def _h(plan, big):
    """u -> h(u), the G_a value of a 1-dimensional term plan over E."""
    return lambda u: _ga_value(plan[0], plan[1], (u,), big.zero())


def _basis(dh):
    return [point[0] for point in dh.kernel.basis]


def _vanishing_on(basis, field):
    """The additive polynomial prod (X - k) over the F_p-span of `basis`."""
    phi = AdditivePolynomial(field, {0: field.one()})
    for s in basis:
        scale = -(phi.evaluate(s) ** (field.p - 1))
        phi = phi.twist(1) + phi.scale(scale)
    return phi


def _coherent(dh, element_at, solutions, t, phi):
    """g_k + lambda_t(k) phi for every k, lambda_t the t-th coordinate: the
    per-element table of the basis solutions with phi added to the t-th."""
    bad = dict(solutions)
    for idx, k in element_at.items():
        lam = dh.pairing.group.decode(idx)[t]
        bad[k.coeffs] = bad[k.coeffs] + phi.scale(lam)
    return bad


def _shifted(solutions, t, phi):
    bad = list(solutions)
    bad[t] = bad[t] + phi
    return bad


@pytest.mark.parametrize("datum,size", DECK_DATUMS)
def test_deck_group_svn_matrices_agree_with_the_induced_oracle(datum, size):
    dh = _deck_data(datum)[0]
    assert dh.group.order == datum.field.p * size
    assert dh.group._coords == _solved_coordinates(dh.group)
    _assert_induced(dh.group)


@pytest.mark.parametrize("datum,size", DECK_DATUMS_81)
def test_basis_solutions_agree_with_per_element_oracle(datum, size):
    # g_k solved at every k is sum_s lambda_s(k) g_s over the basis solutions:
    # off the basis, g_k is determined, so it is no longer stored
    dh, element_at, big, _, oracle = _deck_data(datum)
    basis = _basis(dh)
    assert list(element_at) == list(dh.pairing.group.elements())
    assert len({k.coeffs for k in element_at.values()}) == size == dh.kernel.size
    assert [element_at[g] for g in dh.pairing.group.generators()] == basis
    assert dh.solutions == [oracle[k.coeffs] for k in basis]
    for idx, k in element_at.items():
        span = AdditivePolynomial(big, {})
        for lam, gs in zip(dh.pairing.group.decode(idx), dh.solutions):
            span = span + gs.scale(lam)
        assert oracle[k.coeffs] == span


@pytest.mark.parametrize("datum,size", DECK_DATUMS_81)
def test_basis_pair_table_agrees_with_all_pairs_oracle(datum, size):
    # the Gram matrix on the basis fills the table of g_k(k') - g_k'(k) with
    # g_k solved at every k
    dh, element_at, _, _, oracle = _deck_data(datum)
    assert len(element_at) == size
    assert _values(dh.pairing) == _all_pairs_table(element_at, oracle, datum.field.p)


@pytest.mark.parametrize("p,i,a", DECK_DATA)
def test_beta_poly_is_the_polar_of_h_on_all_of_e(p, i, a):
    # beta_k(u) = h(u + k) - h(u) - h(k) for every k and u of E, with h(u) =
    # a u^(p^i + 1) evaluated directly, not through the term plan, which
    # must give the same h
    _, _, big, plan, _ = _deck_data(_diag(p, i, a))
    h = lambda u: big.element([a] + [0] * (big.m - 1)) * u ** (p**i + 1)
    elements = list(big.elements())
    assert [_h(plan, big)(u) for u in elements] == [h(u) for u in elements]
    for k in elements:
        beta, hk = heisenberg._beta_poly(plan[0], k), h(k)
        for u in elements:
            assert beta.evaluate(u) == h(u + k) - h(u) - hk


@pytest.mark.parametrize("p,i,a", DECK_DATA)
def test_corrupted_basis_solution_rejected(p, i, a, monkeypatch):
    # g_k + phi for the first basis vector k of K only: phi = X changes the
    # basis-pair values, phi vanishing on K changes none of them
    datum = _diag(p, i, a)
    kernel = geometric_kernel(datum)
    big = kernel.field
    target = kernel.basis[0][0]
    beta_poly, solve = heisenberg._beta_poly, heisenberg._solve_additive
    seen = []
    monkeypatch.setattr(heisenberg, "_beta_poly",
                        lambda cross, k: seen.append(k) or beta_poly(cross, k))
    for phi in (AdditivePolynomial(big, {0: big.one()}),
                _vanishing_on([b[0] for b in kernel.basis], big)):
        monkeypatch.setattr(heisenberg, "_solve_additive", lambda beta, f, phi=phi: (
            solve(beta, f) + phi if seen[-1] == target else solve(beta, f)))
        with pytest.raises(TheoremViolated):
            heisenberg_from_datum(datum)


@pytest.mark.parametrize("datum,size", DECK_DATUMS)
def test_deck_checks_agree_with_all_pairs_oracle(datum, size):
    dh, element_at, big, plan, oracle = _deck_data(datum)
    h = _h(plan, big)
    basis = _basis(dh)
    assert len(element_at) == size == dh.kernel.size
    for limit in (1, 3, 12, 40):
        assert _covering_points(big, h, limit) == _per_u_scan(big, h, limit)
    if datum.field.p == 3:  # some h(u) is outside the image of z^3 - z: that u is skipped
        us = [u for u, _ in _covering_points(big, h, 12)]
        assert us != list(itertools.islice(big.elements(), len(us)))
    points = _covering_points(big, h, 12)[:3]
    assert _all_pairs_deck_sweep(element_at, oracle, dh.pairing, points)
    _check_deck_commutators(basis, dh.solutions, dh.pairing, points)

    # g_t + phi on the t-th basis solution, which the all-pairs sweep sees as
    # g_k + lambda_t(k) phi: phi = X, and X^p - s^(p-1) X with s the first
    # basis vector, which changes no commutator with s; the commutators on
    # basis pairs refuse exactly what the sweep refuses
    rejected = 0
    for phi in (AdditivePolynomial(big, {0: big.one()}), _vanishing_on(basis[:1], big)):
        for t in range(len(basis)):
            bad = _shifted(dh.solutions, t, phi)
            if _all_pairs_deck_sweep(element_at, _coherent(dh, element_at, oracle, t, phi),
                                     dh.pairing, points):
                _check_deck_commutators(basis, bad, dh.pairing, points)
            else:
                rejected += 1
                with pytest.raises(TheoremViolated):
                    _check_deck_commutators(basis, bad, dh.pairing, points)
    assert rejected >= len(basis)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (2, 6), (3, 4)], ids=["F4", "F16", "F64", "F81"])
def test_covering_points_come_from_one_reduction(p, m, monkeypatch):
    # [A | I] of z -> z^p - z is reduced once for all u; the points, in
    # order, are those of the per-u scan for h with and without u outside
    # the image
    big = make_field(p, m)
    reductions = []
    reduce = heisenberg._row_reduce_mod_p
    monkeypatch.setattr(heisenberg, "_row_reduce_mod_p",
                        lambda matrix, q: reductions.append(q) or reduce(matrix, q))
    c = big.element((0, 1))
    for h in (lambda u: u * u * u + c * u, lambda u: u.frobenius() - u, lambda u: c * u * u):
        for limit in (1, 5, big.q):
            reductions.clear()
            assert _covering_points(big, h, limit) == _per_u_scan(big, h, limit)
            assert len(reductions) == 1


def test_deck_commutators_evaluate_each_inner_map_once(monkeypatch):
    # dim + 2 dim^2 evaluations per point: d_i(pt) once for each i, then
    # d_i(d_j(pt)) for each ordered pair
    dh, _, big, plan, _ = _deck_data(_diag(2, 2, 1))  # |K| = 16, dim 4
    basis = _basis(dh)
    points = _covering_points(big, _h(plan, big), 3)
    calls = []
    evaluate = AdditivePolynomial.evaluate
    monkeypatch.setattr(AdditivePolynomial, "evaluate",
                        lambda self, u: calls.append(u) or evaluate(self, u))
    _check_deck_commutators(basis, dh.solutions, dh.pairing, points)
    dim = len(basis)
    assert (dim, len(points)) == (4, 3)
    assert len(calls) == len(points) * (dim + 2 * dim * dim) < 4 * dim * dim * len(points)


def test_deck_lift_check_keeps_every_k():
    # the lift identity on the basis is the lift identity at every k, since
    # g_k = sum_s lambda_s(k) g_s: g_s + X on any basis vector is refused
    dh, _, big, plan, _ = _deck_data(_diag(3, 1, 1))  # |K| = 9 inside F_81
    basis = _basis(dh)
    _validate_deck_maps(plan, big, basis, dh.solutions, dh.pairing, 12)
    for t in range(len(basis)):
        bad = _shifted(dh.solutions, t, AdditivePolynomial(big, {0: big.one()}))
        with pytest.raises(TheoremViolated):
            _validate_deck_maps(plan, big, basis, bad, dh.pairing, 12)
    # adding phi_K, vanishing on K, to a basis solution keeps every
    # commutator: only the lift identity catches it
    phi = _vanishing_on(basis, big)
    for t in range(len(basis)):
        bad = _shifted(dh.solutions, t, phi)
        _check_deck_commutators(basis, bad, dh.pairing, [(big.zero(),) * 2])
        with pytest.raises(TheoremViolated):
            _validate_deck_maps(plan, big, basis, bad, dh.pairing, 12)


def test_formal_lift_identity_sees_a_corruption_vanishing_on_e():
    # x^3 over F_2: K = E = F_4, so g_s + X^4 + X agrees with g_s at every u
    # of E, every sampled lift and every commutator hold, and only the formal
    # identity g_s^(2) - g_s = beta_s refuses it
    dh, _, big, plan, _ = _deck_data(_diag(2, 1, 1))
    basis = _basis(dh)
    assert big.q == dh.kernel.size == 4
    phi = AdditivePolynomial(big, {2: big.one(), 0: big.one()})
    assert all(not phi.evaluate(u) for u in big.elements())
    h = _h(plan, big)
    points = _covering_points(big, h, 4)
    for t, s in enumerate(basis):
        bad = _shifted(dh.solutions, t, phi)
        for u in big.elements():
            lhs = bad[t].evaluate(u)
            assert lhs.frobenius() - lhs == h(u + s) - h(u) - h(s)
        _check_deck_commutators(basis, bad, dh.pairing, points)
        with pytest.raises(TheoremViolated, match="is not beta_k"):
            _validate_deck_maps(plan, big, basis, bad, dh.pairing, 12)


def test_deck_maps_solved_on_the_basis_only(monkeypatch):
    # x^9 over F_2: |K| = 64, dim 6; one _solve_additive per basis vector
    calls = []
    solve = heisenberg._solve_additive
    monkeypatch.setattr(heisenberg, "_solve_additive",
                        lambda beta, big: calls.append(beta) or solve(beta, big))
    dh = heisenberg_from_datum(QuadDatum(F2, 1, [DiagMonomial(0, 3, F2.one())]))
    assert dh.kernel.size == 64
    assert len(calls) == len(dh.solutions) == len(dh.kernel.basis) == 6


def _assert_traces(h, monkeypatch):
    """The character table of h is the trace of `matrix` at every g, for h
    as built and under every corruption of `_generator_corruptions`, which
    the check of the SvN constructor is switched off to build."""
    monkeypatch.setattr(SvNRepresentation, "_check", lambda self: None)
    for _ in itertools.chain([None], _generator_corruptions(h)):
        rep = SvNRepresentation(h, 1)
        traces = []
        for g in h.elements():
            perm, exps = rep.matrix(g)
            fixed = [e for t, e in enumerate(exps) if perm[t] == t]
            traces.append(zeta_sum(rep.mod, {e: fixed.count(e) for e in set(fixed)}))
        assert rep.characters() == traces


@pytest.mark.parametrize("p,r", ORACLE_SIZES)
def test_character_table_is_the_trace_of_every_matrix(p, r, monkeypatch):
    # only the elements with alpha(k) = 0 have their matrix built
    _assert_traces(build_group(standard_pairing(p, r)), monkeypatch)


@pytest.mark.parametrize("p,r", ORACLE_SIZES)
def test_check_faithful_compares_only_the_traced_characters(p, r, monkeypatch):
    # A |K| / dim characters come from a matrix, and only those are compared
    # with dim; the answer is the one the |H| scan over all characters gives,
    # also once a non-identity trace is made dim
    from gausslab.exactalg import CyclotomicNumber

    h = build_group(standard_pairing(p, r))
    rep = stone_von_neumann(h, 1)
    assert len(rep._traced) == h.a_modulus * h.k_group.order // rep.dim
    compared = []
    eq = CyclotomicNumber.__eq__
    monkeypatch.setattr(CyclotomicNumber, "__eq__", lambda x, y: compared.append(x) or eq(x, y))
    assert check_faithful(rep)
    assert len(compared) == len(rep._traced) < h.order
    monkeypatch.undo()

    def scan(rep):
        return all(chi != rep.dim or g == (0, 0) for g, chi in zip(h.elements(), rep.characters()))

    assert scan(rep)
    i = rep._traced[-1]  # (A - 1, k) with alpha(k) = 0
    rep._characters[i] = zeta_sum(rep.mod, {0: rep.dim})
    assert not check_faithful(rep) and not scan(rep)


@pytest.mark.parametrize("p,i,a", DECK_DATA)
def test_deck_character_table_is_the_trace_of_every_matrix(p, i, a, monkeypatch):
    _assert_traces(_deck_data(_diag(p, i, a))[0].group, monkeypatch)
