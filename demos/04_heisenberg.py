"""Finite Heisenberg groups and their Stone-von-Neumann representations.

An alternating perfect pairing K x K -> Z/p^s yields a two-step nilpotent
group H with center Z/p^s and H/center = K; for each injective central
character there is a unique irreducible representation, of dimension
sqrt(|K|).  For a quadratic datum the same group arises as deck
transformations of the covering z^p - z = h(u).
"""

from gausslab import (
    AlternatingPairing,
    DiagMonomial,
    FiniteAbelianGroup,
    QuadDatum,
    build_group,
    check_faithful,
    heisenberg_from_datum,
    make_field,
    stone_von_neumann,
)


def standard(p):
    g = FiniteAbelianGroup([p, p])
    table = [[0] * (p * p) for _ in range(p * p)]
    for i in range(p * p):
        for j in range(p * p):
            a, b = g.decode(i)
            c, d = g.decode(j)
            table[i][j] = (a * d - b * c) % p
    return AlternatingPairing(g, p, table)


for p in (2, 3):
    pairing = standard(p)
    heis = build_group(pairing)  # verifies the group law and [,] = e on generators
    rep = stone_von_neumann(heis)  # and the SvN homomorphism, norm sum = |H|
    orders = {}
    for g in heis.elements():
        o = heis.element_order(g)
        orders[o] = orders.get(o, 0) + 1
    print(f"p = {p}: |H| = {heis.order}, Darboux ranks {heis.orders}, "
          f"SvN dimension {rep.dim}, faithful: {check_faithful(rep)}")
    print(f"   element-order histogram: {orders}")

# The p = 2 extraspecial group here is dihedral (two elements of order 4);
# the p = 3 one has exponent 3.

# From a quadratic datum: psi(Tr(x^{p+1})) has kernel of size p^2 and its
# deck group is the extraspecial group of order p^3.  The pairing
# e(k, k') = g_k(k') - g_{k'}(k) is cross-validated against explicit deck
# transformations acting on points of the covering.
for p, field in ((2, make_field(2, 1)), (3, make_field(3, 1))):
    datum = QuadDatum(field, 1, [DiagMonomial(0, 1, field.one())])
    dh = heisenberg_from_datum(datum)
    print(f"x^{p+1} over F_{p}: kernel {dh.kernel.size} in degree-"
          f"{dh.kernel.splitting_degree} extension, |H| = {dh.group.order}")
