"""Supersingular curves f(y) = g1(x) g2(x) + a x and their exact zeta data.

For these Artin-Schreier-type curves every Frobenius eigenvalue on H^1_c is a
root of unity times sqrt(q): the pipeline counts points exactly, converts to
power sums by Newton's identities, and certifies the eigenvalue polynomial by
exhibiting m with P | T^{2m} - q^m.
"""

from gausslab import (
    AdditivePolynomial,
    CurveSpec,
    betti_closure_check,
    betti_prediction,
    count_points,
    extension,
    make_field,
    random_curve_spec,
    zeta_pipeline,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)

# The genus-1 Van der Geer-Van der Vlugt curve y^2 + y = x^3 over F_2.
vdgv = CurveSpec(
    F2,
    AdditivePolynomial(F2, {1: F2.one(), 0: F2.one()}),  # f(Y) = Y^2 + Y
    AdditivePolynomial(F2, {0: F2.one()}),               # g1 = X
    AdditivePolynomial(F2, {1: F2.one()}),               # g2 = X^2
    F2.zero(),
)
data = zeta_pipeline(vdgv)
print("y^2 + y = x^3 / F_2:")
print("  counts:", data.counts, " power sums:", data.power_sums)
print("  L-polynomial:", data.l_poly, " certificate m =", data.certificate[0],
      " root orders:", data.certificate[1])

# Each nonzero character c of ker f_dual is a one-dimensional quadratic
# datum; its sheaf has dim H^1_c = p^r with |K| = p^(2r), read from the
# datum's pairing, and the Newton recursion closes at their sum: two further
# power sums from fresh counts match the companion recursion exactly.
print("  predicted dim H^1_c:", betti_prediction(vdgv),
      " closure check:", betti_closure_check(vdgv)[0])

# Counting two ways: direct enumeration of the pairs (x, y) vs assembling
# character sums over the kernel of the adjoint of f.  Exact agreement at
# every level.
for n in (1, 2, 3):
    big, _ = extension(F2, n, False)
    direct = sum(y * y + y == x * x * x for x in big.elements() for y in big.elements())
    assembled = count_points(vdgv, n)
    assert direct == assembled
    print(f"  N_{n} direct {direct} == assembled {assembled}")

# y^3 - y = x^2 over F_3: two rank-1 characters, L-polynomial T^2 + 3.
c3 = CurveSpec(
    F3,
    AdditivePolynomial(F3, {1: F3.one(), 0: -F3.one()}),
    AdditivePolynomial(F3, {0: F3.one()}),
    AdditivePolynomial(F3, {0: F3.one()}),
    F3.zero(),
)
d3 = zeta_pipeline(c3)
print("y^3 - y = x^2 / F_3:  L =", d3.l_poly, " m =", d3.certificate[0])

# Random members of the family certify too (the proposition guarantees it).
for field, seed in ((F2, 5), (F4, 2)):
    spec = random_curve_spec(field, seed, max_b=4)
    d = zeta_pipeline(spec)
    print(f"random curve over {field.tag} (seed {seed}): B = {d.betti}, "
          f"L = {d.l_poly}, m = {d.certificate[0]}")
