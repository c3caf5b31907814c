"""W2 endomorphisms and the supersingular surfaces they generate.

Additive endomorphisms of the length-2 Witt ring have the rigid shape
h(x, y) = (f(x), g1(x) + g2(y)) with g2 = f(X^{1/p})^p and g1 a carry
polynomial plus an additive correction; pulling back the W2 Lang isogeny
along a -> a * h(a) produces affine supersingular surfaces.
"""

from gausslab import (
    AdditivePolynomial,
    SurfaceSpec,
    WittVector2,
    make_field,
    surface_counts,
    surface_summand_certificates,
    verify_additive,
    w2_endomorphism,
    witt_trace,
)
from gausslab.varieties import mutated_endomorphism

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)

# The classification is exact: the constructed map is additive on W2(F_q^n),
# and perturbing g2 away from f(X^{1/p})^p always breaks additivity.
w = F4.gen()
endo = w2_endomorphism(F4, {0: w, 1: F4.one()}, AdditivePolynomial(F4, {0: F4.one()}))
print("classified endomorphism additive on W2(F_4):", verify_additive(endo, 1))
print("mutated g2 stays additive:", verify_additive(mutated_endomorphism(endo), 1))

# The surface for f = X over F_2, counted exactly as its equations are
# displayed; the variable w appears in no relation, so a free factor q^n is
# recorded rather than silently dropped.
surf = SurfaceSpec(F2, {0: F2.one()})
count, flags = surface_counts(surf, 1)
print("p = 2 surface, displayed-equation count over F_2:", count, flags)

# Certification is per character summand of the W2 covering: the trivial
# summand carries weight 4, descent pushes others to weight 3, and collapsed
# summands vanish identically; every eigenvalue is a root of unity times
# sqrt(q^weight), which is the supersingularity statement.
for field, label in ((F2, "p = 2"), (F3, "p = 3")):
    spec = SurfaceSpec(field, {0: field.one()})
    summands = surface_summand_certificates(spec, n_max=3)
    print(f"{label} surface summands:")
    for s in summands:
        print(f"   psi^{s.psi_exponent}: {s.kind:9s} weight {s.weight} ok={s.ok}")
    total = summands[0].sums[0]
    for s in summands[1:]:
        total = total + s.sums[0]
    # the corrected fiber product {L(z, w) = a * h(a)} has p^2 points over
    # each a in W2(F_q) with witt_trace(a * h(a)) = 0
    p2 = field.p ** 2
    witt = [WittVector2(field, x, y) for x in field.elements() for y in field.elements()]
    assert total == sum(p2 for a in witt if witt_trace(a * spec.endo(a)) % p2 == 0)
print("summand sums reassemble the corrected fiber-product count exactly")
