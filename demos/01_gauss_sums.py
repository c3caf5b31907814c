"""Gauss sums of quadratic forms on finite abelian groups.

A quadratic form here is any map Q: M -> roots of unity whose symmetrized
difference B(x,y) = Q(x+y)Q(x)^{-1}Q(y)^{-1} is biadditive; no homogeneity is
assumed.  The headline fact: for non-degenerate Q the Gauss sum tau = sum Q(x)
satisfies |tau|^2 = |M| and tau^2/|M| is a root of unity.  Everything below is
exact cyclotomic arithmetic.
"""

from gausslab import (
    FiniteAbelianGroup,
    QuadraticForm,
    abs_square,
    char2_invariant,
    is_root_of_unity,
    radical_descent,
    random_nondegenerate,
    recursive_gauss_eval,
    zeta,
)

# The simplest even-characteristic example: Q(0) = 1, Q(1) = i on Z/2.
# In odd characteristic sum(psi(x^2)) works, but over F_2 that map is a
# character and its sum collapses; allowing fourth roots of unity repairs it.
exeasy = QuadraticForm(FiniteAbelianGroup([2]), 4, [0, 1])
tau = exeasy.gauss_sum()
print("Z/2 form with Q(1) = i:        tau =", tau, "   |tau|^2 =", abs_square(tau))
assert tau == 1 + zeta(4, 1)

# An odd example: Q(x) = zeta_3^{x^2} on Z/3.
z3 = QuadraticForm(FiniteAbelianGroup([3]), 3, [0, 1, 1])
tau3 = z3.gauss_sum()
print("Z/3 form zeta_3^(x^2):         tau =", tau3, "   tau^2/3 =", tau3 * tau3 / 3)

# Gauss sums multiply over direct sums; here Z/2 (+) Z/3 inside order 12.
z6 = FiniteAbelianGroup([2, 3])
vals = [(3 * [0, 1][a] + 4 * [0, 1, 1][b]) % 12 for a, b in z6.tuples()]
q6 = QuadraticForm(z6, 12, vals)
print("Z/2 x Z/3 direct sum:          tau =", q6.gauss_sum())
assert q6.gauss_sum() == tau.embed(12) * tau3.embed(12)

# The proof of the Gauss-sum theorem is an induction: split off a prime-order
# element, or untwist and descend.  Running that recursion is an independent
# evaluation path, and it always agrees with brute-force summation.
for form in (exeasy, z3, q6):
    assert recursive_gauss_eval(form) == form.gauss_sum()
print("recursive evaluation agrees with direct summation on all three forms")

# Deterministic pseudorandom non-degenerate forms on any shape, verified.
group = FiniteAbelianGroup([4, 4, 2])
form = random_nondegenerate(group, seed=11)
order = form.verify_gauss_sum_theorem()
print(f"random form on Z/4 x Z/4 x Z/2: tau^2/|M| has order {order}")

# On elementary 2-groups the square of the Gauss sum is computable in closed
# form: tau^2 = Q(a)|M| for the canonical element a with B(v,v) = B(v,a).
a, qa = char2_invariant(random_nondegenerate(FiniteAbelianGroup([2] * 4), 3))
print(f"(Z/2)^4 random form:           canonical a = {a}, tau^2 = Q(a)*16 = {qa * 16}")

# Degenerate forms are first-class: the sum either dies on the radical or
# descends with a multiplicity.
degenerate = QuadraticForm(FiniteAbelianGroup([4]), 4, [0, 1, 0, 1])
print("degenerate form on Z/4:        radical:", degenerate.radical(),
      " descent:", radical_descent(degenerate)[:2])
