"""Exact finite field arithmetic: F_{p^m}, towers, length-2 Witt vectors and
additive (Frobenius-twisted) polynomials.

Elements are dense coefficient tuples over F_p, low degree first, so the
enumeration order of a field is canonical (lexicographic on coefficients).
Elements are immutable and element operations are pure; a field lazily caches
its Frobenius columns, trace vector and reduction rows, O(m^2) integers each.
"""

import itertools
from functools import cached_property, lru_cache
from math import comb
from operator import mul

from .errors import (
    FieldMismatch,
    NonIrreducibleModulus,
    NotASubfield,
    NotPrime,
    ZeroPolynomial,
    check_cap,
)


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over F_p (tuples, low degree first) -------------------

def _ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pmod(a, mod, p):
    a = list(a)
    dn = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dn - 1, -1):
        c = a[i]
        if c == 0:
            continue
        c = (c * inv_lead) % p
        for j in range(dn + 1):
            a[i - dn + j] = (a[i - dn + j] - c * mod[j]) % p
    return _ptrim(a[:dn])


def _is_irreducible(mod, p):
    """Brute-force irreducibility over F_p by trial division (desk scale)."""
    mod = _ptrim(mod)
    deg = len(mod) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            trial = tuple(tail) + (1,)
            if not _pmod(mod, trial, p):
                return False
    return True


def _sparse(coeffs):
    """The nonzero entries of a coefficient vector as (index, value) pairs."""
    return tuple((i, c) for i, c in enumerate(coeffs) if c)


def _accumulate(acc, coeffs, columns):
    """acc += sum_j coeffs[j] * columns[j], columns given by _sparse; unreduced."""
    for c, col in zip(coeffs, columns):
        if c:
            for i, v in col:
                acc[i] += c * v
    return acc


def _first_irreducible(p, m):
    """Lexicographically least monic irreducible of degree m over F_p."""
    for tail in itertools.product(range(p), repeat=m):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


class FieldElement:
    """An element of a FiniteField, stored as a coefficient tuple over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs  # always reduced, length field.m

    def __repr__(self):
        return f"{self.field.tag}{list(self.coeffs)}"

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise FieldMismatch(f"{self!r} and {other!r} live in different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            return FieldElement(self.field, tuple((a * other) % p for a in self.coeffs))
        self._check(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        if not k:
            return self.field.one()
        # square past the low zero bits, then start from base: no 1*x, and
        # no square after the top bit, so x**1 costs no multiply
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * other.inv()

    def frobenius(self, k=1):
        """x^(p^k), for any integer k: Frobenius^m is the identity on F_{p^m}."""
        field = self.field
        k %= field.m
        if not k:
            return self
        acc = _accumulate([0] * field.m, self.coeffs, field._frobenius_columns(k))
        return FieldElement(field, tuple(v % field.p for v in acc))

    def pth_root(self, k=1):
        """The unique p^k-th root (Frobenius is bijective on a finite field)."""
        return self.frobenius(-k)

    def as_int(self):
        """Mixed-radix integer key (base p, low digit = low coefficient)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * self.field.p + c
        return acc


class FiniteField:
    """The field F_{p^m} presented as F_p[X] / (modulus)."""

    def __init__(self, p, m, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = _first_irreducible(p, m)
        else:
            modulus = _ptrim(modulus)
            if len(modulus) - 1 != m or modulus[-1] != 1:
                raise NonIrreducibleModulus(
                    f"modulus must be monic of degree {m}: {list(modulus)}"
                )
            if not _is_irreducible(modulus, p):
                raise NonIrreducibleModulus(f"{list(modulus)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self.tag = f"F{self.q}"
        self._frobenius_cache = {}

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- element construction -------------------------------------------------

    def element(self, coeffs):
        if isinstance(coeffs, FieldElement):
            if coeffs.field is self:
                return coeffs
            raise FieldMismatch("element belongs to a different field")
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.m:
            coeffs = _pmod(coeffs, self.modulus, self.p)
        coeffs = coeffs + (0,) * (self.m - len(coeffs))
        return FieldElement(self, coeffs)

    def from_int(self, n):
        """Inverse of FieldElement.as_int (mixed-radix decode)."""
        digits = []
        n %= self.q
        for _ in range(self.m):
            n, r = divmod(n, self.p)
            digits.append(r)
        return FieldElement(self, tuple(digits))

    def zero(self):
        return FieldElement(self, (0,) * self.m)

    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def gen(self):
        """The class of X (a root of the modulus); equals 1 when m == 1."""
        if self.m == 1:
            return self.one()
        return FieldElement(self, (0, 1) + (0,) * (self.m - 2))

    def elements(self):
        """All q elements in canonical (lexicographic-on-coefficients) order."""
        for tup in itertools.product(range(self.p), repeat=self.m):
            yield FieldElement(self, tup)

    def _mul(self, a, b):
        # schoolbook product, then X^(m+k) -> its cached reduction; one mod p
        m = self.m
        acc = [0] * (2 * m - 1)
        b_terms = _sparse(b.coeffs)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in b_terms:
                    acc[i + j] += x * y
        low = _accumulate(acc[:m], acc[m:], self._reduction_columns)
        return FieldElement(self, tuple(v % self.p for v in low))

    @cached_property
    def _reduction_columns(self):
        """X^m, ..., X^(2m-2) reduced mod the modulus, sparse."""
        m, mod, p = self.m, self.modulus, self.p
        return tuple(_sparse(_pmod((0,) * (m + k) + (1,), mod, p)) for k in range(m - 1))

    def _frobenius_columns(self, k):
        """Matrix of x -> x^(p^k): column j is the image (X^j)^(p^k), sparse."""
        if k not in self._frobenius_cache:
            e = self.p**k
            self._frobenius_cache[k] = tuple(
                _sparse((self.gen() ** (j * e)).coeffs) for j in range(self.m))
        return self._frobenius_cache[k]

    @cached_property
    def _trace_vector(self):
        """Tr(X^j) for j < m: the trace of y -> X^j y, whose diagonal entries
        are the X^i-coefficients of X^(i+j)."""
        m, powers = self.m, [self.gen() ** n for n in range(2 * self.m - 1)]
        return tuple(sum(powers[i + j].coeffs[i] for i in range(m)) % self.p for j in range(m))

    def to_json(self):
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj):
        modulus = obj.get("modulus")
        return make_field(obj["p"], obj["m"], tuple(modulus) if modulus else None)


@lru_cache(maxsize=None)
def _default_modulus(p, m):
    return _first_irreducible(p, m)


@lru_cache(maxsize=None)
def _field_instance(p, m, modulus):
    return FiniteField(p, m, modulus)


def make_field(p, m, modulus=None):
    """Field handle; a missing modulus is found by deterministic search.

    Identical (p, m, modulus) always return the same instance, so element
    operations (which check field identity) compose across call sites.
    """
    if modulus is None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = _default_modulus(p, m)
    return _field_instance(p, m, tuple(modulus))


@lru_cache(maxsize=None)
def prime_field(p):
    return make_field(p, 1)


def absolute_trace_int(x):
    """Trace down to F_p (the Frobenius orbit sum) as an integer in range(p)."""
    field = x.field
    return sum(map(mul, field._trace_vector, x.coeffs)) % field.p


def absolute_trace(x):
    """absolute_trace_int as an element of the prime field."""
    return FieldElement(prime_field(x.field.p), (absolute_trace_int(x),))


def relative_trace(x, s, source=None):
    """Trace from the degree-`source` subfield containing x down to degree s.

    Degrees are absolute (over F_p); `source` defaults to the ambient field of
    x.  The result is returned inside the ambient field (it lies in the target
    subfield).  Composing relative traces down a tower equals the absolute
    trace: Tr_{source->s} then Tr_{s->t} agrees with Tr_{source->t}.
    """
    m = x.field.m
    if source is None:
        source = m
    if m % source != 0 or source % s != 0:
        raise NotASubfield(
            f"need degrees s | source | ambient, got {s} | {source} | {m}"
        )
    return sum((x.frobenius(s * i) for i in range(source // s)), x.field.zero())


# -- subfields and embeddings -------------------------------------------------

def _nullspace_mod_p(matrix, p):
    """Basis of the nullspace of a matrix over F_p (Gaussian elimination)."""
    if not matrix:
        return []
    rows = [list(r) for r in matrix]
    n_cols = len(rows[0])
    pivots = {}
    r = 0
    for c in range(n_cols):
        pivot = None
        for rr in range(r, len(rows)):
            if rows[rr][c] % p != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] % p:
                f = rows[rr][c]
                rows[rr] = [(v - f * w) % p for v, w in zip(rows[rr], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(n_cols) if c not in pivots]
    for fc in free:
        vec = [0] * n_cols
        vec[fc] = 1
        for c, rr in pivots.items():
            vec[c] = (-rows[rr][fc]) % p
        basis.append(tuple(vec))
    return basis


def subfield_elements(field, s):
    """All elements of the degree-s subfield (fixed points of Frobenius^s)."""
    if field.m % s != 0:
        raise NotASubfield(f"no subfield of degree {s} in degree {field.m}")
    p = field.p
    # matrix of Frobenius^s - 1: column j is the image of X^j
    cols = [(x.frobenius(s) - x).coeffs for x in (field.gen() ** j for j in range(field.m))]
    basis = _nullspace_mod_p([list(row) for row in zip(*cols)], p)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        vec = [0] * field.m
        for c, b in zip(coeffs, basis):
            for i in range(field.m):
                vec[i] = (vec[i] + c * b[i]) % p
        out.append(FieldElement(field, tuple(vec)))
    return sorted(out, key=lambda e: e.coeffs)


class Embedding:
    """The canonical F_p-linear embedding of a field into an extension.

    The generator of the small field is sent to the lexicographically least
    root of its modulus inside the big field, so embeddings are reproducible.
    """

    __slots__ = ("small", "big", "_powers", "_section")

    def __init__(self, small, big):
        if big.p != small.p or big.m % small.m != 0:
            raise NotASubfield(f"{small!r} does not embed into {big!r}")
        self.small = small
        self.big = big
        root = None
        for cand in subfield_elements(big, small.m):
            acc = big.zero()
            for c in reversed(small.modulus):
                acc = acc * cand + big.from_int(c)
            if not acc:
                root = cand
                break
        assert root is not None, "subfield contains a root of any degree-m irreducible"
        powers = [big.one()]
        for _ in range(small.m - 1):
            powers.append(powers[-1] * root)
        self._powers = powers
        self._section = {}

    def __call__(self, x):
        if x.field is self.big:
            return x
        if x.field is not self.small:
            raise FieldMismatch("element is not in the source field")
        acc = self.big.zero()
        for c, pw in zip(x.coeffs, self._powers):
            if c:
                acc = acc + pw * c
        return acc

    def section(self, y):
        """Preimage in the small field; raises if y is not in the image."""
        key = y.coeffs
        if not self._section:
            for x in self.small.elements():
                self._section[self(x).coeffs] = x
        if key not in self._section:
            raise NotASubfield(f"{y!r} is not in the embedded subfield")
        return self._section[key]


@lru_cache(maxsize=None)
def extension(field, n):
    """The degree-n extension of a field plus the canonical embedding."""
    if n == 1:
        return field, _IdentityEmbedding(field)
    big = make_field(field.p, field.m * n)
    return big, Embedding(field, big)


class _IdentityEmbedding:
    __slots__ = ("small", "big")

    def __init__(self, field):
        self.small = field
        self.big = field

    def __call__(self, x):
        return x

    def section(self, y):
        return y


# -- additive polynomials -----------------------------------------------------

class AdditivePolynomial:
    """sum_i a_i X^(p^i) with i >= 0, over a fixed base field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        clean = {}
        for i, a in coeffs.items():
            a = field.element(a)
            if a:
                clean[int(i)] = a
        self.coeffs = dict(sorted(clean.items()))

    def __repr__(self):
        if not self.coeffs:
            return "AdditivePolynomial(0)"
        parts = [f"{a!r}*X^{self.field.p}^{i}" for i, a in self.coeffs.items()]
        return "AdditivePolynomial(" + " + ".join(parts) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, AdditivePolynomial)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        merged = dict(self.coeffs)
        for i, a in other.coeffs.items():
            merged[i] = merged.get(i, self.field.zero()) + a
        return AdditivePolynomial(self.field, merged)

    def scale(self, c):
        c = self.field.element(c)
        return AdditivePolynomial(self.field, {i: a * c for i, a in self.coeffs.items()})

    def evaluate(self, x):
        if x.field is not self.field:
            raise FieldMismatch("lift the polynomial into the element's field first")
        acc = self.field.zero()
        for i, a in self.coeffs.items():
            acc = acc + a * x.frobenius(i)
        return acc

    def compose(self, other):
        """self(other(X)); degrees multiply, composition stays additive."""
        out = {}
        zero = self.field.zero()
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                out[k] = out.get(k, zero) + a * b.frobenius(i)
        return AdditivePolynomial(self.field, out)

    def lift(self, embed):
        """Coefficient-wise image in an extension field."""
        return AdditivePolynomial(embed.big, {i: embed(a) for i, a in self.coeffs.items()})

    def top_exponent(self):
        return max(self.coeffs) if self.coeffs else None

    def bottom_exponent(self):
        return min(self.coeffs) if self.coeffs else None

    def separable_defect(self):
        """v with p^v = inseparability degree (lowest Frobenius exponent)."""
        return self.bottom_exponent()

    def to_json(self):
        return {str(i): list(a.coeffs) for i, a in self.coeffs.items()}

    @staticmethod
    def from_json(field, obj):
        return AdditivePolynomial(field, {int(i): field.element(c) for i, c in obj.items()})


def additive_kernel(f, n, override=False):
    """All roots of an additive polynomial in the degree-n extension.

    Brute force; the root set is an F_p-subspace of F_{q^n}.
    """
    if f.is_zero():
        raise ZeroPolynomial("kernel of the zero polynomial is everything")
    big, emb = extension(f.field, n)
    check_cap(big.q, override, "additive kernel search")
    lifted = f.lift(emb) if n > 1 else f
    return [x for x in big.elements() if not lifted.evaluate(x)]


# -- Witt vectors of length 2 ---------------------------------------------------

@lru_cache(maxsize=None)
def _gamma_coeffs(p):
    """gamma(X,Z) = (X^p + Z^p - (X+Z)^p)/p mod p as {i: coeff of X^i Z^(p-i)}."""
    return {i: (-(comb(p, i) // p)) % p for i in range(1, p)}


def gamma_carry(p):
    """The carry polynomial as a dict {(i, p-i): coefficient mod p}."""
    return {(i, p - i): c for i, c in _gamma_coeffs(p).items() if c}


def gamma_value(x, z):
    """gamma(x, z) evaluated exactly in the field of x."""
    field = x.field
    acc = field.zero()
    for i, c in _gamma_coeffs(field.p).items():
        if c:
            acc = acc + (x**i) * (z ** (field.p - i)) * c
    return acc


class WittVector2:
    """Length-2 Witt vector (x0, x1) over F_q with carry-polynomial ring laws."""

    __slots__ = ("field", "x0", "x1")

    def __init__(self, field, x0, x1):
        self.field = field
        self.x0 = field.element(x0)
        self.x1 = field.element(x1)

    def __repr__(self):
        return f"W2({self.x0!r}, {self.x1!r})"

    def __eq__(self, other):
        return (
            isinstance(other, WittVector2)
            and self.field is other.field
            and (self.x0, self.x1) == (other.x0, other.x1)
        )

    def __hash__(self):
        return hash((id(self.field), self.x0.coeffs, self.x1.coeffs))

    def _check(self, other):
        if other.field is not self.field:
            raise FieldMismatch("Witt vectors over different fields")

    def __add__(self, other):
        self._check(other)
        return WittVector2(
            self.field,
            self.x0 + other.x0,
            self.x1 + other.x1 + gamma_value(self.x0, other.x0),
        )

    def __neg__(self):
        # (x,y) + (-(x,y)) = 0 forces the carry correction below
        return WittVector2(self.field, -self.x0, -self.x1 - gamma_value(self.x0, -self.x0))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        p = self.field.p
        return WittVector2(
            self.field,
            self.x0 * other.x0,
            self.x0**p * other.x1 + other.x0**p * self.x1,
        )

    def is_zero(self):
        return not self.x0 and not self.x1


def witt_zero(field):
    return WittVector2(field, field.zero(), field.zero())


def witt_one(field):
    return WittVector2(field, field.one(), field.zero())


def witt_frobenius(w):
    return WittVector2(w.field, w.x0.frobenius(), w.x1.frobenius())


def witt_verschiebung(a):
    return WittVector2(a.field, a.field.zero(), a)


def witt_restriction(w):
    return w.x0


def witt_scalar(w, n):
    """n-fold Witt sum of w (n >= 0)."""
    acc = witt_zero(w.field)
    for _ in range(n):
        acc = acc + w
    return acc


@lru_cache(maxsize=None)
def _witt_prime_iso(p):
    """Exhaustive table of the ring isomorphism W2(F_p) -> Z/p^2, (1,0) -> 1."""
    field = prime_field(p)
    table = {}
    acc = witt_zero(field)
    one = witt_one(field)
    for k in range(p * p):
        table[(acc.x0.coeffs, acc.x1.coeffs)] = k
        acc = acc + one
    assert len(table) == p * p, "W2(F_p) is cyclic of order p^2"
    return table


def witt_to_zp2(w):
    """Image of w in Z/p^2 under W2(F_p) = Z/p^2; w must have F_p components."""
    p = w.field.p
    if w.field.m == 1:
        key = (w.x0.coeffs, w.x1.coeffs)
    else:
        # components must be prime-subfield constants
        if any(w.x0.coeffs[1:]) or any(w.x1.coeffs[1:]):
            raise FieldMismatch("Witt vector does not lie in W2(F_p)")
        key = ((w.x0.coeffs[0],), (w.x1.coeffs[0],))
    return _witt_prime_iso(p)[key]


def witt_trace(w):
    """Witt-vector trace to W2(F_p), returned in Z/p^2.

    Sums the Witt-Frobenius iterates F^i(w) over the absolute degree of the
    coefficient field; the result is Frobenius-fixed, hence lies in W2(F_p).
    """
    acc = witt_zero(w.field)
    cur = w
    for _ in range(w.field.m):
        acc = acc + cur
        cur = witt_frobenius(cur)
    return witt_to_zp2(acc)
