"""Exact finite field arithmetic: F_{p^m}, towers, length-2 Witt vectors and
additive (Frobenius-twisted) polynomials.

Elements are dense coefficient tuples over F_p, low degree first, so the
enumeration order of a field is canonical (lexicographic on coefficients).
Elements are immutable and element operations are pure; a field lazily caches
its power basis X^t, t < m, and its Frobenius columns, trace vector and
reduction rows, O(m^2) integers each.
A field with q <= TABLE_CAP that has done q multiplies also builds O(q) tables:
its nonzero elements g^k interned in k order, each carrying its discrete log k,
and the Zech logs log(1 + g^k) (K. Huber, "Some comments on Zech's
logarithms", IEEE Trans. IT 36, 1990). From then on add, negate, multiply,
power, inverse and Frobenius are lookups: a*b = g^(la + lb), a + b =
g^(la + Z[lb - la]), -a = g^(la + (q-1)/2), and `zero()` is the interned zero.
An element made from coefficients finds its log with one dict lookup, the
first time it needs it.
"""

import itertools
from functools import cached_property, lru_cache
from operator import mul

from .errors import (
    FieldMismatch,
    NonIrreducibleModulus,
    NotASubfield,
    NotPrime,
    TheoremViolated,
    ZeroPolynomial,
    check_cap,
    checked_int,
)

TABLE_CAP = 2**16  # largest field that builds log tables, which hold every element
FIELD_CAP = 2**128  # largest field `extension` builds; GAUSSLAB_CAP does not move it


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
    return _ptrim([v % p for v in a[:dn]])


def _is_irreducible(mod, p):
    """Irreducibility of f = mod over F_p, m = deg f, in O(m^3 + m^2 log p)
    operations (E.R. Berlekamp, Bell Syst. Tech. J. 46, 1967): f is
    irreducible iff X^(p^m) = X mod f, so f divides X^(p^m) - X and is
    squarefree, and x -> x^p - x has a one-dimensional kernel on F_p[X]/(f),
    whose dimension counts the irreducible factors of a squarefree f."""
    mod = _ptrim(mod)
    m = len(mod) - 1
    if m <= 1:
        return m == 1

    def times(a, b):  # a*b mod f
        acc = [0] * (len(a) + len(b))
        for j, y in _sparse(b):
            for i, c in enumerate(a):
                acc[i + j] += c * y
        return _pmod(acc, mod, p)

    xp, base, e = (1,), (0, 1), p  # X^p mod f by repeated squaring
    while e:
        if e & 1:
            xp = times(xp, base)
        base, e = times(base, base), e >> 1
    columns = [(1,)]  # X^(p j) mod f, the matrix of x -> x^p
    for _ in range(m - 1):
        columns.append(times(columns[-1], xp))
    frobenius = [_sparse(c) for c in columns]
    x = y = (0, 1) + (0,) * (m - 2)
    for _ in range(m):
        y = tuple(v % p for v in _accumulate([0] * m, y, frobenius))
    if y != x:
        return False
    fixed = [[-(i == j) for j in range(m)] for i in range(m)]  # the matrix of x -> x^p - x
    for j, column in enumerate(frobenius):
        for i, v in column:
            fixed[i][j] += v
    return len(_nullspace_mod_p(fixed, p)) == 1


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
    """Lexicographically least monic irreducible of degree m over F_p; for
    m > 1 the scan starts at constant term 1, as X divides the rest."""
    for tail in itertools.product(range(1 if m > 1 else 0, p), *[range(p)] * (m - 1)):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise TheoremViolated(
        f"no irreducible of degree {m} over F_{p} found; one exists in every degree"
    )


class FieldElement:
    """An element of a FiniteField, stored as a coefficient tuple over F_p.

    `_dlog` is the discrete log once the field has tables (-1 for zero), None
    until a table operation first needs it."""

    __slots__ = ("field", "coeffs", "_dlog")

    def __init__(self, field, coeffs, dlog=None):
        self.field = field
        self.coeffs = coeffs  # always reduced, length field.m
        self._dlog = dlog

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

    def _mismatch(self, other):
        raise FieldMismatch(f"{self!r} and {other!r} live in different fields")

    def _table_log(self):
        self._dlog = self.field._log.get(self.coeffs, -1)
        return self._dlog

    def __add__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            self._mismatch(other)
        if field._exp is None:
            p = field.p
            return FieldElement(field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))
        la, lb = self._dlog, other._dlog
        if la is None:
            la = self._table_log()
        if lb is None:
            lb = other._table_log()
        if la < 0:
            return other
        if lb < 0:
            return self
        z = field._zech[lb - la]  # a + b = a (1 + g^(lb - la)); a negative index wraps mod q-1
        return field._exp[la + z] if z >= 0 else field._zero

    def __neg__(self):
        field = self.field
        if field.p == 2:
            return self
        if field._exp is None:
            p = field.p
            return FieldElement(field, tuple((-a) % p for a in self.coeffs))
        la = self._dlog
        if la is None:
            la = self._table_log()
        return field._exp[la + (field.q >> 1)] if la >= 0 else self  # -1 = g^((q-1)/2)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            if not isinstance(other, int):
                self._mismatch(other)
            if field._exp is None:
                p = field.p
                return FieldElement(field, tuple((a * other) % p for a in self.coeffs))
            la = self._dlog
            if la is None:
                la = self._table_log()
            lc = field._constant_logs[other % field.p]  # c * x = g^(log c + log x)
            return field._exp[la + lc] if la >= 0 and lc >= 0 else field._zero
        if field._exp is None:
            return field._mul(self, other)
        la, lb = self._dlog, other._dlog
        if la is None:
            la = self._table_log()
        if lb is None:
            lb = other._table_log()
        if la < 0:
            return self
        if lb < 0:
            return other
        return field._exp[la + lb]

    __rmul__ = __mul__

    def __pow__(self, k):
        field = self.field
        if field._exp is not None:
            la = self._dlog
            if la is None:
                la = self._table_log()
            if la >= 0:
                return field._exp[la * k % (field.q - 1)]
            if k > 0:
                return self
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
        if field._exp is not None:
            return self ** field.p**k
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
        modulus = _ptrim(_default_modulus(p, m) if modulus is None else modulus)
        if len(modulus) - 1 != m or modulus[-1] != 1:
            raise NonIrreducibleModulus(f"modulus must be monic of degree {m}: {list(modulus)}")
        if not _is_irreducible(modulus, p):
            raise NonIrreducibleModulus(f"{list(modulus)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self.tag = f"F{self.q}"
        self._frobenius_cache = {}
        # log tables, built after q polynomial multiplies (about what the
        # build costs); above the cap the count never reaches 0
        self._log = self._exp = self._zech = self._zero = self._constant_logs = None
        self._muls_until_tables = self.q if self.q <= TABLE_CAP else -1

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

    def element_from_json(self, coeffs):
        """Strict decoder for input: exactly m ints (not bools) in range(p);
        `element` would silently reduce what this rejects."""
        what = f"{coeffs!r} is not an element of {self.tag}"
        if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == self.m):
            raise ValueError(f"{what}: need {self.m} integer coefficients in range({self.p})")
        return FieldElement(self, tuple(checked_int(c, f"{what}: coefficient {k}", 0, self.p)
                                        for k, c in enumerate(coeffs)))

    def from_int(self, n):
        """Inverse of FieldElement.as_int (mixed-radix decode)."""
        digits = []
        n %= self.q
        for _ in range(self.m):
            n, r = divmod(n, self.p)
            digits.append(r)
        return FieldElement(self, tuple(digits))

    def zero(self):
        """0: the interned zero, carrying its log, once the field has tables."""
        if self._zero is not None:
            return self._zero
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
        """a*b before the tables exist, counting down to building them."""
        self._muls_until_tables -= 1
        if not self._muls_until_tables:
            self._build_tables()
        return self._poly_mul(a, b)

    def _poly_mul(self, a, b):
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

    def _build_tables(self):
        """exp[k] = g^k as an interned element carrying its log k, for
        k < 2(q-1) (the same q-1 objects twice, so a sum of two logs needs no
        reduction); log[coeffs of g^k] = k; zech[k] = log(1 + g^k), -1 where
        1 + g^k = 0; constant_logs[c] = log of the prime-field constant c, -1
        at c = 0; g the least element in as_int order of order q-1."""
        n, one = self.q - 1, self.one()
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        # one only if no element has order q-1, which the check below rejects
        g = next((x for x in map(self.from_int, range(1, self.q))
                  if all(x ** (n // r) != one for r in primes)), one)
        # x -> x*g is F_p-linear: column j is X^j * g
        m, p = self.m, self.p
        columns = [_sparse(self._poly_mul(x, g).coeffs) for x in self._power_basis]
        exp, coeffs = [], one.coeffs
        for k in range(n):
            exp.append(FieldElement(self, coeffs, k))
            coeffs = tuple(v % p for v in _accumulate([0] * m, coeffs, columns))
        log = {x.coeffs: x._dlog for x in exp}
        if len(log) != n:
            raise TheoremViolated(f"the multiplicative group of {self.tag} is cyclic of order {n}")
        zech = [log.get(((c[0] + 1) % p,) + c[1:], -1) for c in log]
        self._zero = FieldElement(self, (0,) * self.m, -1)
        self._constant_logs = [log.get((c,) + (0,) * (m - 1), -1) for c in range(p)]
        self._log, self._exp, self._zech = log, exp + exp, zech

    @cached_property
    def _power_basis(self):
        """The F_p-basis X^t, t < m, made once per field object and not shared
        between equal fields, since arithmetic checks `field is`."""
        return tuple(self.element((0,) * t + (1,)) for t in range(self.m))

    @cached_property
    def _reduction_columns(self):
        """X^m, ..., X^(2m-2) reduced mod the modulus, sparse."""
        m, mod, p = self.m, self.modulus, self.p
        return tuple(_sparse(_pmod((0,) * (m + k) + (1,), mod, p)) for k in range(m - 1))

    def _powers_of(self, x, count):
        """1, x, ..., x^(count-1): one multiply per power."""
        return itertools.accumulate(itertools.repeat(x, count - 1), mul, initial=self.one())

    def _frobenius_columns(self, k):
        """Matrix of x -> x^(p^k): column j is the image (X^j)^(p^k) =
        (X^(p^k))^j, sparse."""
        if k not in self._frobenius_cache:
            self._frobenius_cache[k] = tuple(
                _sparse(x.coeffs) for x in self._powers_of(self.gen() ** self.p**k, self.m))
        return self._frobenius_cache[k]

    @cached_property
    def _trace_vector(self):
        """Tr(X^j) for j < m: the trace of y -> X^j y, whose diagonal entries
        are the X^i-coefficients of X^(i+j)."""
        m, powers = self.m, list(self._powers_of(self.gen(), 2 * self.m - 1))
        return tuple(sum(powers[i + j].coeffs[i] for i in range(m)) % self.p for j in range(m))

    def to_json(self):
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj):
        """Strict decoder: ints (not bools) p, m and modulus entries in range(p),
        p prime checked first; only an absent modulus is searched for."""
        p, m = checked_int(obj["p"], "p"), checked_int(obj["m"], "m")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = obj.get("modulus", [])
        if not isinstance(modulus, (list, tuple)):
            raise ValueError(f"modulus must be a list of integers, got {modulus!r}")
        entries = [checked_int(c, f"modulus[{k}]", 0, p) for k, c in enumerate(modulus)]
        return make_field(p, m, entries if "modulus" in obj else None)


@lru_cache(maxsize=None)
def _default_modulus(p, m):
    return _first_irreducible(p, m)


_FIELDS = {}  # (p, m, modulus) -> the one FiniteField instance


def make_field(p, m, modulus=None):
    """Field handle; a missing modulus is found by deterministic search.

    Identical (p, m, modulus) always return the same instance, so element
    operations (which check field identity) compose across call sites.  The
    modulus, searched or given, is checked irreducible when the field is built.
    """
    if modulus is None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = _default_modulus(p, m)
    key = (p, m, tuple(modulus))
    if key not in _FIELDS:
        _FIELDS[key] = FiniteField(p, m, modulus)
    return _FIELDS[key]


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

def _row_reduce_mod_p(matrix, p):
    """(reduced rows, {pivot column: its row}) of a matrix over F_p by
    Gauss-Jordan elimination; the pivot columns span the column space."""
    rows, pivots = [list(row) for row in matrix], {}
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((rr for rr in range(r, len(rows)) if rows[rr][c] % p), None)
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
    return rows, pivots


def _nullspace_mod_p(matrix, p):
    """Basis of the nullspace of a matrix over F_p: per free column fc, the vector
    with 1 at fc, 0 at the other free columns and the pivot columns solved."""
    rows, pivots = _row_reduce_mod_p(matrix, p)
    n_cols = len(rows[0]) if rows else 0
    return [tuple(-rows[pivots[c]][fc] % p if c in pivots else int(c == fc)
                  for c in range(n_cols)) for fc in range(n_cols) if fc not in pivots]


def _span_mod_p(basis, p, length):
    """Every F_p-combination of `basis` (vectors of `length` integers), once
    each, in itertools.product order over the coefficients."""
    columns = list(zip(*basis)) if basis else [()] * length
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        yield tuple(sum(map(mul, coeffs, col)) % p for col in columns)


def _linear_kernel(field, image):
    """Zeros of an F_p-linear map on a field, sorted by coefficients.

    image(x) gives the F_p-coordinates of the image of x; the zeros are the
    nullspace of the matrix whose column j is image(X^j), no field sweep.
    """
    m, p = field.m, field.p
    cols = [image(x) for x in field._power_basis]
    # an image with no coordinates constrains nothing: one zero row keeps the m columns
    basis = _nullspace_mod_p(list(zip(*cols)) or [(0,) * m], p)
    return [FieldElement(field, v) for v in sorted(_span_mod_p(basis, p, m))]


def subfield_elements(field, s):
    """All elements of the degree-s subfield (fixed points of Frobenius^s)."""
    if field.m % s != 0:
        raise NotASubfield(f"no subfield of degree {s} in degree {field.m}")
    return _linear_kernel(field, lambda x: (x.frobenius(s) - x).coeffs)


class Embedding:
    """The canonical F_p-linear embedding of a field into an extension.

    The generator of the small field is sent to the lexicographically least
    root of its modulus inside the big field, so embeddings are reproducible.
    """

    __slots__ = ("small", "big", "_powers")

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
        if root is None:
            raise TheoremViolated("the subfield contains a root of any degree-m irreducible")
        self._powers = list(big._powers_of(root, small.m))

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


@lru_cache(maxsize=None)
def extension(field, n, override):
    """The degree-n extension of a field plus the canonical embedding.  Before
    it is built, the embedding's search of the q points of `field` counts
    against the cap and q^n against FIELD_CAP; a built extension is cached."""
    if n < 1:
        raise ValueError(f"extension degree must be at least 1, got {n}")
    if n == 1:
        return field, _IdentityEmbedding(field)
    check_cap(field.q, override, "embedding search")
    check_extension(field, n, override)
    big = make_field(field.p, field.m * n)
    return big, Embedding(field, big)


def check_extension(field, n, override):
    """Refuse F_{q^n} above FIELD_CAP, as `extension` does before it builds
    it; a job calls this first with the largest degree it will build."""
    if n > 1:
        check_cap(field.q**n, override, "extension field", FIELD_CAP)


class _IdentityEmbedding:
    __slots__ = ("small", "big")

    def __init__(self, field):
        self.small = field
        self.big = field

    def __call__(self, x):
        return x


# -- additive polynomials -----------------------------------------------------

class AdditivePolynomial:
    """sum_i a_i X^(p^i) with i in Z, over a fixed base field.

    Negative exponents are additive functions on the perfection: p-th roots
    are unique in a finite field, so `frobenius(i)` is exact for every i.
    """

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
            merged[i] = merged[i] + a if i in merged else a
        return AdditivePolynomial(self.field, merged)

    def scale(self, c):
        """c * f(X): multiply the function values by c, an integer (as in
        `FieldElement * int`) or anything `field.element` accepts."""
        if not isinstance(c, int):
            c = self.field.element(c)
        return AdditivePolynomial(self.field, {i: a * c for i, a in self.coeffs.items()})

    def evaluate(self, x):
        if x.field is not self.field:
            raise FieldMismatch("lift the polynomial into the element's field first")
        acc = self.field.zero()
        for i, a in self.coeffs.items():
            acc = acc + a * x.frobenius(i)
        return acc

    def twist(self, k):
        """Frobenius^k composed on the left: f(X)^(p^k)."""
        coeffs = {i + k: a.frobenius(k) for i, a in self.coeffs.items()}
        return AdditivePolynomial(self.field, coeffs)

    def compose(self, other):
        """self(other(X)); degrees multiply, composition stays additive."""
        out = {}
        zero = self.field.zero()
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                out[k] = out.get(k, zero) + a * b.frobenius(i)
        return AdditivePolynomial(self.field, out)

    def adjoint(self):
        """g with Tr(f(x) y) = Tr(x g(y)): a_i X^(p^i) -> a_i^(p^-i) X^(p^-i)."""
        coeffs = {-i: a.frobenius(-i) for i, a in self.coeffs.items()}
        return AdditivePolynomial(self.field, coeffs)

    def span(self):
        """top - bottom Frobenius exponent."""
        return max(self.coeffs) - min(self.coeffs) if self.coeffs else None

    def lift(self, embed):
        """Coefficient-wise image in an extension field."""
        return AdditivePolynomial(embed.big, {i: embed(a) for i, a in self.coeffs.items()})

    def top_exponent(self):
        return max(self.coeffs) if self.coeffs else None

    def to_json(self):
        return {str(i): list(a.coeffs) for i, a in self.coeffs.items()}

    @staticmethod
    def from_json(field, obj):
        return AdditivePolynomial(field, exponent_dict_from_json(field, obj))


def exponent_dict_from_json(field, obj):
    """Strict decoder for {exponent: element} input: a JSON object whose keys
    are exponents >= 0 written canonically ("0", "1", not "00", "+1" or "-1"),
    each value an element in `element_from_json` form."""
    if not isinstance(obj, dict):
        raise ValueError(f"{obj!r} is not an {{exponent: element}} object")
    out = {}
    for k, c in obj.items():
        if not (isinstance(k, str) and k.isascii() and k.isdigit() and k == str(int(k))):
            raise ValueError(f"exponent key {k!r} is not an integer >= 0 in canonical form")
        out[int(k)] = field.element_from_json(c)
    return out


def additive_kernel(f, n, override=False):
    """All roots of an additive polynomial in the degree-n extension, sorted
    by coefficients: an F_p-linear kernel, of at most min(p^span, q^n) roots."""
    if f.is_zero():
        raise ZeroPolynomial("kernel of the zero polynomial is everything")
    check_cap(min(f.field.p ** f.span(), f.field.q**n), override, "additive kernel roots")
    big, emb = extension(f.field, n, override)
    lifted = f.lift(emb)
    return _linear_kernel(big, lambda x: lifted.evaluate(x).coeffs)


# -- Witt vectors of length 2 ---------------------------------------------------

@lru_cache(maxsize=None)
def _gamma_coeffs(p):
    """gamma(X,Z) = (X^p + Z^p - (X+Z)^p)/p mod p as {i: coeff of X^i Z^(p-i)}:
    -binom(p, i)/p = -binom(p-1, i-1)/i = (-1)^i/i mod p, as binom(p-1, i-1)
    = (-1)^(i-1) mod p."""
    return {i: (-1) ** i * pow(i, -1, p) % p for i in range(1, p)}


def gamma_carry(p):
    """The carry polynomial as a dict {(i, p-i): coefficient mod p}."""
    return {(i, p - i): c for i, c in _gamma_coeffs(p).items() if c}


def gamma_value(x, z):
    """gamma(x, z) evaluated exactly in the field of x; at p = 2 it is x*z,
    one field multiply."""
    p = x.field.p
    acc = None
    for i, c in _gamma_coeffs(p).items():
        if c:
            term = (x**i) * (z ** (p - i))
            term = term if c == 1 else term * c
            acc = term if acc is None else acc + term
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


def witt_frobenius(w):
    return WittVector2(w.field, w.x0.frobenius(), w.x1.frobenius())


def witt_verschiebung(a):
    return WittVector2(a.field, a.field.zero(), a)


def _zp2(p, x0, x1):
    """(x0, x1) = [x0] + V(x1) in W2(F_p), x0 and x1 integers, read in Z/p^2:
    the Teichmueller lift [x0] is x0^p and V(x1) = p x1, so (1, 0) -> 1."""
    return (pow(x0, p, p * p) + p * x1) % (p * p)


def witt_to_zp2(w):
    """Image of w in Z/p^2 under W2(F_p) = Z/p^2; w must have F_p components."""
    # components must be prime-subfield constants
    if any(w.x0.coeffs[1:]) or any(w.x1.coeffs[1:]):
        raise FieldMismatch("Witt vector does not lie in W2(F_p)")
    return _zp2(w.field.p, w.x0.coeffs[0], w.x1.coeffs[0])


def witt_trace(w):
    """Witt-vector trace to W2(F_p), returned in Z/p^2.

    The sum of the Witt-Frobenius iterates (x0^(p^i), x1^(p^i)), i < m, with
    the addition law (s, t) + (y0, y1) = (s + y0, t + y1 + gamma(s, y0))
    unrolled: (Tr x0, Tr x1 + sum of gamma(s_i, x0^(p^i))), s_i the partial
    sums of the x0^(p^j), j < i.  It is Frobenius-fixed, hence in W2(F_p), so
    Tr x0 and the carry are prime-field constants, read off as they are.
    """
    x0, field = w.x0, w.field
    s, carry = x0, field.zero()
    for i in range(1, field.m):
        y = x0.frobenius(i)
        carry = carry + gamma_value(s, y)
        s = s + y
    if any(s.coeffs[1:]) or any(carry.coeffs[1:]):
        raise FieldMismatch("Witt vector does not lie in W2(F_p)")
    return _zp2(field.p, s.coeffs[0], absolute_trace_int(w.x1) + carry.coeffs[0])
