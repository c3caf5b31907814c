"""Shared exception types, the desk-scale enumeration cap and `Record`."""

import os

# What a job builds (tables, Gram entries, swept points) is capped here unless overridden.
DEFAULT_CAP = 2**20


class GaussLabError(Exception):
    """Base class for all library errors."""


class NotPrime(GaussLabError):
    pass


class NonIrreducibleModulus(GaussLabError):
    pass


class NotASubfield(GaussLabError):
    pass


class FieldMismatch(GaussLabError):
    pass


class ZeroPolynomial(GaussLabError):
    pass


class ScaleCapExceeded(GaussLabError):
    pass


class IncompatibleOrders(GaussLabError):
    """Raised when a cyclotomic computation would exceed the order cap."""


class NonIntegralElementarySymmetric(GaussLabError):
    """Newton recursion hit a non-integral division: inconsistent power sums."""

    def __init__(self, k, value):
        super().__init__(f"elementary symmetric e_{k} is not integral: {value}")
        self.k = k
        self.value = value


class NotQuadratic(GaussLabError):
    """Carries a witness triple (x, x', y) violating bilinearity."""

    def __init__(self, witness):
        super().__init__(f"pairing is not bilinear, witness {witness}")
        self.witness = witness


class TheoremViolated(GaussLabError):
    """A proven identity failed exactly: a bug detector, not new mathematics."""


class NotElementaryTwoGroup(GaussLabError):
    pass


class ConstructionFailed(GaussLabError):
    pass


class NotSymmetric(GaussLabError):
    pass


class DegeneratePairing(GaussLabError):
    pass


class NotPerfect(GaussLabError):
    """Carries a radical witness for a degenerate alternating pairing."""

    def __init__(self, witness):
        super().__init__(f"pairing has nontrivial radical, witness {witness}")
        self.witness = witness


class NotAlternating(GaussLabError):
    pass


class NonInjectiveCharacter(GaussLabError):
    pass


class NoAdditiveSolution(GaussLabError):
    pass


def scale_cap():
    """Current enumeration cap (env GAUSSLAB_CAP overrides the default)."""
    raw = os.environ.get("GAUSSLAB_CAP")
    if raw:
        return int(raw)
    return DEFAULT_CAP


def check_cap(n_points, override=False, what="enumeration", cap=None):
    if override:
        return
    cap = scale_cap() if cap is None else cap
    if n_points > cap:  # Python writes no int of more than 4300 digits in decimal
        size = f"at least 2^{n_points.bit_length() - 1}" if n_points >> 256 else n_points
        raise ScaleCapExceeded(f"{what} over {size} points exceeds cap {cap}")


def checked_int(value, name, least=None, below=None):
    """value when it is an int, not a bool (bool subclasses int), at least
    `least` where given and, with `least`, below `below` where given; anything
    else is invalid input naming the field.  The one integer test for input
    read from JSON."""
    if (type(value) is not int or least is not None and value < least
            or below is not None and value >= below):
        bound = "" if least is None else f" >= {least}"
        if below is not None:
            bound = f" in range({least}, {below})"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class Record:
    """A plain value record whose fields are its class's annotated names.

    It gives what `dataclasses` gave the library without importing it (every
    cold CLI process would compile it): `__init__` takes the fields in order,
    positionally or by keyword, with an annotated class value as the default
    (a dict, list or set default is copied per instance); the repr is
    `Name(field=value, ...)`; records are equal when of the same class with
    equal fields.  Instances of `class T(Record, frozen=True)` are hashable
    and reject assignment; other records are unhashable.
    """

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        extra = set(kwargs) - set(fields[len(args):])
        if len(args) > len(fields) or extra:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(extra)}")
        given = dict(zip(fields, args), **kwargs)
        for f in fields:
            if f in given:
                value = given[f]
            elif f in self._defaults:
                value = self._defaults[f]
                if isinstance(value, (dict, list, set)):
                    value = value.copy()
            else:
                raise TypeError(f"{cls.__name__}() missing field {f!r}")
            object.__setattr__(self, f, value)

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
