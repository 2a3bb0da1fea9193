"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values; the Field object supplies the
arithmetic. A rational is an int when it is integral and a Fraction
otherwise, never a Fraction with denominator 1; an element of GF(p) is an
int in [0, p). No floats anywhere.

Everything else goes through the Field methods, except the Groebner
kernel: its subtraction loop (`groebner._sub_multiple`) inlines the
arithmetic of the two field kinds, told apart by `characteristic`, and
keeps both rules above by itself.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Common base of QQ and GF(p); both implement zero, one, from_int,
    fraction, add, sub, mul, neg, inv and is_zero."""

    kind: str
    characteristic: int

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a) -> str:
        return str(a)


def _canonical(q):
    """The rational q as an int when it is integral, else the Fraction."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


class RationalField(Field):
    kind = "QQ"
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return int(n)

    def fraction(self, num: int, den: int):
        if den == 0:
            raise FieldError("division by zero")
        return _canonical(Fraction(num, den))

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        # 1 / a would be a float for an int a
        return _canonical(Fraction(1, a))

    def is_zero(self, a) -> bool:
        return a == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    kind = "GF"

    def __init__(self, p: int):
        # bound first: trial division of a large p would not finish
        if p >= 2**31:
            raise FieldError("characteristic must be < 2^31")
        if not _is_prime(p):
            raise FieldError("characteristic must be prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n: int):
        return n % self.p

    def fraction(self, num: int, den: int):
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(kind: str, characteristic: int = 0) -> Field:
    """Build a field from its serialized form ("QQ" or "GF" + p)."""
    if kind == "QQ":
        return QQ
    if kind == "GF":
        return GF(characteristic)
    raise FieldError(f"unknown field kind {kind!r}")
