"""Monomial orders on exponent vectors.

Monomials are tuples of non-negative ints, one slot per ring variable,
and the variables rank in ring order: the first is most significant.
An order exposes a sort key; larger key = larger monomial.  Lex keys a
monomial by itself.  A degrevlex order keeps the keys it has computed in
a dict of its own and exposes that dict's lookup as `key`: each distinct
monomial's key is built once per order object, the first time it is
asked for, and the dict is freed with the order.  Rings share their
order when they extend one another, so they share its keys.
"""

from __future__ import annotations

import operator

from .fields import AqError, echo


class OrderError(AqError):
    pass


def _lex_key(expo: tuple[int, ...]):
    return expo


def _degrevlex_key(expo: tuple[int, ...]):
    # total degree, then the last differing exponent decides with reversed sign
    return (sum(expo), tuple(map(operator.neg, reversed(expo))))


class _KeyCache(dict):
    """{monomial: degrevlex key}, filled on first lookup."""

    __slots__ = ("__weakref__",)

    def __missing__(self, expo):
        k = self[expo] = _degrevlex_key(expo)
        return k


class MonomialOrder:
    """degrevlex (default) or lex."""

    # No variable priority exists; kept because the benchmark's tracer
    # reads `order.priority` when it keys rings.
    priority = None

    def __init__(self, name: str = "degrevlex"):
        if name not in ("degrevlex", "lex"):
            raise OrderError("unknown monomial order "
                             f"{echo(repr(name), quote=False)}")
        self.name = name
        self.key = _KeyCache().__getitem__ if name == "degrevlex" else _lex_key

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"MonomialOrder({self.name})"


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))

def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(operator.le, a, b))

def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient exponent a - b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))

def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))

def mono_deg(a: tuple[int, ...]) -> int:
    return sum(a)
