"""Monomial orders on exponent vectors.

Monomials are tuples of non-negative ints, one slot per ring variable,
and the variables rank in ring order: the first is most significant.
An order exposes a sort key; larger key = larger monomial.  The key is
one of two module-level functions, bound once when the order is built.
"""

from __future__ import annotations

import operator


class OrderError(ValueError):
    pass


def _lex_key(expo: tuple[int, ...]):
    return expo


def _degrevlex_key(expo: tuple[int, ...]):
    # total degree, then the last differing exponent decides with reversed sign
    return (sum(expo), tuple(map(operator.neg, reversed(expo))))


_KEYS = {"degrevlex": _degrevlex_key, "lex": _lex_key}


class MonomialOrder:
    """degrevlex (default) or lex."""

    # No variable priority exists; kept because the benchmark's tracer
    # reads `order.priority` when it keys rings.
    priority = None

    def __init__(self, name: str = "degrevlex"):
        if name not in _KEYS:
            raise OrderError(f"unknown monomial order {name!r}")
        self.name = name
        self.key = _KEYS[name]

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"MonomialOrder({self.name})"


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))

def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))

def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient exponent a - b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))

def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))

def mono_deg(a: tuple[int, ...]) -> int:
    return sum(a)
