"""Monomial orders on exponent vectors.

Monomials are tuples of non-negative ints, one slot per ring variable.
An order exposes a sort key; larger key = larger monomial. Both orders
accept a variable priority permutation (indices, most significant first)
so "lex with y > x" is expressible without renaming variables.
"""

from __future__ import annotations


class OrderError(ValueError):
    pass


class MonomialOrder:
    """degrevlex (default) or lex, with an optional variable priority."""

    def __init__(self, name: str = "degrevlex", priority: tuple[int, ...] | None = None):
        if name not in ("degrevlex", "lex"):
            raise OrderError(f"unknown monomial order {name!r}")
        self.name = name
        self.priority = tuple(priority) if priority is not None else None

    def plain(self) -> "MonomialOrder":
        """Same order family without the variable priority (for derived rings)."""
        return MonomialOrder(self.name) if self.priority is not None else self

    def _permuted(self, expo: tuple[int, ...]) -> tuple[int, ...]:
        if self.priority is None:
            return expo
        return tuple(expo[i] for i in self.priority)

    def key(self, expo: tuple[int, ...]):
        q = self._permuted(expo)
        if self.name == "lex":
            return q
        # degrevlex: total degree, then the last differing permuted
        # exponent decides with reversed sign.
        return (sum(q), tuple(-e for e in reversed(q)))

    def describe(self) -> str:
        if self.priority is None:
            return self.name
        return f"{self.name}[{','.join(map(str, self.priority))}]"

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.name == self.name
            and other.priority == self.priority
        )

    def __hash__(self):
        return hash((self.name, self.priority))

    def __repr__(self):
        return f"MonomialOrder({self.describe()})"


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
