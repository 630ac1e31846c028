"""Minimal ring-interface contract shared by homomorphism targets, the
freeness engine and the series towers.

A RingOps bundles the operations a generic algorithm needs; elements stay
whatever the host module uses.  `smul` is scalar multiplication by an int
or a Fraction.  `add`, `neg`, `mul` and `is_zero` default to the element's
own `+`, unary `-`, `*` and `not`; a table names them only to supply another
kernel.  `inv`/`is_unit` are optional (None where the ring cannot invert).
`exact_zero(c)` says c is zero to every order; it defaults to `is_zero`,
and rings of truncated jets, whose `is_zero` also admits a zero known only
below some order, supply their own.

RingOps is a plain class with slots.  `replace(**changes)` returns a copy
with the named fields swapped; an unknown name is a TypeError.

`sum_products(terms)` returns sum kappa*x*y over (kappa, x, y) triples, each
kappa a nonzero int.  A ring that can fuse the sum supplies `dot`, called
with a nonempty list and returning the same value as the generic method:
each product through mul, then neg (kappa = -1) or smul (kappa != 1), then
add.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional


class RingOps:
    __slots__ = ("name", "zero", "one", "smul", "add", "neg", "mul", "is_zero",
                 "inv", "is_unit", "exact_zero", "dot")

    def __init__(self, name: str, zero: Any, one: Any, smul: Callable[[Any, Any], Any],
                 add: Callable[[Any, Any], Any] = operator.add,
                 neg: Callable[[Any], Any] = operator.neg,
                 mul: Callable[[Any, Any], Any] = operator.mul,
                 is_zero: Callable[[Any], bool] = operator.not_,
                 inv: Optional[Callable[[Any], Any]] = None,
                 is_unit: Optional[Callable[[Any], bool]] = None,
                 exact_zero: Optional[Callable[[Any], bool]] = None,
                 dot: Optional[Callable[[list], Any]] = None):
        self.name, self.zero, self.one, self.smul = name, zero, one, smul
        self.add, self.neg, self.mul, self.is_zero = add, neg, mul, is_zero
        self.inv, self.is_unit, self.dot = inv, is_unit, dot
        self.exact_zero = is_zero if exact_zero is None else exact_zero

    def replace(self, **changes) -> "RingOps":
        return RingOps(**{**{k: getattr(self, k) for k in self.__slots__}, **changes})

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def total(self, items):
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc

    def sum_products(self, terms):
        if not terms:
            return self.zero
        if self.dot is not None:
            return self.dot(terms)
        mul, add = self.mul, self.add
        acc = None
        for kap, x, y in terms:
            p = mul(x, y)
            if kap == -1:
                p = self.neg(p)
            elif kap != 1:
                p = self.smul(kap, p)
            acc = p if acc is None else add(acc, p)
        return acc
