"""Minimal ring-interface contract shared by homomorphism targets, the
freeness engine and the series towers.

A RingOps bundles the operations a generic algorithm needs; elements stay
whatever the host module uses.  `smul` is scalar multiplication by a
Fraction.  `inv`/`is_unit` are optional (None where the ring cannot invert).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class RingOps:
    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    mul: Callable[[Any, Any], Any]
    smul: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]
    inv: Optional[Callable[[Any], Any]] = None
    is_unit: Optional[Callable[[Any], bool]] = None
    # None means every element is exactly known (no hidden truncation);
    # rings of truncated jets override this for precision bookkeeping.
    fully_exact: Optional[Callable[[Any], bool]] = None

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def total(self, items):
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc
