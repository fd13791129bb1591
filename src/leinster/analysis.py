"""Per-group reports: sigma, tau, and the Leinster verdict.

Two computation paths produce the same report shape: the explicit engine
(normal_subgroups on a GroupTable) and the structural path for split
metacyclic groups and coprime direct products.  The structural path is the
authoritative one above the engine capacity; the two are cross-validated on
their overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .groups import GroupTable, normal_subgroups
from .numtheory import _divisors
from .squarefree import MetacyclicDescriptor, split_metacyclic_normal_orders


@dataclass(frozen=True, slots=True)
class LeinsterReport:
    """Record of one group's normal-subgroup order data; sigma, tau and the
    odd count are derived from the stored orders."""

    label: str
    order: int
    normal_orders: tuple[int, ...]  # sorted multiset

    @property
    def sigma(self) -> int:
        return sum(self.normal_orders)

    @property
    def tau(self) -> int:
        return len(self.normal_orders)

    @property
    def is_leinster(self) -> bool:
        return self.sigma == 2 * self.order

    @property
    def odd_normal_count(self) -> int:
        return sum(m & 1 for m in self.normal_orders)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "normal_orders": list(self.normal_orders),
            "sigma": self.sigma,
            "tau": self.tau,
            "leinster": self.is_leinster,
            "odd_normal_count": self.odd_normal_count,
        }

    @classmethod
    def from_json(cls, d: dict) -> "LeinsterReport":
        return cls(label=d["label"], order=d["order"], normal_orders=tuple(d["normal_orders"]))


def report_from_orders(label: str, order: int, orders: list[int] | tuple[int, ...]) -> LeinsterReport:
    return LeinsterReport(label, order, tuple(sorted(orders)))


def analyze(G: GroupTable) -> LeinsterReport:
    """Engine path: enumerate the normal subgroups explicitly."""
    orders = [N.size for N in normal_subgroups(G)]
    return report_from_orders(G.label or f"<order {G.order}>", G.order, orders)


def analyze_descriptor(desc: MetacyclicDescriptor) -> LeinsterReport:
    """Structural path for a squarefree-order group."""
    return report_from_orders(
        desc.pretty_label(), desc.order, split_metacyclic_normal_orders(desc.a, desc.b, desc.t)
    )


def analyze_split_metacyclic(a: int, b: int, t: int) -> LeinsterReport:
    """Structural path for any split metacyclic group with gcd(a, b) = 1."""
    return report_from_orders(f"SD({a},{b},{t})", a * b, split_metacyclic_normal_orders(a, b, t))


def analyze_cyclic(n: int) -> LeinsterReport:
    """Structural path for a cyclic group: one normal subgroup per divisor."""
    return report_from_orders(f"C{n}", n, _divisors(n))


def analyze_coprime_product(r1: LeinsterReport, r2: LeinsterReport) -> LeinsterReport:
    """Report for the direct product of two groups of coprime order.

    sigma and tau are multiplicative and the normal-subgroup orders are the
    pairwise products; this equals the engine result wherever both sides are
    computable.
    """
    if math.gcd(r1.order, r2.order) != 1:
        raise InputError(
            f"orders {r1.order} and {r2.order} are not coprime; "
            "the structural product rule does not apply"
        )
    if r1.order == 1:
        return r2
    if r2.order == 1:
        return r1
    orders = [m1 * m2 for m1 in r1.normal_orders for m2 in r2.normal_orders]
    return report_from_orders(f"{r1.label}x{r2.label}", r1.order * r2.order, orders)
