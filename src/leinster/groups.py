"""Explicit finite-group engine.

Groups are dense Cayley tables on element ids 0..order-1, up to TABLE_CAP
elements; building a larger group is a clean CapacityError.  All operations
are pure and iterate element ids in ascending order, so every result is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .numtheory import prime_factors

TABLE_CAP = 2048  # engine capacity: the largest order with a Cayley table


def check_capacity(order: int) -> None:
    if order > TABLE_CAP:
        raise CapacityError(f"group order {order} exceeds engine capacity {TABLE_CAP}")


class GroupTable:
    """An explicit finite group on element ids 0..order-1."""

    def __init__(self, order: int, table: np.ndarray, label: str = ""):
        if order < 1:
            raise InputError(f"group order must be positive, got {order}")
        check_capacity(order)
        table = np.asarray(table)
        if table.shape != (order, order):
            raise InputError("Cayley table shape does not match order")
        self.order = order
        self.label = label
        self.table = table.astype(np.int32, copy=False)
        self._identity: int | None = None
        self._inv: np.ndarray | None = None

    # -- multiplication ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        self._check_id(a)
        self._check_id(b)
        return int(self.table[a, b])

    def _check_id(self, g: int) -> None:
        if not 0 <= g < self.order:
            raise InputError(f"element id {g} out of range for order {self.order}")

    @property
    def identity(self) -> int:
        if self._identity is None:
            # by cancellation e is the only x with x * 0 = 0; confirm its row
            t = self.table
            cand = np.flatnonzero(t[:, 0] == 0)
            if cand.size != 1 or not (t[cand[0]] == np.arange(self.order)).all():
                raise InputError("no identity element; not a group table")
            self._identity = int(cand[0])
        return self._identity

    @property
    def inv_array(self) -> np.ndarray:
        if self._inv is None:
            inv = np.full(self.order, -1, dtype=np.int32)
            rows, cols = np.nonzero(self.table == self.identity)
            inv[rows] = cols
            if (inv < 0).any():
                raise InputError("missing inverses; not a group table")
            self._inv = inv
        return self._inv

    def inv(self, g: int) -> int:
        self._check_id(g)
        return int(self.inv_array[g])

    def element_order(self, g: int) -> int:
        self._check_id(g)
        e = self.identity
        k, cur = 1, g
        while cur != e:
            cur = self.mul(cur, g)
            k += 1
        return k

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, label={self.label!r})"


@dataclass(frozen=True)
class ElementSet:
    """A subset of a group's elements; subgroups are flagged explicitly."""

    parent_order: int
    members: frozenset[int]
    is_subgroup: bool = False

    def __post_init__(self):
        for g in self.members:
            if not 0 <= g < self.parent_order:
                raise InputError(
                    f"element id {g} out of range for order {self.parent_order}"
                )

    @property
    def size(self) -> int:
        return len(self.members)

    def to_ids(self) -> list[int]:
        """Canonical serialization: sorted id list."""
        return sorted(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self.members


def element_set(G: GroupTable, ids: Iterable[int], subgroup: bool = False) -> ElementSet:
    return ElementSet(G.order, frozenset(int(i) for i in ids), subgroup)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------

def _closure_ids(G: GroupTable, gens: Sequence[int]) -> np.ndarray:
    """Ids of the smallest subgroup containing gens, ascending."""
    n = G.order
    t = G.table
    member = np.zeros(n, dtype=bool)
    member[G.identity] = True
    member[np.asarray(list(gens), dtype=np.int64)] = True
    # a proper subgroup has at most n // p elements, p the smallest prime
    # dividing n (Lagrange), so a larger set generates G
    cap = n // min(prime_factors(n), default=1)
    current = np.flatnonzero(member)
    while current.size <= cap:
        # close by squaring: the member count at least doubles per round
        # until the fixpoint, so the loop is logarithmic in the result
        member[t[current[:, None], current[None, :]].ravel()] = True
        new_current = np.flatnonzero(member)
        if new_current.size == current.size:
            return current
        current = new_current
    return np.arange(n)


def subgroup_closure(G: GroupTable, gens: ElementSet | Iterable[int]) -> ElementSet:
    """Smallest subgroup of G containing gens."""
    ids = gens.to_ids() if isinstance(gens, ElementSet) else [int(g) for g in gens]
    for g in ids:
        G._check_id(g)
    return element_set(G, _closure_ids(G, ids), subgroup=True)


# ---------------------------------------------------------------------------
# Center, derived subgroup
# ---------------------------------------------------------------------------

def center(G: GroupTable) -> ElementSet:
    t = G.table
    central = np.flatnonzero((t == t.T).all(axis=1))
    return element_set(G, central, subgroup=True)


def derived_subgroup(G: GroupTable) -> ElementSet:
    t = G.table
    inv = G.inv_array
    # commutator(g, h) = (g h)(g^-1 h^-1)
    gh = t
    gihi = t[np.ix_(inv, inv)]
    comms = np.unique(t[gh, gihi])
    return element_set(G, _closure_ids(G, comms), subgroup=True)


# ---------------------------------------------------------------------------
# Normality, normal subgroups, quotients
# ---------------------------------------------------------------------------

def is_normal(G: GroupTable, H: ElementSet) -> bool:
    if not H.is_subgroup:
        raise InputError("is_normal requires a subgroup-flagged ElementSet")
    t = G.table
    inv = G.inv_array
    mem = np.array(H.to_ids(), dtype=np.int64)
    mask = np.zeros(G.order, dtype=bool)
    mask[mem] = True
    conj = t[t[:, mem], inv[:, None]]
    return bool(mask[conj].all())


def _mask_bytes(ids: np.ndarray, n: int) -> bytes:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.packbits(mask).tobytes()


def normal_subgroups(G: GroupTable) -> list[ElementSet]:
    """Complete duplicate-free list of normal subgroups, sorted by (size, ids).

    Every normal subgroup is the join of the normal closures of its
    elements.  One normal closure is computed per conjugacy class of
    nontrivial cyclic subgroups (conjugate generators of conjugate cyclic
    subgroups share one), and each stops as soon as it outgrows every proper
    subgroup (Lagrange; see _closure_ids).  The lattice is {1}, G, these
    seed closures, and every join of a found subgroup with one more proper
    seed closure, to fixpoint.  The join of normal subgroups A and S is the
    product set AS of |A||S|/|A & S| elements, so it is not formed when S
    lies inside A or when that count is |G|.
    """
    n = G.order
    t = G.table
    inv = G.inv_array
    e = G.identity
    found: dict[bytes, np.ndarray] = {}
    for ids in (np.array([e], dtype=np.int64), np.arange(n)):
        found.setdefault(_mask_bytes(ids, n), ids)

    # One normal-closure seed per conjugacy class of cyclic subgroups: the
    # normal closure of g is the closure of its conjugacy class, and every
    # conjugate of every generator g^k (gcd(k, |g|) = 1) of <g> has the same
    # one, so all of them are marked covered once g is seeded.
    covered = np.zeros(n, dtype=bool)
    covered[e] = True
    for g in range(n):
        if covered[g]:
            continue
        # conj[x] = x g x^-1; keep one conjugator x per class member
        cls, conjugators = np.unique(t[t[:, g], inv], return_index=True)
        ids = _closure_ids(G, cls)
        found.setdefault(_mask_bytes(ids, n), ids)
        # powers[k - 1] = g^k, doubled until the block holds the identity
        powers = np.array([g])
        while not (powers == e).any():
            powers = np.concatenate([powers, t[powers, powers[-1]]])
        m = int(np.flatnonzero(powers == e)[0]) + 1
        gens = powers[:m][np.gcd(np.arange(1, m + 1), m) == 1]
        covered[t[t[conjugators[:, None], gens[None, :]], inv[conjugators, None]]] = True

    seeds = [ids for ids in found.values() if 1 < ids.size < n]
    work = list(seeds)
    while work:
        a = work.pop()
        in_a = np.zeros(n, dtype=bool)
        in_a[a] = True
        for s in seeds:
            common = int(in_a[s].sum())
            if common == s.size or a.size * s.size == n * common:
                continue  # AS is A, or AS is G
            mask = in_a.copy()
            mask[t[a[:, None], s[~in_a[s]][None, :]].ravel()] = True
            joined = np.flatnonzero(mask)
            key = _mask_bytes(joined, n)
            if key not in found:
                found[key] = joined
                work.append(joined)
    # every id array is ascending, so it is the ElementSet's to_ids()
    ordered = sorted((ids.tolist() for ids in found.values()), key=lambda ids: (len(ids), ids))
    return [element_set(G, ids, subgroup=True) for ids in ordered]


def quotient(G: GroupTable, N: ElementSet) -> GroupTable:
    """Quotient group on the cosets of a normal subgroup N."""
    if not N.is_subgroup or not is_normal(G, N):
        raise InputError("quotient requires a normal subgroup")
    n = G.order
    t = G.table
    mem = np.array(N.to_ids(), dtype=np.int64)
    coset_of = np.full(n, -1, dtype=np.int64)
    reps = []
    for g in range(n):
        if coset_of[g] >= 0:
            continue
        coset_of[t[g, mem]] = len(reps)
        reps.append(g)
    reps_arr = np.array(reps, dtype=np.int64)
    q = coset_of[t[np.ix_(reps_arr, reps_arr)]]
    label = f"{G.label}/{N.size}" if G.label else ""
    return GroupTable(len(reps), table=q, label=label)


# ---------------------------------------------------------------------------
# Sylow subgroups
# ---------------------------------------------------------------------------

def _p_part(n: int, p: int) -> int:
    pk = 1
    while n % p == 0:
        n //= p
        pk *= p
    return pk


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _element_orders(G: GroupTable) -> np.ndarray:
    """Order of every element, from one power sweep over the table: step
    every pending element's power at once until it reaches the identity."""
    t = G.table
    e = G.identity
    orders = np.ones(G.order, dtype=np.int64)
    pending = np.flatnonzero(np.arange(G.order) != e)
    cur = pending
    k = 1
    while pending.size:
        cur = t[cur, pending]
        k += 1
        done = cur == e
        orders[pending[done]] = k
        pending, cur = pending[~done], cur[~done]
    return orders


def sylow(G: GroupTable, p: int) -> ElementSet:
    """One Sylow p-subgroup, deterministic (greedy growth in id order)."""
    n = G.order
    if p < 2 or n % p != 0:
        raise InputError(f"{p} does not divide the group order {n}")
    pk = _p_part(n, p)
    orders = _element_orders(G)
    p_elems = [g for g in range(n) if _is_p_power(int(orders[g]), p)]
    # seeds: maximal-order p-elements first, then ascending id
    seeds = sorted(p_elems, key=lambda g: (-int(orders[g]), g))
    t = G.table
    inv = G.inv_array
    for seed in seeds:
        cur = _closure_ids(G, [seed])
        while len(cur) < pk:
            mask = np.zeros(n, dtype=bool)
            mask[cur] = True
            grown = False
            for c in p_elems:
                if mask[c]:
                    continue
                conj = t[t[c, cur], inv[c]]
                if not mask[conj].all():
                    continue
                cand = _closure_ids(G, np.append(cur, c))
                if _is_p_power(len(cand), p):
                    cur = cand
                    grown = True
                    break
            if not grown:
                break
        if len(cur) == pk:
            return element_set(G, cur, subgroup=True)
    raise InputError(f"could not grow a Sylow {p}-subgroup")  # pragma: no cover


# ---------------------------------------------------------------------------
# Direct products
# ---------------------------------------------------------------------------

def direct_product(G1: GroupTable, G2: GroupTable) -> GroupTable:
    """Componentwise product on id pairs, flattened row-major."""
    order = G1.order * G2.order
    check_capacity(order)
    n2 = G2.order
    label = f"{G1.label}x{G2.label}" if G1.label and G2.label else ""
    t1 = G1.table.astype(np.int64)
    t2 = G2.table.astype(np.int64)
    t = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(order, order)
    return GroupTable(order, table=t, label=label)
