"""Explicit finite-group engine.

Groups are tables of element ids 0..order-1.  Multiplication is either a
cached full Cayley table (orders up to TABLE_CAP) or an on-demand composition
function above that; both paths must agree wherever they overlap.  All
operations are pure and iterate element ids in ascending order, so every
result is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError

TABLE_CAP = 2048          # largest order for which the full table is cached
DEFAULT_ORDER_CAP = 20000  # hard engine capacity; beyond this is a clean error


def check_capacity(order: int, cap: int = DEFAULT_ORDER_CAP) -> None:
    if order > cap:
        raise CapacityError(f"group order {order} exceeds engine capacity {cap}")


class GroupTable:
    """An explicit finite group on element ids 0..order-1."""

    def __init__(
        self,
        order: int,
        table: np.ndarray | None = None,
        mul_fn: Callable[[int, int], int] | None = None,
        label: str = "",
    ):
        if order < 1:
            raise InputError(f"group order must be positive, got {order}")
        check_capacity(order)
        if table is None and mul_fn is None:
            raise InputError("need a Cayley table or a multiplication function")
        self.order = order
        self.label = label
        if table is not None:
            table = np.asarray(table)
            if table.shape != (order, order):
                raise InputError("Cayley table shape does not match order")
            self._table = table.astype(np.int32, copy=False)
            self._mul_fn = None
        else:
            self._table = None
            self._mul_fn = mul_fn
            self._memo: dict[tuple[int, int], int] = {}
        self._identity: int | None = None
        self._inv: np.ndarray | None = None

    # -- multiplication ----------------------------------------------------

    @property
    def has_table(self) -> bool:
        return self._table is not None

    @property
    def table(self) -> np.ndarray:
        """Full Cayley table; materialized on demand for orders <= TABLE_CAP."""
        if self._table is None:
            if self.order > TABLE_CAP:
                raise CapacityError(
                    f"order {self.order} exceeds the cached-table cap {TABLE_CAP}"
                )
            n = self.order
            t = np.empty((n, n), dtype=np.int32)
            for a in range(n):
                for b in range(n):
                    t[a, b] = self._mul_fn(a, b)
            self._table = t
        return self._table

    def mul(self, a: int, b: int) -> int:
        self._check_id(a)
        self._check_id(b)
        if self._table is not None:
            return int(self._table[a, b])
        key = (a, b)
        v = self._memo.get(key)
        if v is None:
            v = self._memo[key] = int(self._mul_fn(a, b))
        return v

    def _check_id(self, g: int) -> None:
        if not 0 <= g < self.order:
            raise InputError(f"element id {g} out of range for order {self.order}")

    @property
    def identity(self) -> int:
        if self._identity is None:
            for e in range(self.order):
                if self.mul(e, 0) == 0 and self.mul(0, e) == 0:
                    # candidate; confirm on one more element
                    probe = min(1, self.order - 1)
                    if self.mul(e, probe) == probe:
                        self._identity = e
                        break
            else:
                raise InputError("no identity element; not a group table")
        return self._identity

    @property
    def inv_array(self) -> np.ndarray:
        if self._inv is None:
            e = self.identity
            inv = np.full(self.order, -1, dtype=np.int32)
            if self.has_table or self.order <= TABLE_CAP:
                t = self.table
                rows, cols = np.nonzero(t == e)
                inv[rows] = cols
            else:
                for g in range(self.order):
                    for h in range(self.order):
                        if self.mul(g, h) == e:
                            inv[g] = h
                            break
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

    # -- validation --------------------------------------------------------

    def validate(self, rng_seed: int = 0) -> None:
        """Check the group axioms: identity, inverses, Latin square, and
        associativity (exhaustive up to order 256, random triples above)."""
        e = self.identity
        t = self.table
        n = self.order
        ids = np.arange(n)
        if not (t[e] == ids).all() or not (t[:, e] == ids).all():
            raise InputError("identity law fails")
        self.inv_array  # raises if an inverse is missing
        if not (np.sort(t, axis=1) == ids).all():
            raise InputError("Latin-square property fails on rows")
        if not (np.sort(t, axis=0) == ids[:, None]).all():
            raise InputError("Latin-square property fails on columns")
        if n <= 256:
            # (ab)c == a(bc) for all triples, fully vectorized per a.
            for a in range(n):
                if not (t[t[a], :] == t[a, t]).all():
                    raise InputError("associativity fails")
        else:
            rng = np.random.default_rng(rng_seed)
            for _ in range(2000):
                a, b, c = (int(x) for x in rng.integers(0, n, 3))
                if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                    raise InputError("associativity fails")

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


@dataclass(frozen=True)
class ConjClassPartition:
    classes: tuple[ElementSet, ...]
    representatives: tuple[int, ...]


def element_set(G: GroupTable, ids: Iterable[int], subgroup: bool = False) -> ElementSet:
    return ElementSet(G.order, frozenset(int(i) for i in ids), subgroup)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------

def _closure_ids(G: GroupTable, gens: Sequence[int]) -> np.ndarray:
    """Ids of the smallest subgroup containing gens, ascending."""
    n = G.order
    e = G.identity
    member = np.zeros(n, dtype=bool)
    member[e] = True
    member[np.asarray(list(gens), dtype=np.int64)] = True
    frontier = np.flatnonzero(member)
    if G.has_table or n <= TABLE_CAP:
        t = G.table
        current = np.flatnonzero(member)
        while True:
            # close by squaring: the member count at least doubles per round
            # until the fixpoint, so the loop is logarithmic in the result
            member[t[current[:, None], current[None, :]].ravel()] = True
            new_current = np.flatnonzero(member)
            if new_current.size == current.size:
                break
            current = new_current
    else:
        mem = set(int(i) for i in np.flatnonzero(member))
        work = list(mem)
        while work:
            g = work.pop()
            for h in sorted(mem):
                for p in (G.mul(g, h), G.mul(h, g)):
                    if p not in mem:
                        mem.add(p)
                        work.append(p)
        member[:] = False
        member[list(mem)] = True
    return np.flatnonzero(member)


def subgroup_closure(G: GroupTable, gens: ElementSet | Iterable[int]) -> ElementSet:
    """Smallest subgroup of G containing gens."""
    ids = gens.to_ids() if isinstance(gens, ElementSet) else [int(g) for g in gens]
    for g in ids:
        G._check_id(g)
    return element_set(G, _closure_ids(G, ids), subgroup=True)


# ---------------------------------------------------------------------------
# Conjugacy, center, derived subgroup
# ---------------------------------------------------------------------------

def conjugacy_classes(G: GroupTable) -> ConjClassPartition:
    """Partition into conjugacy orbits, classes sorted by minimal member id."""
    n = G.order
    t = G.table
    inv = G.inv_array
    seen = np.zeros(n, dtype=bool)
    classes = []
    reps = []
    for m in range(n):
        if seen[m]:
            continue
        # conjugates of m by every g at once: t[t[:, m], inv]
        orbit = np.unique(t[t[:, m], inv])
        seen[orbit] = True
        classes.append(element_set(G, orbit))
        reps.append(m)
    return ConjClassPartition(tuple(classes), tuple(reps))


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
    """Complete duplicate-free list of normal subgroups.

    Normal closures of the conjugacy classes are closed under pairwise join
    (subgroup generated by the union) until fixpoint; every normal subgroup
    is the join of the closures of the classes it contains.  Classes whose
    members generate conjugate cyclic subgroups share one normal closure, so
    one closure is computed per conjugacy class of nontrivial cyclic
    subgroups.
    """
    n = G.order
    t = G.table
    inv = G.inv_array
    e = G.identity
    found: dict[bytes, np.ndarray] = {}

    triv = np.array([e], dtype=np.int64)
    found[_mask_bytes(triv, n)] = triv

    # One normal-closure seed per conjugacy class of cyclic subgroups: the
    # normal closure of g is the closure of its conjugacy class, and every
    # conjugate of every generator g^k (gcd(k, |g|) = 1) of <g> has the same
    # one, so all of them are marked covered once g is seeded.
    covered = np.zeros(n, dtype=bool)
    covered[e] = True
    for g in range(n):
        if covered[g]:
            continue
        cls = np.unique(t[t[:, g], inv])
        ids = _closure_ids(G, cls)
        found.setdefault(_mask_bytes(ids, n), ids)
        # powers[k - 1] holds the k-th powers of every class member at once
        powers = [cls]
        while powers[-1][0] != e:
            powers.append(t[powers[-1], cls])
        m = len(powers)
        for k in range(1, m):
            if math.gcd(k, m) == 1:
                covered[powers[k - 1]] = True

    work = list(found.values())
    while work:
        a = work.pop()
        for b in list(found.values()):
            if len(a) == n or len(b) == n:
                continue
            # the join of two normal subgroups is their elementwise product set
            mask = np.zeros(n, dtype=bool)
            mask[t[a[:, None], b[None, :]].ravel()] = True
            joined = np.flatnonzero(mask)
            key = _mask_bytes(joined, n)
            if key not in found:
                found[key] = joined
                work.append(joined)
    subs = [element_set(G, ids, subgroup=True) for ids in found.values()]
    subs.sort(key=lambda s: (s.size, s.to_ids()))
    return subs


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
    if order <= TABLE_CAP:
        t1 = G1.table.astype(np.int64)
        t2 = G2.table.astype(np.int64)
        t = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(order, order)
        return GroupTable(order, table=t, label=label)

    def mul_fn(a: int, b: int) -> int:
        return G1.mul(a // n2, b // n2) * n2 + G2.mul(a % n2, b % n2)

    return GroupTable(order, mul_fn=mul_fn, label=label)
