"""Explicit finite-group engine.

Groups are dense Cayley tables on element ids 0..order-1, up to TABLE_CAP
elements; building a larger group is a clean CapacityError.  All operations
are pure and iterate element ids in ascending order, so every result is
deterministic.  A subgroup is the strictly ascending int64 array of its ids.
"""

from __future__ import annotations

from typing import Sequence

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
            e = self.identity
            # the first e in each row, or 0 for a row without one; one n-long
            # gather then confirms that every row's pick is e
            inv = np.argmax(self.table == e, axis=1).astype(np.int32)
            if (self.table[np.arange(self.order), inv] != e).any():
                raise InputError("missing inverses; not a group table")
            self._inv = inv
        return self._inv

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


# ---------------------------------------------------------------------------
# Center, derived subgroup
# ---------------------------------------------------------------------------

def center(G: GroupTable) -> np.ndarray:
    t = G.table
    return np.flatnonzero((t == t.T).all(axis=1))


def derived_subgroup(G: GroupTable) -> np.ndarray:
    """G' as the normal closure of the commutators of a generating set.

    The generators are taken greedily in id order, each outside the closure
    of those before it, so there are at most log2 |G| of them.  If N is
    normal and holds their commutators, the generators commute modulo N, so
    G/N is abelian and G' <= N; hence G' is that normal closure.
    """
    t = G.table
    inv = G.inv_array
    gens: list[int] = []
    span = np.zeros(G.order, dtype=bool)
    span[G.identity] = True
    while not span.all():
        gens.append(int(np.argmin(span)))  # the smallest id outside the span
        span[_closure_ids(G, gens)] = True
    g = np.array(gens, dtype=np.int64)
    # commutator(a, b) = (a b)(a^-1 b^-1)
    comms = t[t[g[:, None], g[None, :]], t[inv[g][:, None], inv[g][None, :]]]
    sub = _closure_ids(G, comms.ravel())
    while True:
        # the conjugates x s x^-1 of every member, one n x |sub| gather; x = e
        # gives sub itself, so no new element means sub is normal
        member = np.zeros(G.order, dtype=bool)
        member[t[t[:, sub], inv[:, None]]] = True
        if member.sum() == sub.size:
            return sub
        sub = _closure_ids(G, np.flatnonzero(member))


# ---------------------------------------------------------------------------
# Normality, normal subgroups, quotients
# ---------------------------------------------------------------------------

def _left_coset_minima(G: GroupTable, H: np.ndarray) -> np.ndarray | None:
    """min(gH) for every g, or None when the subgroup H is not normal.

    The minimum of a coset lies in it, so it labels the coset, and H is
    normal iff every left coset gH is the right coset Hg, i.e. iff the
    left-coset minima equal the right-coset minima.
    """
    t = G.table
    left = t[:, H].min(axis=1)
    if not (left == t[H, :].min(axis=0)).all():
        return None
    return left


def _mask_bytes(ids: np.ndarray, n: int) -> bytes:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.packbits(mask).tobytes()


def normal_subgroups(G: GroupTable) -> list[np.ndarray]:
    """Complete duplicate-free list of normal subgroups, sorted by (size, ids).

    Every normal subgroup is the join of the normal closures of its
    elements.  One normal closure is computed per conjugacy class of
    nontrivial cyclic subgroups (conjugate generators of conjugate cyclic
    subgroups share one), and each stops as soon as it outgrows every proper
    subgroup (Lagrange; see _closure_ids).  The lattice is {1}, G, these
    seed closures, and every join of a found subgroup with one more proper
    seed closure, to fixpoint.

    The join of normal subgroups A and S is the product set AS of
    |A||S|/|A & S| elements; it is A when S lies in A, and G when that count
    is |G|.  A proper normal subgroup is the union of the seeds it contains
    (it is the union of the normal closures of its members, each a seed), so
    a found subgroup of order |AS| that contains the seeds of A and S
    contains AS and is AS.  Only when none qualifies is the product set
    formed, and it is then new.
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

    lattice = list(found.values())
    seeds = [ids for ids in lattice if 1 < ids.size < n]
    in_seed = np.zeros((len(seeds), n), dtype=bool)
    for row, ids in zip(in_seed, seeds):
        row[ids] = True
    sizes = np.array([ids.size for ids in seeds])
    # seed_sets[order] holds, per found proper subgroup of that order, the
    # bitmask of the seeds it contains
    seed_sets: dict[int, list[int]] = {}
    work = []

    def add(ids: np.ndarray) -> None:
        # |ids & S| for every seed S, in one k x |ids| gather
        common = in_seed[:, ids].sum(axis=1)
        held = int.from_bytes(np.packbits(common == sizes, bitorder="little").tobytes(), "little")
        seed_sets.setdefault(ids.size, []).append(held)
        work.append((ids, common, held))

    for ids in seeds:
        add(ids)
    while work:
        a, common, held = work.pop()
        # AS is A when S lies in A, and G when |A||S| = |G||A & S|
        for k in np.flatnonzero((common != sizes) & (a.size * sizes != n * common)).tolist():
            need = held | 1 << k
            if any(m & need == need for m in seed_sets.get(a.size * sizes[k] // common[k], ())):
                continue  # AS is already found
            mask = np.zeros(n, dtype=bool)
            mask[a] = True
            s = seeds[k]
            mask[t[a[:, None], s[~mask[s]][None, :]].ravel()] = True
            joined = np.flatnonzero(mask)
            lattice.append(joined)
            add(joined)
    return sorted(lattice, key=lambda ids: (ids.size, ids.tolist()))


def quotient(G: GroupTable, N: np.ndarray) -> GroupTable:
    """Quotient group on the cosets of N, represented by their smallest ids
    in ascending order.  N must be a subgroup the engine returned; it raises
    InputError when N is not normal."""
    minima = _left_coset_minima(G, N)
    if minima is None:
        raise InputError("quotient requires a normal subgroup")
    reps, coset_of = np.unique(minima, return_inverse=True)
    # index an int32 map, so the n x n gather is built once in the table's dtype
    q = coset_of.astype(np.int32)[G.table[np.ix_(reps, reps)]]
    label = f"{G.label}/{N.size}" if G.label else ""
    return GroupTable(reps.size, table=q, label=label)


# ---------------------------------------------------------------------------
# Element orders, Sylow subgroups
# ---------------------------------------------------------------------------

def _p_part(n: int, p: int) -> int:
    pk = 1
    while n % p == 0:
        n //= p
        pk *= p
    return pk


def _powers(G: GroupTable, ids: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """ids[i] ** exps[i] for every i, by square-and-multiply over the table."""
    t = G.table
    result = np.full(ids.size, G.identity, dtype=np.int64)
    base = ids.astype(np.int64)
    exps = exps.copy()
    while exps.any():
        odd = (exps & 1).astype(bool)
        result[odd] = t[result[odd], base[odd]]
        base = t[base, base]
        exps >>= 1
    return result


def _element_orders(G: GroupTable) -> np.ndarray:
    """Order of every element: start at |G| and, for each prime p dividing
    it, divide by p while g^(order / p) is still the identity."""
    n = G.order
    orders = np.full(n, n, dtype=np.int64)
    for p in prime_factors(n):
        pending = np.arange(n)
        while pending.size:
            pending = pending[orders[pending] % p == 0]
            drop = _powers(G, pending, orders[pending] // p) == G.identity
            pending = pending[drop]
            orders[pending] //= p
    return orders


def sylow(G: GroupTable, p: int) -> np.ndarray:
    """One Sylow p-subgroup, deterministic: the closure of the p-element of
    largest order with the smallest id, grown one p-element at a time."""
    n = G.order
    if p < 2 or n % p != 0:
        raise InputError(f"{p} does not divide the group order {n}")
    pk = _p_part(n, p)
    orders = _element_orders(G)
    # an element order divides n, so it is a power of p iff it divides pk
    p_elems = np.flatnonzero(pk % orders == 0)
    t = G.table
    inv = G.inv_array
    cur = _closure_ids(G, [p_elems[np.argmax(orders[p_elems])]])
    while cur.size < pk:
        mask = np.zeros(n, dtype=bool)
        mask[cur] = True
        cands = p_elems[~mask[p_elems]]
        # c normalises cur iff c cur c^-1 lies in cur; a proper p-subgroup
        # of a Sylow subgroup P has a larger normaliser in P, so some
        # candidate does, and cur<c> is then a p-subgroup of order > |cur|
        normalises = mask[t[t[np.ix_(cands, cur)], inv[cands, None]]].all(axis=1)
        cur = _closure_ids(G, np.append(cur, cands[np.argmax(normalises)]))
    return cur


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
