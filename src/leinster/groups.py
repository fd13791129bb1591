"""Explicit finite-group engine.

Groups are dense int16 Cayley tables on element ids 0..order-1, up to
TABLE_CAP elements; building a larger group is a clean CapacityError.  All
operations are pure and iterate element ids in ascending order, so every
result is deterministic.  A subgroup is the strictly ascending int64 array
of its ids.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapacityError, InputError
from .numtheory import factorize, prime_factors

TABLE_CAP = 2048  # engine capacity: the largest order with a Cayley table


def check_capacity(order: int) -> None:
    if order > TABLE_CAP:
        raise CapacityError(f"group order {order} exceeds engine capacity {TABLE_CAP}")


class GroupTable:
    """An explicit finite group on element ids 0..order-1, generated by the ids gens."""

    def __init__(self, order: int, table: np.ndarray, gens: Sequence[int], label: str = ""):
        if order < 1:
            raise InputError(f"group order must be positive, got {order}")
        check_capacity(order)
        table = np.asarray(table)
        if table.shape != (order, order):
            raise InputError("Cayley table shape does not match order")
        self.order = order
        self.label = label
        self.table = table.astype(np.int16, copy=False)
        self.gens = np.asarray(gens, dtype=np.int64)

    # -- elements ----------------------------------------------------------

    def _check_id(self, g: int) -> None:
        if not 0 <= g < self.order:
            raise InputError(f"element id {g} out of range for order {self.order}")

    @cached_property
    def identity(self) -> int:
        # by cancellation e is the only x with x * 0 = 0; confirm its row
        t = self.table
        cand = np.flatnonzero(t[:, 0] == 0)
        if cand.size != 1 or not (t[cand[0]] == np.arange(self.order)).all():
            raise InputError("no identity element; not a group table")
        return int(cand[0])

    @cached_property
    def inv_array(self) -> np.ndarray:
        e = self.identity
        # the first e in each row, or 0 for a row without one; one n-long
        # gather then confirms that every row's pick is e
        inv = np.argmax(self.table == e, axis=1).astype(np.int16)
        if (self.table[np.arange(self.order), inv] != e).any():
            raise InputError("missing inverses; not a group table")
        return inv

    def element_order(self, g: int) -> int:
        self._check_id(g)
        e, t = self.identity, self.table
        k, cur = 1, g
        while cur != e:
            cur = int(t[cur, g])
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


def _conjugates(G: GroupTable, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """The |xs| x |cs| array of x c x^-1, for x in xs and c in cs."""
    t = G.table
    return t[t[np.ix_(xs, cs)], G.inv_array[xs, None]]


# ---------------------------------------------------------------------------
# Center, derived subgroup
# ---------------------------------------------------------------------------

def center(G: GroupTable) -> np.ndarray:
    """The centralizer of the generators, from one n x |gens| compare."""
    t, g = G.table, G.gens
    return np.flatnonzero((t[:, g] == t[g].T).all(axis=1))


def derived_subgroup(G: GroupTable) -> np.ndarray:
    """G' as the normal closure of the commutators of the generators.

    If N is normal and holds those commutators, the generators commute
    modulo N, so G/N is abelian and G' <= N; hence G' is that normal
    closure.  It is the subgroup generated by the conjugates of the
    commutators: one n x |comms| gather, then one closure.
    """
    t, g, ginv = G.table, G.gens, G.inv_array[G.gens]
    # commutator(a, b) = (a b)(a^-1 b^-1)
    comms = t[t[g[:, None], g[None, :]], t[ginv[:, None], ginv[None, :]]]
    # the conjugates, marked in a mask rather than sorted by np.unique
    conj = np.zeros(G.order, dtype=bool)
    conj[_conjugates(G, np.arange(G.order), comms.ravel())] = True
    return _closure_ids(G, np.flatnonzero(conj))


# ---------------------------------------------------------------------------
# Normality, normal subgroups, quotients
# ---------------------------------------------------------------------------

def _is_normal(G: GroupTable, H: np.ndarray) -> bool:
    """Whether the subgroup H is normal, i.e. g H g^-1 <= H for every
    generator g: then g H g^-1 = H, so g^-1 and all products normalise H."""
    mask = np.zeros(G.order, dtype=bool)
    mask[H] = True
    return bool(mask[_conjugates(G, G.gens, H)].all())


def normal_subgroups(G: GroupTable) -> list[np.ndarray]:
    """Complete duplicate-free list of normal subgroups, sorted by (size, ids).

    Every normal subgroup N is the join of the normal closures of its
    elements of prime-power order: each g in N is the product of its p-parts,
    and each p-part is a power of g, so it lies in N.  One normal closure is
    computed per conjugacy class of cyclic subgroups of prime-power order
    (conjugate generators of conjugate cyclic subgroups share one), and each
    stops as soon as it outgrows every proper subgroup (Lagrange; see
    _closure_ids).  The lattice is {1}, G, these seed closures, and every
    join of a found subgroup with one more proper seed closure, to fixpoint.

    A proper normal subgroup is generated by the seeds it contains, so it
    is identified by its order and the seeds it holds, and a subgroup is
    kept only when that pair is new.  The join of normal subgroups A and S
    is the product set AS of |A||S|/|A & S| elements; it is A when S lies
    in A, and G when that count is |G|.  Otherwise a found subgroup of order
    |AS| holding the seeds of A and S is AS, and AS is formed only if none is.
    """
    n = G.order
    t = G.table
    e = G.identity
    lattice = [np.array([e], dtype=np.int64)] + [np.arange(n)] * (n > 1)

    # One normal-closure seed per conjugacy class of cyclic subgroups of
    # prime-power order (g has p-power order iff g^(p^k) = e, p^k the p-part
    # of n): the normal closure of g is the closure of its conjugacy class,
    # and every conjugate of every generator g^k (gcd(k, |g|) = 1) of <g> has
    # the same one, so all of them are marked covered once g is seeded.
    every = np.arange(n)
    covered = np.ones(n, dtype=bool)
    for p, k in factorize(n):
        covered &= _power_map(G, p**k) != e
    covered[e] = True
    seeds = []
    for g in np.flatnonzero(~covered).tolist():
        if covered[g]:
            continue
        # one conjugator x per class member x g x^-1
        cls, conjugators = np.unique(_conjugates(G, every, [g]), return_index=True)
        ids = _closure_ids(G, cls)
        if ids.size < n:
            seeds.append(ids)
        # powers[k - 1] = g^k, doubled until the block holds the identity
        powers = np.array([g])
        while not (powers == e).any():
            powers = np.concatenate([powers, t[powers, powers[-1]]])
        m = int(np.flatnonzero(powers == e)[0]) + 1
        gens = powers[:m][np.gcd(np.arange(1, m + 1), m) == 1]
        covered[_conjugates(G, conjugators, gens)] = True

    in_seed = np.zeros((len(seeds), n), dtype=bool)
    for row, ids in zip(in_seed, seeds):
        row[ids] = True
    sizes = np.array([ids.size for ids in seeds])
    # seed_sets[order] holds, per found proper subgroup of that order, the
    # bitmask of the seeds it contains (a repeated seed sets both its bits)
    seed_sets: dict[int, list[int]] = {}
    work = []

    def add(ids: np.ndarray) -> None:
        # |ids & S| for every seed S, in one k x |ids| gather
        common = in_seed[:, ids].sum(axis=1)
        held = int.from_bytes(np.packbits(common == sizes, bitorder="little").tobytes(), "little")
        if held not in seed_sets.setdefault(ids.size, []):
            seed_sets[ids.size].append(held)
            lattice.append(ids)
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
            add(np.flatnonzero(mask))
    return sorted(lattice, key=lambda ids: (ids.size, ids.tolist()))


def quotient(G: GroupTable, N: np.ndarray) -> GroupTable:
    """Quotient group on the cosets of N, represented by their smallest ids
    in ascending order.  N must be a subgroup the engine returned; it raises
    InputError when the generators do not normalise it (see _is_normal)."""
    if not _is_normal(G, N):
        raise InputError("quotient requires a normal subgroup")
    # the minimum of a coset gN lies in it, so it labels the coset
    reps, coset_of = np.unique(G.table[:, N].min(axis=1), return_inverse=True)
    # index an int16 map, so the n x n gather is built once in the table's dtype
    q = coset_of.astype(np.int16)[G.table[np.ix_(reps, reps)]]
    label = f"{G.label}/{N.size}" if G.label else ""
    return GroupTable(reps.size, table=q, gens=coset_of[G.gens], label=label)


# ---------------------------------------------------------------------------
# Powers, Sylow subgroups
# ---------------------------------------------------------------------------

def _power_map(G: GroupTable, e: int) -> np.ndarray:
    """g ** e for every id g, by square-and-multiply over whole arrays."""
    t = G.table
    result = np.full(G.order, G.identity, dtype=np.int64)
    base = np.arange(G.order)
    while e:
        if e & 1:
            result = t[result, base]
        base = t[base, base]
        e >>= 1
    return result


def sylow(G: GroupTable, p: int) -> np.ndarray:
    """One Sylow p-subgroup, deterministic: the closure of the p-element of
    largest order with the smallest id, grown one p-element at a time."""
    n, e = G.order, G.identity
    k = next((k for q, k in factorize(n) if q == p), 0)
    if k == 0:
        raise InputError(f"{p} is not a prime dividing the group order {n}")
    # after j steps x = g^(p^j); a p-element of order p^a reaches e in a <= k
    # steps, and level counts the steps before it does, so level = a
    power, x, level = _power_map(G, p), np.arange(n), np.zeros(n, dtype=np.int64)
    for _ in range(k):
        level += x != e
        x = power[x]
    p_elems = np.flatnonzero(x == e)
    cur = _closure_ids(G, [p_elems[np.argmax(level[p_elems])]])
    while cur.size < p**k:
        mask = np.zeros(n, dtype=bool)
        mask[cur] = True
        cands = p_elems[~mask[p_elems]]
        # c normalises cur iff c cur c^-1 lies in cur; a proper p-subgroup
        # of a Sylow subgroup P has a larger normaliser in P, so some
        # candidate does, and cur<c> is then a p-subgroup of order > |cur|
        normalises = mask[_conjugates(G, cands, cur)].all(axis=1)
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
    # every entry is below the product's order <= TABLE_CAP, so int16 holds it
    t = G1.table[:, None, :, None] * np.int16(n2) + G2.table[None, :, None, :]
    gens = np.concatenate([G1.gens * n2 + G2.identity, G1.identity * n2 + G2.gens])
    return GroupTable(order, table=t.reshape(order, order), gens=gens, label=label)
