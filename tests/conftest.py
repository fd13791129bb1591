"""Shared fixtures and independent brute-force oracles.

The normal-subgroup oracle builds the *full* subgroup lattice as the
join-closure of all cyclic subgroups (every subgroup is the join of its
cyclic subgroups), then filters by an element-wise normality check.  The
engine under test instead works from normal closures of conjugacy classes,
so agreement between the two is meaningful.

``normal_subgroups_pairwise`` is the engine's earlier lattice search: the
same seed closures, joined pairwise with every subgroup found (not only with
the seeds) and closed without the Lagrange exit.

The twist oracles try every t < a, where the code under test assembles the
solutions of t^b = 1 mod a by CRT.

``mul(G, a, b)`` reads one product off the table as a Python int, for the
element-wise oracles and tests.  ``is_abelian_pairwise`` compares a b with
b a for every pair of members, where the code under test compares one
gathered block with its transpose.

``validate`` checks the group axioms on a Cayley table, and
``abelian_group`` builds C_m1 x ... x C_mk in one mixed-radix pass, where the
code under test forms iterated direct products of cyclic tables.
``product_table`` writes out the direct product from its id pairs in int64, where
the code under test broadcasts the two int32 tables.
``presentation_table`` writes out the metacyclic product formula in int64,
and ``perm_group`` closes A4 and S3 from generators, where the code under
test lists the permutations.

``element_orders_sweep``, ``derived_subgroup_sweep``, ``is_normal_by_conjugation``,
``quotient_coset_loop`` and ``sylow_growth_loop`` are the engine's earlier
primitives: one table step per power, all n^2 commutators, conjugation of
every member, a Python loop over the cosets, and a Python loop over the
candidate normalisers that closes each one.  ``power_map_stepping`` reads
g^e off as g^(e mod |g|) by one table step per power, where the code under
test squares and multiplies.

``census_universe_pooled`` is the census's earlier list-building form: every
base family offered over all orders into one pool, then the coprime products
of the base survivors, then one sort.  The code under test streams the
orders one at a time.  Its ``Dic{m}`` orders come from
``dicyclic_normal_orders``, a closed form for every m, where the code under
test offers only odd m and reads them off the split metacyclic formula.
"""

import math

import numpy as np
import pytest

from leinster import constructors
from leinster.analysis import (
    analyze,
    analyze_coprime_product,
    analyze_cyclic,
    analyze_descriptor,
    analyze_split_metacyclic,
    report_from_orders,
)
from leinster.claims import NAMED_FAMILY_LABELS, dihedral_normal_orders
from leinster.errors import InputError
from leinster.groups import GroupTable
from leinster.numtheory import divisors, is_squarefree, order_is_exactly
from leinster.squarefree import (
    MetacyclicDescriptor,
    canonical_twist,
    enumerate_squarefree,
    twist_classes,
)


def mul(G: GroupTable, a: int, b: int) -> int:
    return int(G.table[a, b])


def validate(G: GroupTable, rng_seed: int = 0) -> None:
    """Check the group axioms: identity, inverses, Latin square, and
    associativity (exhaustive up to order 256, random triples above)."""
    e = G.identity
    t = G.table
    n = G.order
    ids = np.arange(n)
    if not (t[e] == ids).all() or not (t[:, e] == ids).all():
        raise InputError("identity law fails")
    G.inv_array  # raises if an inverse is missing
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
            if mul(G, mul(G, a, b), c) != mul(G, a, mul(G, b, c)):
                raise InputError("associativity fails")


def abelian_group(orders: tuple[int, ...]) -> GroupTable:
    """C_m1 x ... x C_mk with id = mixed-radix digits (c1, ..., ck), c1 most
    significant, labelled C_m1x...xC_mk."""
    n = math.prod(orders)

    def coords(idx: np.ndarray) -> list[np.ndarray]:
        out = []
        rest = idx
        for m in reversed(orders):
            out.append(rest % m)
            rest = rest // m
        return out[::-1]

    ids = np.arange(n, dtype=np.int64)
    ca, cb = coords(ids[:, None]), coords(ids[None, :])
    total = np.zeros((n, n), dtype=np.int64)
    for m, xa, xb in zip(orders, ca, cb):
        total = total * m + (xa + xb) % m
    return GroupTable(n, total, range(n), "x".join(f"C{m}" for m in orders))


def product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """int64 table of the direct product on ids i1*n2 + i2 for (i1, i2):
    (i1, i2) * (j1, j2) = t1[i1, j1] * n2 + t2[i2, j2]."""
    n2 = len(t2)
    i1, i2 = np.divmod(np.arange(len(t1) * n2, dtype=np.int64), n2)
    return t1.astype(np.int64)[i1[:, None], i1[None, :]] * n2 + t2[i2[:, None], i2[None, :]]


def presentation_table(a: int, b: int, t: int, s: int) -> np.ndarray:
    """int64 table of x^a = 1, y^b = x^s, y x y^-1 = x^t on ids i*b + j for
    x^i y^j, from x^i y^j * x^k y^l = x^(i + k t^j) y^(j + l) and one x^s
    per wrap of the y-exponent past b."""
    n = a * b
    i, j = np.divmod(np.arange(n, dtype=np.int64), b)
    tp = np.array([pow(t, e, a) for e in range(b)], dtype=np.int64)
    jl = j[:, None] + j[None, :]
    x = (i[:, None] + i[None, :] * tp[j][:, None] + s * (jl >= b)) % a
    return x * b + jl % b


def perm_group(generators) -> np.ndarray:
    """Table of the closure of permutations of {0..d-1} under composition
    (p q)[k] = p[q[k]], on the lexicographic order of the permutations."""
    d = len(generators[0])
    elems = {tuple(range(d))}
    work = list(elems)
    while work:
        p = work.pop()
        for g in generators:
            q = tuple(p[g[k]] for k in range(d))
            if q not in elems:
                elems.add(q)
                work.append(q)
    ordered = sorted(elems)
    index = {p: k for k, p in enumerate(ordered)}
    return np.array(
        [[index[tuple(p[q[k]] for k in range(d))] for q in ordered] for p in ordered]
    )


def cyclic_subgroup(G: GroupTable, g: int) -> frozenset:
    out = {G.identity}
    cur = g
    while cur not in out:
        out.add(cur)
        cur = mul(G, cur, g)
    return frozenset(out)


def join(G: GroupTable, a: frozenset, b: frozenset) -> frozenset:
    members = set(a | b)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (mul(G, x, y), mul(G, y, x)):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return frozenset(members)


def all_subgroups_bruteforce(G: GroupTable) -> set[frozenset]:
    subs = {cyclic_subgroup(G, g) for g in range(G.order)}
    worklist = list(subs)
    while worklist:
        a = worklist.pop()
        for b in list(subs):
            j = join(G, a, b)
            if j not in subs:
                subs.add(j)
                worklist.append(j)
    return subs


def is_normal_bruteforce(G: GroupTable, sub: frozenset) -> bool:
    return all(
        mul(G, mul(G, g, h), G.inv_array[g]) in sub for g in range(G.order) for h in sub
    )


def is_abelian_pairwise(G: GroupTable, ids) -> bool:
    ids = [int(a) for a in ids]
    return all(mul(G, a, b) == mul(G, b, a) for i, a in enumerate(ids) for b in ids[i + 1 :])


def normal_subgroups_bruteforce(G: GroupTable) -> set[frozenset]:
    return {s for s in all_subgroups_bruteforce(G) if is_normal_bruteforce(G, s)}


def normal_orders_bruteforce(G: GroupTable) -> list[int]:
    return sorted(len(s) for s in normal_subgroups_bruteforce(G))


def _closure_by_squaring(G: GroupTable, gens) -> np.ndarray:
    member = np.zeros(G.order, dtype=bool)
    member[G.identity] = True
    member[np.asarray(list(gens), dtype=np.int64)] = True
    current = np.flatnonzero(member)
    while True:
        member[G.table[current[:, None], current[None, :]].ravel()] = True
        grown = np.flatnonzero(member)
        if grown.size == current.size:
            return current
        current = grown


def _mask_key(ids: np.ndarray, n: int) -> bytes:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.packbits(mask).tobytes()


def normal_subgroups_pairwise(G: GroupTable) -> list[np.ndarray]:
    """Normal subgroups as joins of every found pair, to fixpoint, starting
    from one normal closure per conjugacy class of cyclic subgroups."""
    n, t, inv, e = G.order, G.table, G.inv_array, G.identity
    triv = np.array([e], dtype=np.int64)
    found = {_mask_key(triv, n): triv}
    covered = np.zeros(n, dtype=bool)
    covered[e] = True
    for g in range(n):
        if covered[g]:
            continue
        cls = np.unique(t[t[:, g], inv])
        ids = _closure_by_squaring(G, cls)
        found.setdefault(_mask_key(ids, n), ids)
        # powers[k - 1] holds the k-th powers of every class member
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
            mask = np.zeros(n, dtype=bool)
            mask[t[a[:, None], b[None, :]].ravel()] = True
            joined = np.flatnonzero(mask)
            key = _mask_key(joined, n)
            if key not in found:
                found[key] = joined
                work.append(joined)
    return sorted(found.values(), key=lambda ids: (ids.size, ids.tolist()))


def element_orders_sweep(G: GroupTable) -> np.ndarray:
    """Order of every element: step every pending element's power at once
    until it reaches the identity, one table gather per power."""
    t, e = G.table, G.identity
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


def power_map_stepping(G: GroupTable, e: int) -> np.ndarray:
    """g^e for every g as g^(e mod |g|): step cur = g^j one power at a time
    and keep each element's power when j reaches e mod its order."""
    t, every = G.table, np.arange(G.order)
    want = e % element_orders_sweep(G)
    result = np.full(G.order, G.identity, dtype=np.int64)
    cur = result.copy()
    for j in range(1, int(want.max()) + 1):
        cur = t[cur, every]
        result[want == j] = cur[want == j]
    return result


def derived_subgroup_sweep(G: GroupTable) -> np.ndarray:
    """The closure of all n^2 commutators (g h)(g^-1 h^-1)."""
    t, inv = G.table, G.inv_array
    comms = np.unique(t[t, t[np.ix_(inv, inv)]])
    return _closure_by_squaring(G, comms)


def is_normal_by_conjugation(G: GroupTable, H: np.ndarray) -> bool:
    """Every conjugate g h g^-1 of every member lies in H."""
    t, inv = G.table, G.inv_array
    mask = np.zeros(G.order, dtype=bool)
    mask[H] = True
    return bool(mask[t[t[:, H], inv[:, None]]].all())


def quotient_coset_loop(G: GroupTable, N: np.ndarray) -> GroupTable:
    """Quotient by a normal N: walk the ids in order, and each id not yet
    in a coset opens the coset gN as its representative."""
    if not is_normal_by_conjugation(G, N):
        raise InputError("quotient requires a normal subgroup")
    t = G.table
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        coset_of[t[g, N]] = len(reps)
        reps.append(g)
    reps_arr = np.array(reps, dtype=np.int64)
    label = f"{G.label}/{N.size}" if G.label else ""
    table = coset_of[t[np.ix_(reps_arr, reps_arr)]]
    return GroupTable(len(reps), table=table, gens=range(len(reps)), label=label)


def sylow_growth_loop(G: GroupTable, p: int) -> np.ndarray:
    """Sylow p-subgroup by greedy growth: seeds are the p-elements by
    descending order, then ascending id; each step adds the first p-element
    in id order that normalises the current subgroup and keeps its closure
    a p-group."""
    n, t, inv = G.order, G.table, G.inv_array
    pk = 1
    while n % (pk * p) == 0:
        pk *= p

    def is_p_power(m: int) -> bool:
        while m % p == 0:
            m //= p
        return m == 1

    orders = element_orders_sweep(G)
    p_elems = [g for g in range(n) if is_p_power(int(orders[g]))]
    for seed in sorted(p_elems, key=lambda g: (-int(orders[g]), g)):
        cur = _closure_by_squaring(G, [seed])
        while len(cur) < pk:
            mask = np.zeros(n, dtype=bool)
            mask[cur] = True
            grown = False
            for c in p_elems:
                if mask[c] or not mask[t[t[c, cur], inv[c]]].all():
                    continue
                cand = _closure_by_squaring(G, np.append(cur, c))
                if is_p_power(len(cand)):
                    cur, grown = cand, True
                    break
            if not grown:
                break
        if len(cur) == pk:
            return cur
    raise AssertionError(f"no Sylow {p}-subgroup grown")


def twist_classes_bruteforce(a: int, b: int) -> list[tuple[int, int]]:
    """(minimum, order of t) of each orbit {t^k mod a : gcd(k, b) = 1} of the
    twists t != 1 with t^b = 1 mod a, straight from the definition."""
    classes = {}
    for t in range(2, a):
        if math.gcd(t, a) == 1 and pow(t, b, a) == 1:
            orbit = [pow(t, k, a) for k in range(1, b + 1) if math.gcd(k, b) == 1]
            classes[min(orbit)] = next(k for k in range(1, b + 1) if pow(t, k, a) == 1)
    return sorted(classes.items())


def split_metacyclic_specs_bruteforce(bound: int) -> list[tuple[int, int, int]]:
    """All canonical (a, b, t) with gcd(a,b)=1, t^b=1 mod a, t != 1, ab <= bound."""
    out = set()
    for b in range(2, bound // 2 + 1):
        for a in range(2, bound // b + 1):
            if math.gcd(a, b) != 1:
                continue
            for t in range(2, a):
                if math.gcd(t, a) == 1 and pow(t, b, a) == 1:
                    out.add((a, b, canonical_twist(a, b, t)))
    return sorted(out)


def enumerate_squarefree_bruteforce(n: int) -> tuple[MetacyclicDescriptor, ...]:
    """One descriptor per faithful twist orbit of squarefree order n, by (a, t)."""
    found = set()
    for a in divisors(n):
        b = n // a
        if b == 1:
            found.add(MetacyclicDescriptor(a, 1, 1))
            continue
        for t in range(2, a):
            if math.gcd(t, a) == 1 and order_is_exactly(t, a, b):
                found.add(MetacyclicDescriptor(a, b, canonical_twist(a, b, t)))
    return tuple(sorted(found, key=lambda d: (d.a, d.t)))


def dicyclic_normal_orders(m: int) -> list[int]:
    """Normal-subgroup orders of the dicyclic group of order 4m: every
    subgroup of the cyclic C_{2m}, the whole group, and (for even m) the two
    index-2 dicyclic subgroups."""
    extra = [2 * m, 2 * m] if m % 2 == 0 else []
    return [d for d in divisors(4 * m) if 2 * m % d == 0] + extra + [4 * m]


def _is_cyclic_report(rep) -> bool:
    return rep.label.startswith("C") and rep.label[1:].isdigit()


def census_universe_pooled(bound: int) -> list:
    """Every fingerprint's winner of the constructible universe up to the
    bound, sorted by (order, label)."""
    pool = {}

    def offer(priority, rep):
        held = pool.get(rep.normal_orders)
        if held is None or (priority, rep.label) < held[:2]:
            pool[rep.normal_orders] = (priority, rep.label, rep)

    def survivors():
        return sorted((rep for _, _, rep in pool.values()), key=lambda r: (r.order, r.label))

    for n in range(2, bound + 1):
        offer(0, analyze_cyclic(n))
    for m in range(2, bound // 2 + 1):
        offer(1, report_from_orders(f"D{2 * m}", 2 * m, dihedral_normal_orders(m)))
    for m in range(2, bound // 4 + 1):
        offer(2, report_from_orders(f"Dic{m}", 4 * m, dicyclic_normal_orders(m)))
    for label in NAMED_FAMILY_LABELS:
        rep = analyze(constructors.build(label))
        if rep.order <= bound:
            offer(3, rep)
    for n in range(2, bound + 1):
        if is_squarefree(n):
            for d in enumerate_squarefree(n):
                offer(4, analyze_descriptor(d))
    for a in range(3, bound // 2 + 1):
        for b in range(2, bound // a + 1):
            if math.gcd(a, b) == 1:
                for t, _ in twist_classes(a, b):
                    offer(6, analyze_split_metacyclic(a, b, t))

    by_order = {}
    for rep in survivors():
        by_order.setdefault(rep.order, []).append(rep)
    orders = list(by_order)
    for i, o1 in enumerate(orders):
        for o2 in orders[i + 1 :]:
            if o1 * o2 > bound:
                break
            if math.gcd(o1, o2) != 1:
                continue
            for r1 in by_order[o1]:
                for r2 in by_order[o2]:
                    if _is_cyclic_report(r1) and not _is_cyclic_report(r2):
                        offer(5, analyze_coprime_product(r2, r1))
                    else:
                        offer(5, analyze_coprime_product(r1, r2))
    return survivors()


# Small groups exercised by several suites: a mix of abelian, dihedral,
# dicyclic, semidirect, and permutation-defined groups.
ORACLE_SPECS = [
    "C1",
    "C12",
    "C2xC2",
    "C2xC2xC3",
    "C2xC2xC2xC3",  # its normal subgroup C2^3 is a join of three seed closures
    "S3",
    "A4",
    "D8",
    "D12",
    "D20",
    "Dic3",
    "Dic4",
    "Dic5",
    "SD(5,4,2)",
    "SD(7,3,2)",
    "SD(7,6,3)",
    "SD(13,3,3)",
    "SD(7,8,6)",
    "S3xC5",
    "C3xD8",
    # each has a normal subgroup that needs seeds of two primes
    "C30",
    "C6xC2",
    "Dic3xC2",
    "C4xC6",
]


@pytest.fixture(scope="session", params=ORACLE_SPECS)
def oracle_group(request):
    return constructors.build(request.param)
