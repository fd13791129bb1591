"""Verification claims: the census, the exhaustive squarefree checks, the
candidate-family searches, and the theorem property suites.

Every claim returns a ClaimResult whose evidence is plain JSON data; all
iteration orders are fixed so repeated runs produce identical reports.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, Iterator

import numpy as np

from . import constructors
from .analysis import (
    LeinsterReport,
    analyze,
    analyze_coprime_product,
    analyze_cyclic,
    analyze_descriptor,
    analyze_split_metacyclic,
    report_from_orders,
)
from .errors import CapacityError, InputError
from .groups import (
    TABLE_CAP,
    GroupTable,
    _power_map,
    center,
    derived_subgroup,
    direct_product,
    normal_subgroups,
    quotient,
    sylow,
)
from .numtheory import (
    BOUNDS,
    EQUATIONS,
    _divisors,
    check_bound,
    factorize,
    is_perfect,
    is_prime,
    is_squarefree,
    prime_factors,
    primes_upto,
    scan_equation,
    scan_equation_bruteforce,
)
from .squarefree import (
    enumerate_squarefree,
    holder_count,
    realize,
    split_metacyclic_normal_orders,
    twist_classes,
)

# Named small groups that the property-suite corpus adds to the squarefree ones.
NAMED_FAMILY_LABELS = ("A4", "S3", "SD(7,8,6)", "Dic3", "Dic5", "Dic7", "D12", "C28")


@dataclass
class ClaimResult:
    claim_id: str
    status: str  # verified | refuted | partial
    statement: str
    evidence: dict
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "statement": self.statement,
            "evidence": self.evidence,
            "elapsed_ms": self.elapsed_ms,
        }


def _status(failures: object, checked: object) -> str:
    """The one verdict rule, read from truth values: refuted when the claim's
    own check found a failure; verified only when the claim's whole scope
    was checked soundly; partial otherwise."""
    if failures:
        return "refuted"
    return "verified" if checked else "partial"


def _timed(fn: Callable[..., ClaimResult]) -> Callable[..., ClaimResult]:
    """Wrap a claim so that its result carries the call's elapsed_ms."""

    @wraps(fn)
    def timed(*args, **kwargs) -> ClaimResult:
        t0 = time.monotonic()
        res = fn(*args, **kwargs)
        res.elapsed_ms = int((time.monotonic() - t0) * 1000)
        return res

    return timed


# ---------------------------------------------------------------------------
# The constructible universe for the census
# ---------------------------------------------------------------------------

# Structural paths only (no Cayley tables), so the census carries its own cap.
CENSUS_CAP = 20000


def dihedral_normal_orders(m: int) -> list[int]:
    """Normal-subgroup orders of the dihedral group of order 2m: every
    subgroup of the rotation C_m, the whole group, and (for even m) the two
    index-2 dihedral subgroups."""
    extra = [m, m] if m % 2 == 0 else []
    # the divisors of m are those of 2m that divide m, all at most m
    return [d for d in _divisors(2 * m) if m % d == 0] + extra + [2 * m]


def _connected(reach: list[int]) -> bool:
    """Whether the primes r | b, each joined to the primes of its entry of
    reach, are linked into one component: the entries are merged with gcd
    and lcm while one shares a prime with the merged product, and every
    entry must then be in it (an entry 1 joins nothing)."""
    merged = reach[0]
    for _ in reach:  # each pass joins one more entry until none is left to join
        for x in reach:
            if math.gcd(x, merged) > 1:
                merged = math.lcm(merged, x)
    return 1 not in reach and merged == math.lcm(*reach)


def _split_metacyclic_specs(n: int, *, indecomposable: bool = False) -> list[tuple[int, int, int]]:
    """All canonical (a, b, t) with ab = n, gcd(a,b)=1, t^b=1 mod a and t
    fixing no prime power of a, sorted.  With indecomposable, only the specs
    whose action graph is connected (see census_universe).

    The action graph joins each r^k || b to the q || a with t^(b/r^k) != 1
    mod q, the primes of a // gcd(a, t^(b/r^k) - 1).  A twist fixing no q
    joins every q, so the graph is connected iff these entries link all the
    r.  It lies in the kernel graph of a, which joins r to the q = p^k with
    r | p - 1, so a kernel whose r are not linked there is skipped whole.  A
    kernel with an isolated q is not, but then gcd(b, p - 1) = 1 and
    twist_classes returns no twist for it.
    """
    # a kernel a prime to b = n / a is a product of prime powers q || n; a
    # twist fixes the 2-part of an even a, as b is odd, so none holds 2
    fac = factorize(n)
    kernels = [1]
    for p, k in fac:
        if p != 2:
            kernels += [a * p**k for a in kernels]
    kernels.sort()
    out = []
    for a in kernels:
        b = n // a
        if a < 3 or b < 2:
            continue
        if indecomposable:
            rks = [(r, r**k) for r, k in fac if b % r == 0]
            kernel_reach = [math.prod(p**k for p, k in fac if a % p == 0 and (p - 1) % r == 0) for r, _ in rks]
            if not _connected(kernel_reach):
                continue
        for t, _ in twist_classes(a, b, nontrivial=True):
            if indecomposable and not _connected([a // math.gcd(a, pow(t, b // rk, a) - 1) for _, rk in rks]):
                continue
            out.append((a, b, t))
    return out


def _dicyclic_report(m: int) -> LeinsterReport:
    """Dic{m} for odd m, which is SD(m,4,m-1)."""
    return report_from_orders(f"Dic{m}", 4 * m, split_metacyclic_normal_orders(m, 4, m - 1))


def _offer(pool: dict, priority: int, rep: LeinsterReport) -> None:
    """Keep rep unless its fingerprint, the sorted normal orders, already has
    a smaller (priority, label).  The winner does not depend on offer order."""
    held = pool.get(rep.normal_orders)
    if held is None or (priority, rep.label) < held[:2]:
        pool[rep.normal_orders] = (priority, rep.label, rep)


def census_universe(bound: int) -> tuple[int, list[LeinsterReport], list[int]]:
    """One ascending pass over the orders n <= bound of the constructible
    universe, from normal orders alone (no Cayley table): cyclic, dihedral,
    dicyclic, A4, squarefree, split metacyclic, and coprime products of these.

    Returns the number of distinct fingerprints, the Leinster hits sorted by
    (order, label), and the squarefree orders whose enumeration disagrees
    with Holder's count.  A fingerprint ends in the group order, so each
    order's pool is settled before the next one starts.

    A fingerprint's winner is its smallest (priority, label), the families
    ranking cyclic 0, D 1, Dic 2, A4 3, squarefree 4, coprime product 5,
    split metacyclic 6.  An offer that provably loses to one still made
    would change nothing, so it is not built:
    - the other named groups of the corpus: S3 is D6; Dic3, Dic5, Dic7,
      D12 and C28 are offered under the same label at rank 0 to 2; and
      SD(7,8,6) is a spec that no other offer at order 56 matches;
    - specs and products at squarefree orders, where every group is one of
      the descriptors;
    - the cyclic descriptor and cyclic x cyclic products, which are C{n};
    - Dic{m} for even m, whose fingerprint is that of D{4m};
    - the descriptor SF(a,2,a-1) and the spec SD(a,2,a-1), which are D{2a},
      and the spec SD(a,4,a-1), which is Dic{a} (a is odd);
    - a spec whose twist fixes a prime power q of a, which is
      SD(a/q, b, t) x C_q and is offered by the products;
    - above bound/2, a decomposable spec.  A spec (a, b, t) has an action
      graph on the prime powers q || a and the primes r | b, with an edge
      q - r when r divides the order of t mod q.  When it is disconnected,
      the group is (C_a1 x| C_b1) x (C_a2 x| C_b2) for one connected block
      and the rest: coprime orders o1, o2 <= n/2, each side a spec fixing no
      prime power, a descriptor or a cyclic group, so its fingerprint is in
      factors[o1] and factors[o2] and the products offer the spec's
      fingerprint at rank 5.  factors[o] is taken before the products of
      order o are offered, so a decomposable spec stands in for its product
      there; the rule holds only where no winner is kept as a factor, at
      2n > bound.  _split_metacyclic_specs tests connectivity with gcd.
    """
    if bound < 1:
        raise InputError(f"census bound must be >= 1, got {bound}")
    if bound > CENSUS_CAP:
        raise CapacityError(f"census bound {bound} exceeds the capacity {CENSUS_CAP}")

    # base winners by order: the factors of the products
    factors: dict[int, list[LeinsterReport]] = {}
    size = 0
    hits: list[LeinsterReport] = []
    holder_mismatch: list[int] = []
    for n in range(2, bound + 1):
        pool: dict[tuple, tuple[int, str, LeinsterReport]] = {}
        _offer(pool, 0, analyze_cyclic(n))
        if n % 2 == 0 and n >= 4:
            _offer(pool, 1, report_from_orders(f"D{n}", n, dihedral_normal_orders(n // 2)))
        if n % 8 == 4 and n >= 12:  # Dic{m} for even m has the fingerprint of D{4m}
            _offer(pool, 2, _dicyclic_report(n // 4))
        if n == 12:  # A4 is the one named group no family offers
            _offer(pool, 3, report_from_orders("A4", 12, [1, 4, 12]))
        squarefree = is_squarefree(n)
        if squarefree:
            descs = enumerate_squarefree(n)
            # the squarefree enumeration must agree with Holder's count
            if len(descs) != holder_count(n):
                holder_mismatch.append(n)
            for d in descs:
                # b = 1 is C{n}, and b = 2 with t = -1 is D{n}
                if d.b > 1 and not (d.b == 2 and d.t == d.a - 1):
                    _offer(pool, 4, analyze_descriptor(d))
        else:
            specs = _split_metacyclic_specs(n, indecomposable=2 * n > bound)
            for a, b, t in specs:
                # t = -1 makes SD(a,2,t) the D{n} and SD(a,4,t) the Dic{a} above
                if not (t == a - 1 and b in (2, 4)):
                    _offer(pool, 6, analyze_split_metacyclic(a, b, t))
        if 2 * n <= bound:
            # C{n} was offered first and nothing displaces it, so it leads
            factors[n] = [rep for _, _, rep in pool.values()]

        # coprime products (cyclic factors go last in the label); these rank
        # below the squarefree descriptors, which is why none is built at a
        # squarefree order, and above the raw split-metacyclic labels, so
        # that e.g. the Dic7xC13 name wins over an isomorphic SD(...)
        for o1 in () if squarefree else _divisors(n):
            o2 = n // o1
            if o1 >= o2:
                break
            if o1 == 1 or math.gcd(o1, o2) != 1:
                continue
            (c1, *rest1), (c2, *rest2) = factors[o1], factors[o2]
            for r1 in rest1:
                _offer(pool, 5, analyze_coprime_product(r1, c2))
                for r2 in rest2:
                    _offer(pool, 5, analyze_coprime_product(r1, r2))
            for r2 in rest2:  # C{o1}xC{o2} is C{n}
                _offer(pool, 5, analyze_coprime_product(r2, c1))

        size += len(pool)
        hits += sorted((rep for _, _, rep in pool.values() if rep.is_leinster), key=lambda r: r.label)
    return size, hits, holder_mismatch


def _engine_agrees(rep: LeinsterReport) -> bool:
    """Rebuild the group from its label and compare the engine's normal
    orders with the structural ones; an unparseable label disagrees."""
    try:
        G = constructors.build(rep.label)
    except InputError:
        return False
    return analyze(G).normal_orders == rep.normal_orders


@_timed
def cmd_census(bound: int) -> ClaimResult:
    universe_size, hits, holder_mismatch = census_universe(bound)
    # every hit small enough for a Cayley table is re-checked on the engine
    engine_mismatch = [
        r.label for r in hits if r.order <= TABLE_CAP and not _engine_agrees(r)
    ]
    p3q_hits = [
        r.label
        for r in hits
        if sorted(e for _, e in factorize(r.order)) in ([1, 3], [4])
    ]
    note = (
        "partial (candidate families only; "
        + (", ".join(p3q_hits) if p3q_hits else "none")
        + " found Leinster, no other hits)"
    )
    evidence = {
        "bound": bound,
        "universe_size": universe_size,
        "hits": [r.to_json() for r in hits],
        "p3q_coverage": note,
    }
    if holder_mismatch:
        evidence["holder_mismatch"] = holder_mismatch
    if engine_mismatch:
        evidence["engine_mismatch"] = engine_mismatch
    return ClaimResult(
        claim_id=f"census-{bound}",
        # a listing has no counterexample; an empty universe (bound 1) checked
        # nothing, and a failed cross-check leaves the scope unsound
        status=_status([], universe_size and not holder_mismatch and not engine_mismatch),
        statement="list all groups with sigma = 2|G| in the constructible universe",
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Exhaustive squarefree pqrs verification
# ---------------------------------------------------------------------------

ENGINE_VALIDATION_CAP = 600  # orders up to here are re-checked on the explicit engine


def pqrs_orders(bound: int) -> list[int]:
    """The products of four distinct primes up to bound.  The scan calls the
    uncached factorize: the bounded cache would still fill with maxsize
    factorizations the claim never reads (+0.23 MB peak RSS at 2 500)."""
    return [n for n in range(2, bound + 1) if [e for _, e in factorize.__wrapped__(n)] == [1, 1, 1, 1]]


def analyze_pqrs_order(n: int) -> dict:
    """Structural analysis of every group of one squarefree 4-prime order,
    with an explicit-engine cross-check below the validation cap."""
    descs = enumerate_squarefree(n)
    expected = holder_count(n)
    reports = [analyze_descriptor(d) for d in descs]
    hits = [r.to_json() for r in reports if r.is_leinster]
    engine_ok = None
    if n <= ENGINE_VALIDATION_CAP:
        engine_ok = all(
            analyze(realize(d)).normal_orders == r.normal_orders
            for d, r in zip(descs, reports)
        )
    taus = [r.tau for r in reports]
    return {
        "order": n,
        "groups": len(descs),
        "holder_count": expected,
        "count_matches": len(descs) == expected,
        "tau_min": min(taus),
        "tau_max": max(taus),
        "leinster_hits": hits,
        "engine_validated": engine_ok,
    }


@_timed
def cmd_verify_pqrs(bound: int, jobs: int = 1) -> ClaimResult:
    if bound < 1:
        raise InputError(f"pqrs bound must be >= 1, got {bound}")
    orders = pqrs_orders(bound)
    if jobs > 1 and len(orders) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, os.cpu_count() or 1)
        engine = [n for n in orders if n <= ENGINE_VALIDATION_CAP]
        rest = orders[len(engine) :]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # the engine re-checks are most of the work, so one per task; the
            # cheap rest go about four chunks per worker, not one order a task
            head = pool.map(analyze_pqrs_order, engine)
            tail = pool.map(analyze_pqrs_order, rest, chunksize=max(1, len(rest) // (4 * workers)))
            per_order = [*head, *tail]
    else:
        per_order = [analyze_pqrs_order(n) for n in orders]
    hits = [h for d in per_order for h in d["leinster_hits"]]
    # Holder's count and the engine re-check cross-check the enumeration: as
    # in the census, a disagreement leaves the claim partial; only a hit refutes
    sound = all(d["count_matches"] and d["engine_validated"] in (True, None) for d in per_order)
    return ClaimResult(
        claim_id=f"pqrs-{bound}",
        status=_status(hits, per_order and sound),
        statement=(
            "no group whose order is a product of four distinct primes "
            "has sigma = 2|G|; any hypothetical hit would need between 8 "
            "and 10 normal subgroups"
        ),
        evidence={
            "bound": bound,
            "orders_checked": len(per_order),
            "total_groups": sum(d["groups"] for d in per_order),
            "leinster_hits": hits,
            "per_order": per_order,
        },
    )


# ---------------------------------------------------------------------------
# Candidate-family search for orders p^2 q r
# ---------------------------------------------------------------------------

def p2qr_candidates(p: int, q: int, r: int) -> list[LeinsterReport]:
    """Reports for the constructible candidate families of order p^2*q*r.

    This is explicitly not a full isomorphism-class enumeration; it covers
    direct products of squarefree-order groups with C_{p^2} or C_p x C_p,
    dicyclic-times-cyclic (p = 2), and split semidirect products with acting
    order p^2, times a cyclic complement.
    """
    pool: dict[tuple, tuple[int, str, LeinsterReport]] = {}
    qr = q * r

    # abelian p-part times any group of order qr; C_p x C_p has p + 1
    # subgroups of order p, all normal
    cp2 = analyze_cyclic(p * p)
    cpxcp = report_from_orders(f"C{p}xC{p}", p * p, [1] + [p] * (p + 1) + [p * p])
    for d in enumerate_squarefree(qr):
        rep = analyze_descriptor(d)
        _offer(pool, 2, analyze_coprime_product(rep, cp2))
        _offer(pool, 2, analyze_coprime_product(rep, cpxcp))

    # dicyclic times cyclic (the 2-part of a dicyclic group is 4)
    if p == 2:
        for m, c in ((q, r), (r, q), (qr, 1)):
            _offer(pool, 0, analyze_coprime_product(_dicyclic_report(m), analyze_cyclic(c)))

    # split semidirect with acting order p^2, times a cyclic complement
    pp = p * p
    for a in (q, r, qr):
        c = qr // a
        for t, _ in twist_classes(a, pp):
            _offer(pool, 1, analyze_coprime_product(analyze_split_metacyclic(a, pp, t), analyze_cyclic(c)))

    return [rep for _, _, rep in sorted(pool.values(), key=lambda held: held[:2])]


@_timed
def cmd_verify_p2qr(prime_bound: int) -> ClaimResult:
    if prime_bound < 2:
        raise InputError(f"prime bound must be >= 2, got {prime_bound}")
    primes = primes_upto(prime_bound)
    hits: list[LeinsterReport] = []
    candidates = 0
    for p, q, r in itertools.combinations(primes, 3):
        reps = p2qr_candidates(p, q, r)
        candidates += len(reps)
        hits.extend(rep for rep in reps if rep.is_leinster)
    hits.sort(key=lambda h: (h.order, h.label))
    expected = sorted(
        label
        for label, needed in (("Dic5xC19", (2, 5, 19)), ("Dic7xC13", (2, 7, 13)))
        if all(x <= prime_bound for x in needed)
    )
    got = sorted(h.label for h in hits)
    return ClaimResult(
        claim_id=f"p2qr-{prime_bound}",
        # a hit outside expected refutes; a missing one is a miss of the search,
        # and a prime bound below 5 leaves no triple p < q < r to search
        status=_status(set(got) - set(expected), candidates and got == expected),
        statement=(
            "within the constructible candidate families, the only groups "
            "of order p^2*q*r with sigma = 2|G| are Dic5xC19 and Dic7xC13"
        ),
        evidence={
            "prime_bound": prime_bound,
            "candidates_checked": candidates,
            "hits": [h.to_json() for h in hits],
            "expected": expected,
            "coverage": "partial: candidate families only, "
            "not a full isomorphism-class enumeration of order p^2*q*r",
        },
    )


# ---------------------------------------------------------------------------
# Theorem property suites
# ---------------------------------------------------------------------------

def corpus_groups(corpus_bound: int) -> Iterator[GroupTable]:
    """The property-suite corpus, one group at a time: every squarefree-order
    group up to the bound, realized explicitly, then the named families."""
    for n in range(1, corpus_bound + 1):
        if is_squarefree(n):
            yield from map(realize, enumerate_squarefree(n))
    for label in NAMED_FAMILY_LABELS:
        yield constructors.build(label)


class _Facts:
    """What the suites share about one corpus group, each computed at most
    once, by the first suite that asks."""

    def __init__(self, G: GroupTable):
        self.G = G

    @cached_property
    def normals(self) -> list[np.ndarray]:
        return normal_subgroups(self.G)

    @cached_property
    def derived(self) -> np.ndarray:
        return derived_subgroup(self.G)


def _walk(groups: Iterable[GroupTable], suites: list) -> list[ClaimResult]:
    """One pass over the groups, offering each to every suite's step.  The
    walk lets go of a group once the next one is drawn; only a suite's own
    state may keep it.  A claim's elapsed_ms is the time of its own steps
    and result."""
    spent = [0.0] * len(suites)
    for G in groups:
        facts = _Facts(G)
        for i, suite in enumerate(suites):
            t0 = time.monotonic()
            suite.step(facts)
            spent[i] += time.monotonic() - t0
    results = [_timed(suite.result)() for suite in suites]
    for res, s in zip(results, spent):
        res.elapsed_ms += int(s * 1000)
    return results


def _is_abelian_subset(G: GroupTable, ids: np.ndarray) -> bool:
    sub = G.table[np.ix_(ids, ids)]
    return bool((sub == sub.T).all())


def _is_cyclic(G: GroupTable) -> bool:
    # g generates G iff g^(n/p) != e for every prime p dividing n = |G|
    n = G.order
    gen = np.ones(n, dtype=bool)
    for p in prime_factors(n):
        gen &= _power_map(G, n // p) != G.identity
    return bool(gen.any())


class _Multiplicativity:
    """Keeps the groups of order 2..60 as the walk passes them, then checks
    the first 60 coprime pairs among them on the engine."""

    def __init__(self) -> None:
        self.small: list[_Facts] = []

    def step(self, facts: _Facts) -> None:
        if 1 < facts.G.order <= 60:
            self.small.append(facts)

    def result(self) -> ClaimResult:
        pairs = [
            (f1, f2)
            for f1, f2 in itertools.combinations(self.small, 2)
            if math.gcd(f1.G.order, f2.G.order) == 1 and f1.G.order * f2.G.order <= 600
        ][:60]
        failures = []
        for f1, f2 in pairs:
            r1, r2 = (report_from_orders(f.G.label, f.G.order, [N.size for N in f.normals]) for f in (f1, f2))
            direct = analyze(direct_product(f1.G, f2.G))
            # sigma and tau are read off the normal orders, so these decide all three
            if direct.normal_orders != analyze_coprime_product(r1, r2).normal_orders:
                failures.append((f1.G.label, f2.G.label))
        return ClaimResult(
            claim_id="thm-sigma-tau-multiplicative",
            status=_status(failures, len(pairs) >= 50),
            statement="sigma and tau are multiplicative over direct products of coprime order",
            evidence={"pairs_checked": len(pairs), "failures": failures},
        )


class _Counting:
    """A suite that counts the instances its steps check and lists their
    failures in corpus order; a subclass sets claim_id, statement and
    count_key and defines step."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list = []

    def result(self) -> ClaimResult:
        return ClaimResult(
            claim_id=self.claim_id,
            status=_status(self.failures, self.checked),
            statement=self.statement,
            evidence={self.count_key: self.checked, "failures": self.failures},
        )


class _PrimeIndexAbelian(_Counting):
    claim_id = "thm-prime-index-abelian"
    statement = (
        "a non-abelian group with an abelian normal subgroup of prime "
        "index p has |G| = p * |derived subgroup| * |center|"
    )
    count_key = "instances_checked"

    def step(self, facts: _Facts) -> None:
        G = facts.G
        z = center(G).size
        if z == G.order:
            return  # the identity below requires a non-abelian group
        d = facts.derived.size
        for N in facts.normals:
            idx = G.order // N.size  # 1 for N = G, which is not prime
            if is_prime(idx) and _is_abelian_subset(G, N):
                self.checked += 1
                if G.order != idx * d * z:
                    self.failures.append(G.label)


class _NormalComplement(_Counting):
    claim_id = "thm-normal-complement"
    statement = "a cyclic Sylow subgroup at the smallest prime divisor has a normal complement"
    count_key = "instances_checked"

    def step(self, facts: _Facts) -> None:
        G = facts.G
        if G.order == 1:
            return
        p = prime_factors(G.order)[0]
        syl = sylow(G, p)
        if not any(G.element_order(g) == syl.size for g in syl.tolist()):
            return  # Sylow subgroup not cyclic
        self.checked += 1
        if G.order // syl.size not in {N.size for N in facts.normals}:
            self.failures.append(G.label)


class _CyclicQuotients(_Counting):
    """G/N is abelian iff G' <= N, and then it is a quotient of G/G'.  A
    quotient of a cyclic group is cyclic, so the one test of G/G', itself
    such a quotient, decides them all: each N holding G' counts as checked,
    and a non-cyclic G/G' is one failure (G.label, |G'|), the smallest
    failing quotient.  G/1 is G itself, so it needs no quotient table."""

    claim_id = "thm-cyclic-quotient"
    statement = "when sigma(G) <= 2|G|, every abelian quotient of G is cyclic"
    count_key = "quotients_checked"

    def step(self, facts: _Facts) -> None:
        G = facts.G
        if sum(N.size for N in facts.normals) > 2 * G.order:
            return
        derived = facts.derived
        in_derived = np.zeros(G.order, dtype=bool)
        in_derived[derived] = True
        self.checked += sum(1 for N in facts.normals if np.count_nonzero(in_derived[N]) == derived.size)
        if not _is_cyclic(quotient(G, derived) if derived.size > 1 else G):
            self.failures.append((G.label, derived.size))


def property_suites(groups: Iterable[GroupTable]) -> list[ClaimResult]:
    """The four theorem property suites in one pass over the groups, which
    may be a generator: multiplicativity, prime-index abelian, normal
    complement, cyclic quotients."""
    return _walk(groups, [_Multiplicativity(), _PrimeIndexAbelian(), _NormalComplement(), _CyclicQuotients()])


@_timed
def claim_odd_normal_parity(census_hits: list[LeinsterReport]) -> ClaimResult:
    failures = [r.label for r in census_hits if r.odd_normal_count % 2 != 0]
    return ClaimResult(
        claim_id="rem-odd-normal-parity",
        status=_status(failures, len(census_hits)),
        statement=(
            "every group with sigma = 2|G| has an even number of "
            "odd-order normal subgroups"
        ),
        evidence={"groups_checked": len(census_hits), "failures": failures},
    )


@_timed
def claim_tau_gt_7(census_hits: list[LeinsterReport]) -> ClaimResult:
    checked = 0
    failures = []
    for r in census_hits:
        if sum(e for _, e in factorize(r.order)) != 4:
            continue
        if r.label == "SD(7,8,6)":
            continue
        checked += 1
        if r.tau <= 7:
            failures.append(r.label)
    return ClaimResult(
        claim_id="thm-tau-gt-7",
        status=_status(failures, checked),
        statement=(
            "a group with sigma = 2|G| whose order is a product of four "
            "primes, other than SD(7,8,6), has more than 7 normal subgroups"
        ),
        evidence={"groups_checked": checked, "failures": failures},
    )


def _cyclic_sigmas(bound: int) -> list[int]:
    """sigma(C_n) at index n <= bound, by one sieve: C_n has one normal
    subgroup of each order d | n, so each d adds d to every multiple of d."""
    sigma = [0] * (bound + 1)
    for d in range(1, bound + 1):
        sigma[d::d] = [s + d for s in sigma[d::d]]
    return sigma


@_timed
def claim_cyclic_perfect() -> ClaimResult:
    bound = 10000
    sigma = _cyclic_sigmas(bound)
    failures = [n for n in range(1, bound + 1) if (sigma[n] == 2 * n) != is_perfect(n)]
    return ClaimResult(
        claim_id="thm-cyclic-perfect",
        status=_status(failures, bound),
        statement="a cyclic group attains sigma = 2n exactly when n is a perfect number",
        evidence={"bound": bound, "failures": failures},
    )


# -- equation and bound claims ----------------------------------------------

@_timed
def claim_equation(eq_id: str) -> ClaimResult:
    eq = EQUATIONS[eq_id]
    hits = scan_equation(eq, eq.bounds)
    oracle_hits = scan_equation_bruteforce(eq, eq.oracle_bounds)
    fast_at_oracle = scan_equation(eq, eq.oracle_bounds)
    return ClaimResult(
        claim_id=f"eq:{eq_id}",
        # a disagreeing oracle is a failed cross-check, not a counterexample
        status=_status(hits != list(eq.expected), oracle_hits == fast_at_oracle),
        statement=f"prime solutions of the registered equation {eq_id} ({eq.note})",
        evidence={
            "bounds": eq.bounds,
            "solutions": [list(t) for t in hits],
            "expected": [list(t) for t in eq.expected],
            "oracle_bounds": eq.oracle_bounds,
            "oracle_agrees": oracle_hits == fast_at_oracle,
        },
    )


@_timed
def claim_bound(bound_id: str) -> ClaimResult:
    b = BOUNDS[bound_id]
    total, ok = check_bound(b)
    return ClaimResult(
        claim_id=f"bound:{bound_id}",
        status=_status(not ok, True),
        statement=f"the registered fraction bound {bound_id} sums strictly below 1 ({b.note})",
        evidence={
            "terms": [str(t) for t in b.terms],
            "sum": str(total),
            "strictly_below_one": ok,
        },
    )


def cmd_verify_theorems(corpus_bound: int = 200) -> list[ClaimResult]:
    """Run every registered claim: theorem property suites over the corpus,
    the equation scanners, and the fraction bounds."""
    if corpus_bound < 0:
        raise InputError(f"corpus bound must be >= 0, got {corpus_bound}")
    if corpus_bound > TABLE_CAP:
        # checked before building: every corpus group gets a Cayley table
        raise CapacityError(f"corpus bound {corpus_bound} exceeds the engine capacity {TABLE_CAP}")
    results = property_suites(corpus_groups(corpus_bound))
    _, hits, _ = census_universe(400)
    results += [
        claim_odd_normal_parity(hits),
        claim_tau_gt_7(hits),
        claim_cyclic_perfect(),
    ]
    results.extend(claim_equation(eq_id) for eq_id in sorted(EQUATIONS))
    results.extend(claim_bound(bid) for bid in sorted(BOUNDS))
    return results


def list_claim_ids() -> list[str]:
    ids = [
        "census-<bound>",
        "pqrs-<bound>",
        "p2qr-<prime-bound>",
        "thm-sigma-tau-multiplicative",
        "thm-prime-index-abelian",
        "thm-normal-complement",
        "thm-cyclic-quotient",
        "thm-tau-gt-7",
        "thm-cyclic-perfect",
        "rem-odd-normal-parity",
    ]
    ids.extend(f"eq:{eq_id}" for eq_id in sorted(EQUATIONS))
    ids.extend(f"bound:{bid}" for bid in sorted(BOUNDS))
    return ids
