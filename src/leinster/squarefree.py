"""Enumeration of all groups of a given squarefree order.

Every group of squarefree order is a split metacyclic extension
C_a x| C_b with gcd(a, b) = 1 and a faithful twist (a classical fact, not
re-proved here; the Holder counting formula is kept alongside as an
independent safety net, and the two are required to agree).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import constructors
from .errors import InputError
from .groups import GroupTable
from .numtheory import _divisors, divisors, factorize, is_squarefree, order_divides, order_is_exactly, prime_factors


@dataclass(frozen=True, order=True)
class MetacyclicDescriptor:
    """Canonical (a, b, t) data for one isomorphism class of squarefree order.

    a is the cyclic kernel order, b the acting cyclic order, t the twist.
    The twist acts faithfully (its multiplicative order mod a is exactly b),
    and is canonicalized to the minimum of {t^k mod a : gcd(k, b) = 1}.
    b = 1 encodes the cyclic group, with t = 1.
    """

    a: int
    b: int
    t: int

    def __post_init__(self):
        n = self.a * self.b
        if not is_squarefree(n):
            raise InputError(f"order {n} is not squarefree")
        if math.gcd(self.a, self.b) != 1:
            raise InputError(f"need gcd(a, b) = 1, got ({self.a}, {self.b})")
        if self.b == 1:
            if self.t != 1:
                raise InputError("the cyclic descriptor must carry t = 1")
            return
        if math.gcd(self.t, self.a) != 1 or not (1 <= self.t < self.a):
            raise InputError(f"twist {self.t} is not a reduced unit mod {self.a}")
        if not order_is_exactly(self.t, self.a, self.b):
            raise InputError(
                f"twist {self.t} does not act faithfully: order mod {self.a} != {self.b}"
            )
        if self.t != canonical_twist(self.a, self.b, self.t):
            raise InputError(f"twist {self.t} is not in canonical form")

    @property
    def order(self) -> int:
        return self.a * self.b

    @property
    def label(self) -> str:
        """The group's constructors label."""
        return f"SF({self.a},{self.b},{self.t})"

    def pretty_label(self) -> str:
        """Human-friendly structure string, e.g. S3xC5 or D30."""
        if self.b == 1:
            return f"C{self.a}"
        # split off the primes of a on which the twist acts trivially; they
        # form a central direct factor
        trivial = [p for p in prime_factors(self.a) if self.t % p == 1]
        a0 = math.prod(trivial) if trivial else 1
        a1 = self.a // a0
        t1 = self.t % a1
        if (a1, self.b) == (3, 2):
            core = "S3"
        elif self.b == 2 and t1 == a1 - 1:
            core = f"D{2 * a1}"
        else:
            core = f"SF({a1},{self.b},{t1})"
        return f"{core}xC{a0}" if a0 > 1 else core


def canonical_twist(a: int, b: int, t: int) -> int:
    """Minimum of the power orbit {t^k mod a : gcd(k, b) = 1}."""
    return min(pow(t, k, a) for k in range(1, b + 1) if math.gcd(k, b) == 1)


@lru_cache(maxsize=256)
def _generator_mask(m: int) -> bytes:
    """Entry j - 1 is 1 when gcd(j, m) = 1, for j = 1..m: which powers t^j
    of a twist of order m generate <t>."""
    mask = bytearray([1]) * m
    for r in prime_factors(m):
        mask[r - 1 :: r] = bytes(m // r)
    return bytes(mask)


@lru_cache(maxsize=8192)
def _unit_components(a: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p^k, p - 1, w, e) for each odd prime power p^k || a.

    w has order exactly p - 1 mod p^k (a primitive root mod p raised to
    p^(k-1) loses the p-part of its order), and the CRT idempotent e is
    1 mod p^k and 0 mod a / p^k, so a residue c mod p^k lifts to
    1 + (c - 1) * e mod a, which is 1 at every other prime power.
    """
    out = []
    for p, k in factorize(a):
        if p == 2:
            continue  # b is odd, so only t = 1 mod 2^k solves t^b = 1
        q = p**k
        cofactors = [(p - 1) // ell for ell in prime_factors(p - 1)]
        g = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))
        rest = a // q
        out.append((q, p - 1, pow(g, q // p, q), rest * pow(rest, -1, q) % a))
    return tuple(out)


def twist_classes(a: int, b: int, *, nontrivial: bool = False) -> list[tuple[int, int]]:
    """(canonical twist, order) of every orbit {t^k : gcd(k, b) = 1} of the
    twists t != 1 with t^b = 1 mod a, ascending, for gcd(a, b) = 1.  With
    nontrivial, only the twists with t != 1 mod every prime power of a.

    The solutions form the product over odd p^k || a of the subgroups of
    order gcd(b, p - 1) of (Z/p^k)^* (p does not divide b), assembled by CRT.
    A nontrivial twist skips the identity of every factor, so none exists
    when a is even (b is odd, so t = 1 mod 2^k) or when some gcd(b, p - 1)
    is 1; either way the work is proportional to the kept output.  An orbit
    is the set of generators of <t>; walking the solutions in ascending
    order, the first member met of each orbit is its minimum, i.e.
    canonical_twist(a, b, t).
    """
    if math.gcd(a, b) != 1:
        raise InputError(f"need gcd(a, b) = 1, got ({a}, {b})")
    comps = _unit_components(a)
    orders = [math.gcd(b, p1) for _, p1, _, _ in comps]
    if nontrivial and (a < 3 or a % 2 == 0 or 1 in orders):
        return []
    sols = [1]
    for (q, p1, w, e), d in zip(comps, orders):
        if d > 1:
            h = pow(w, p1 // d, q)  # generates the subgroup of order d
            lifts = [(pow(h, i, q) - 1) * e for i in range(nontrivial, d)]
            sols = [(s + x) % a for s in sols for x in lifts]
    sols.sort()
    if not nontrivial:
        del sols[0]  # t = 1
    out = []
    seen = set()
    for t in sols:
        if t in seen:
            continue
        powers = [t]
        x = t
        while x != 1:
            x = x * t % a
            powers.append(x)
        m = len(powers)
        seen.update(itertools.compress(powers, _generator_mask(m)))
        out.append((t, m))
    return out


@lru_cache(maxsize=1024)
def enumerate_squarefree(n: int) -> tuple[MetacyclicDescriptor, ...]:
    """One canonical descriptor per isomorphism class of order n, by (a, t)."""
    if n < 1 or not is_squarefree(n):
        raise InputError(f"{n} is not a squarefree positive integer")
    found = []
    for a in _divisors(n):
        b = n // a
        if b == 1:
            found.append(MetacyclicDescriptor(a, 1, 1))
        elif math.lcm(*[p - 1 for p, _ in factorize(a)]) % b == 0:
            # a faithful twist has order exactly b, so each prime r | b divides
            # some p - 1, p | a: lcm_p gcd(b, p - 1) = b
            found.extend(MetacyclicDescriptor(a, b, t) for t, m in twist_classes(a, b) if m == b)
    return tuple(found)


def holder_count(n: int) -> int:
    """Number of isomorphism classes of groups of squarefree order n,
    by the classical counting formula (independent of the enumeration)."""
    if n < 1 or not is_squarefree(n):
        raise InputError(f"{n} is not a squarefree positive integer")
    total = 0
    for d in divisors(n):
        m = n // d
        prod = 1
        for p in prime_factors(m):
            c = sum(1 for q in prime_factors(d) if q % p == 1)
            prod *= (p**c - 1) // (p - 1)
            if prod == 0:
                break
        total += prod
    return total


def realize(desc: MetacyclicDescriptor) -> GroupTable:
    """Explicit GroupTable for a descriptor, labelled with its pretty label."""
    g = constructors.build(desc.label)
    g.label = desc.pretty_label()
    return g


def split_metacyclic_normal_orders(a: int, b: int, t: int) -> list[int]:
    """Sorted multiset of normal-subgroup orders of x^a = y^b = 1,
    y x y^-1 = x^t with gcd(a, b) = 1 (faithfulness not required).

    The normal subgroups are exactly <x^d, y^e> for e | b and
    d | gcd(a, t^e - 1): coprimality of a and b pins the x-coset of any
    normal subgroup to the trivial one, and d | t^e - 1 is what conjugation
    by x demands.
    """
    if math.gcd(a, b) != 1:
        raise InputError(f"need gcd(a, b) = 1, got ({a}, {b})")
    t %= a
    if not order_divides(t, a, b):
        raise InputError(f"twist {t} does not satisfy t^{b} = 1 mod {a}")
    orders = list(_divisors(a))  # f = 1: t^b = 1, so every subgroup of <x> is normal
    for f in _divisors(b)[1:]:
        g = math.gcd(a, pow(t, b // f, a) - 1)
        # a / d for d | g is (a / g) * (g / d), and g / d runs over the divisors of g
        base = a // g * f
        orders += [base * d for d in _divisors(g)]
    orders.sort()
    return orders
