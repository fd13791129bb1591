"""Exact integer/rational helpers: primes, divisor sums, multiplicative
orders, and the registries of prime-variable equations and fraction bounds
used by the verification claims.

Everything here is exact arithmetic; no floats anywhere.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InputError

# Scanners guarantee exactness for operands up to 2^63.  The solved forms are
# at most cubic in the scanned variables, so any single bound above 2^21 could
# push intermediates past that width; reject instead of wrapping.
MAX_SCAN_BOUND = 2_000_000
_SCAN_BLOCK = 1 << 16  # sieve entries per int64 block in scan_equation, to bound its temporaries


def _sieve(n: int) -> np.ndarray:
    """A np.uint8 array whose entry k is 1 when k is prime, for 0 <= k <= n; n >= 1."""
    sieve = np.ones(n + 1, dtype=np.uint8)
    sieve[:2] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = 0
    return sieve


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending, as Python ints (simple sieve)."""
    if n < 2:
        return []
    return np.flatnonzero(_sieve(n)).tolist()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# bounded, since no claim reads an old factorization again: at census bound 10 000 it hits
# 163 880 times and misses 22 152 (176 032 and 10 000 with one entry per n; the extra misses
# are small n), and on corpus 300 8 755 and 10 000 at either size (measured in CHANGES.md)
@lru_cache(maxsize=1024)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, exponent), ...), p ascending."""
    if n < 1:
        raise InputError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, as a fresh list."""
    return list(_divisors(n))


# the census asks for the divisors of the same few moduli in a row, so a
# small cache holds them without one entry per n: at bound 10 000 it serves
# 88.7% of the lookups (135 218 of 152 524), each order's own tuple pushing
# out small ones that are asked for again (measured in CHANGES.md, a FOUND line)
@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorize(n):
        layer = divs
        for _ in range(e):  # the divisors so far times p, p^2, ..., p^e
            layer = [d * p for d in layer]
            divs += layer
    divs.sort()
    return tuple(divs)


def divisor_sum(n: int) -> int:
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize(n))


def is_perfect(n: int) -> bool:
    """True when the divisor sum of n equals 2n."""
    if n < 1:
        raise InputError(f"is_perfect needs n >= 1, got {n}")
    return divisor_sum(n) == 2 * n


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for _, e in factorize(n))


def mult_order(t: int, a: int) -> int:
    """Least k >= 1 with t^k = 1 mod a; requires gcd(t, a) = 1."""
    if a < 1:
        raise InputError(f"modulus must be positive, got {a}")
    if math.gcd(t, a) != 1:
        raise InputError(f"mult_order needs gcd(t, a) = 1, got t={t}, a={a}")
    if a == 1:
        return 1
    t %= a
    k = 1
    cur = t
    while cur != 1:
        cur = cur * t % a
        k += 1
    return k


def order_divides(t: int, a: int, b: int) -> bool:
    return pow(t, b, a) == 1 % a


def order_is_exactly(t: int, a: int, b: int) -> bool:
    """True when the multiplicative order of t mod a is exactly b."""
    if pow(t, b, a) != 1 % a:
        return False
    return all(pow(t, b // ell, a) != 1 % a for ell in prime_factors(b)) if b > 1 else True


# ---------------------------------------------------------------------------
# Equation registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationSpec:
    """A prime-variable equation with a solved form for its last variable.

    ``chain`` lists every variable in the strict ascending order the primes
    must satisfy: the ``fixed`` ones first, then the free ones, and last the
    dependent one.  Both callables take their variables positionally, in
    ``chain`` order.  ``solved`` takes ``chain[:-1]`` and returns (numerator,
    denominator) of the dependent variable; the value is admissible only when
    the denominator is strictly positive and divides the numerator.  It is
    plain integer arithmetic, so its last argument may be an int64 array.
    ``unreduced`` takes all of ``chain`` and is the original relation before
    solving, used by the brute-force oracle.

    Its claim scans ``bounds`` and expects exactly the (free..., dependent)
    tuples in ``expected``; the oracle re-checks the smaller ``oracle_bounds``.
    """

    id: str
    fixed: tuple[tuple[str, int], ...]
    chain: tuple[str, ...]
    solved: Callable[..., tuple[int, int]]
    unreduced: Callable[..., bool]
    bounds: dict[str, int]
    oracle_bounds: dict[str, int]
    expected: tuple[tuple[int, ...], ...] = ()
    note: str = ""

    @property
    def free(self) -> tuple[str, ...]:
        return self.chain[len(self.fixed) : -1]

    @property
    def dependent(self) -> str:
        return self.chain[-1]


def _check_bounds(eq: EquationSpec, bounds: dict[str, int]) -> None:
    for name in eq.free + (eq.dependent,):
        if name not in bounds:
            raise InputError(f"missing bound for variable {name!r}")
        if bounds[name] > MAX_SCAN_BOUND:
            raise InputError(
                f"bound {bounds[name]} for {name!r} exceeds the exact-arithmetic "
                f"limit {MAX_SCAN_BOUND}"
            )
        if bounds[name] < 2:
            raise InputError(f"bound for {name!r} must admit at least one prime")


def _ascending(seq: tuple[int, ...]) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def scan_equation(eq: EquationSpec, bounds: dict[str, int]) -> list[tuple[int, ...]]:
    """All prime tuples (free..., dependent) within bounds satisfying eq,
    sorted.  Per head of the other free variables, ``solved`` runs once per
    block of _SCAN_BLOCK sieve entries, on an int64 array of the last free
    variable's primes there; each prime it passes is solved again with
    Python ints, so every hit is exact."""
    _check_bounds(eq, bounds)
    fixed = tuple(value for _, value in eq.fixed)
    top = bounds[eq.dependent]
    *outer, last = eq.free
    flags = _sieve(bounds[last])
    hits = []
    for head in itertools.product(*(primes_upto(bounds[name]) for name in outer)):
        for start in range(0, flags.size, _SCAN_BLOCK):
            primes = np.flatnonzero(flags[start : start + _SCAN_BLOCK]) + start
            num, den = eq.solved(*fixed, *head, primes)
            ok = (den > 0) & (num > 0)
            ok &= num % np.where(ok, den, 1) == 0  # divide only where den > 0
            for p in primes[ok].tolist():
                free = head + (p,)
                num, den = eq.solved(*fixed, *free)
                dep = num // den
                if dep <= top and is_prime(dep) and _ascending(fixed + free + (dep,)):
                    hits.append(free + (dep,))
    return sorted(hits)


def scan_equation_bruteforce(eq: EquationSpec, bounds: dict[str, int]) -> list[tuple[int, ...]]:
    """Independent oracle: every strictly ascending prime tuple within bounds
    tested against the unreduced relation; the solved form is never used."""
    _check_bounds(eq, bounds)
    fixed = tuple(value for _, value in eq.fixed)
    chains: Iterable[tuple[int, ...]] = [fixed] if _ascending(fixed) else []
    for name in eq.free + (eq.dependent,):
        chains = _extended(chains, primes_upto(bounds[name]))
    return sorted(chain[len(fixed) :] for chain in chains if eq.unreduced(*chain))


def _extended(chains: Iterable[tuple[int, ...]], pool: list[int]) -> Iterator[tuple[int, ...]]:
    """Every chain followed by each prime of the ascending pool above its
    last value, lazily, so a strictly ascending chain stays so and the
    nested scans hold one chain per variable, not a list of them."""
    for chain in chains:
        for p in pool[bisect.bisect_right(pool, chain[-1]) if chain else 0 :]:
            yield chain + (p,)


def _build_equations() -> dict[str, EquationSpec]:
    eqs = [
        EquationSpec(
            id="lemma23",
            fixed=(),
            chain=("p", "q", "r"),
            solved=lambda p, q: (1 + (p + 1) * q, q * (p * p - p - 1) - (p + 1)),
            unreduced=lambda p, q, r: p * p * q * r
            == 1 + q + r + p * q + p * r + q * r + p * q * r,
            bounds={"p": 7, "q": 10000, "r": 10000},
            oracle_bounds={"p": 7, "q": 200, "r": 200},
            note="order p^2*q*r, commutator of order q*r, trivial pairwise meet",
        ),
        EquationSpec(
            id="lemma24",
            fixed=(),
            chain=("p", "q", "r"),
            # The unreduced form is the cross-multiplication of the solved
            # form itself, so the oracle checks the same relation.
            solved=lambda p, q: (p * p * q + p * q + p + 1, p * p - p * q - p - 1),
            unreduced=lambda p, q, r: r * (p * p - p * q - p - 1)
            == p * p * q + p * q + p + 1,
            bounds={"p": 7, "q": 10000, "r": 10000},
            oracle_bounds={"p": 7, "q": 200, "r": 200},
            note="order p^2*q*r, commutator of order p*q",
        ),
        EquationSpec(
            id="thm26-noP-a",
            fixed=(),
            chain=("p", "q", "r"),
            solved=lambda p, q: (
                p * p * q + p * q + q + 1,
                p * p * q - p * q - p - q - 1,
            ),
            unreduced=lambda p, q, r: p * p * q * r
            == 1 + q + r + p * r + p * q + q * r + p * p * q + p * q * r,
            bounds={"p": 7, "q": 10000, "r": 10000},
            oracle_bounds={"p": 7, "q": 200, "r": 200},
            note="commutator of order q, no normal subgroup of order p, variant a",
        ),
        EquationSpec(
            id="thm26-noP-b",
            fixed=(),
            chain=("p", "q", "r"),
            solved=lambda p, q: (p * p * q + p * q + q + 1, p * p * q - p * q - q - 1),
            unreduced=lambda p, q, r: p * p * q * r
            == 1 + q + r + p * q + q * r + p * p * q + p * q * r,
            bounds={"p": 7, "q": 10000, "r": 10000},
            oracle_bounds={"p": 7, "q": 200, "r": 200},
            # (2, 3, 11) solves the bare equation; the corresponding order 132
            # is ruled out group-theoretically (no group of that order attains
            # the required normal-subgroup pattern), so the arithmetic
            # solution is expected and harmless.
            expected=((2, 3, 11),),
            note="commutator of order q, no normal subgroup of order p, variant b",
        ),
        EquationSpec(
            id="thm26-final",
            fixed=(("p", 2),),
            chain=("p", "q", "r"),
            solved=lambda p, q: (7 * q + 3, q - 3),
            unreduced=lambda p, q, r: q * r == 3 + 7 * q + 3 * r,
            bounds={"q": 1000000, "r": 1000000},
            oracle_bounds={"q": 1000, "r": 1000},
            expected=((5, 19), (7, 13)),
            note="p = 2 forced; the two solutions give the order-380 and order-364 hits",
        ),
        EquationSpec(
            id="rem37-s1",
            fixed=(("p", 2),),
            chain=("p", "q", "r", "s"),
            solved=lambda p, q, r: (1 + r + 3 * q + 3 * q * r, q * r - 3 * q),
            unreduced=lambda p, q, r, s: s * (q * r - 3 * q) == 1 + r + 3 * q + 3 * q * r,
            bounds={"q": 13, "r": 10000, "s": 1000000},
            oracle_bounds={"q": 13, "r": 100, "s": 1000},
            note="four-distinct-prime order, ten normal subgroups, commutator of order q",
        ),
        EquationSpec(
            id="rem37-s2",
            fixed=(("p", 2),),
            chain=("p", "q", "r", "s"),
            solved=lambda p, q, r: (1 + 3 * r + 3 * q * r, q * r - 3 * r - 1),
            unreduced=lambda p, q, r, s: s * (q * r - 3 * r - 1)
            == 1 + 3 * r + 3 * q * r,
            bounds={"q": 13, "r": 10000, "s": 1000000},
            oracle_bounds={"q": 13, "r": 100, "s": 1000},
            note="four-distinct-prime order, ten normal subgroups, commutator of order r",
        ),
    ]
    return {eq.id: eq for eq in eqs}


EQUATIONS: dict[str, EquationSpec] = _build_equations()


# ---------------------------------------------------------------------------
# Fraction-bound registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionBound:
    """A sum of exact rational multiples of |G| claimed to be strictly < |G|.

    Lone additive constants and single-prime terms are folded in as fractions
    of |G| instantiated at the minimal admissible prime tuple (the worst
    case), recorded in ``note``.
    """

    id: str
    terms: tuple[Fraction, ...]
    note: str = ""


def check_bound(bound: FractionBound) -> tuple[Fraction, bool]:
    """Exact sum of the terms and whether the strict < 1 claim holds."""
    total = sum(bound.terms, Fraction(0))
    return total, total < 1


def _fr(*pairs: tuple[int, int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, b) for a, b in pairs)


# Minimal admissible tuples: the tau in {8, 9, 10} cases force p = 2 and
# 3 not dividing the order, so (2, 5, 7, 11) with |G| = 770 is the worst case
# for the folded constants.  The tau = 10, p > 2 chains use (3, 5, 7, 11)
# with |G| = 1155.
_G_EVEN = 770
_G_ODD = 1155

BOUNDS: dict[str, FractionBound] = {
    b.id: b
    for b in [
        FractionBound(
            id="lemma34-a",
            terms=_fr((1, 2), (1, 5), (1, 10), (1, 14), (2, 22), (1, _G_EVEN)),
            note="eight normal subgroups, qr > 2s; lone 1 folded as 1/770",
        ),
        FractionBound(
            id="lemma34-b",
            terms=_fr((1, 2), (1, 5), (1, 10), (1, 14), (2, 35), (1, _G_EVEN)),
            note="eight normal subgroups, qr < 2s; lone 1 folded as 1/770",
        ),
        FractionBound(
            id="lemma36-a",
            terms=_fr((1, 2), (1, 5), (1, 10), (1, 14), (1, 22), (3, 70)),
            note="nine normal subgroups, qr > 2s",
        ),
        FractionBound(
            id="lemma36-b",
            terms=_fr((1, 2), (1, 5), (1, 10), (1, 14), (1, 35), (3, 70)),
            note="nine normal subgroups, qr < 2s",
        ),
        FractionBound(
            id="lemma38-a",
            terms=_fr((1, 2), (1, 5), (1, 10), (1, 14), (1, 22), (4, 70)),
            note="ten normal subgroups, qr > 2s",
        ),
        FractionBound(
            id="lemma38-b",
            terms=_fr((1, 2), (1, 5), (1, 10), (1, 14), (1, 35), (4, 70)),
            note="ten normal subgroups, qr < 2s",
        ),
        FractionBound(
            id="rem33-b",
            terms=_fr((1, 3), (1, 5), (1, 15), (4, 21)),
            note="eight normal subgroups, odd smallest prime",
        ),
        FractionBound(
            id="rem37-chain-a",
            terms=_fr(
                (1, 3), (1, 5), (1, 11), (1, 15), (1, 33), (1, 55),
                (1, 105), (1, 165), (1, _G_ODD),
            ),
            note="ten normal subgroups, odd smallest prime, prime commutator, pqr > rs; "
            "1, r, s folded at (3,5,7,11)",
        ),
        FractionBound(
            id="rem37-chain-b",
            terms=_fr(
                (1, 3), (1, 5), (1, 15), (1, 17), (1, 51), (1, 85),
                (1, 105), (1, 165), (1, _G_ODD),
            ),
            note="ten normal subgroups, odd smallest prime, prime commutator, pqr < rs; "
            "1, r, s folded at (3,5,7,11)",
        ),
        FractionBound(
            id="rem37-chain-c",
            terms=_fr(
                (1, 3), (1, 5), (1, 15), (1, 21), (1, 33), (1, 105),
                (1, 165), (1, 231), (1, _G_ODD),
            ),
            note="ten normal subgroups, odd smallest prime, two-prime commutator, qr > ps; "
            "1, q, r folded at (3,5,7,11)",
        ),
        FractionBound(
            id="rem37-chain-d",
            terms=_fr(
                (1, 3), (1, 5), (1, 15), (1, 21), (1, 35), (1, 105),
                (1, 165), (1, 231), (1, _G_ODD),
            ),
            note="ten normal subgroups, odd smallest prime, two-prime commutator, qr < ps; "
            "1, q, r folded at (3,5,7,11)",
        ),
    ]
}
