"""Cayley tables for every group family the analysis needs, built straight
from their labels: cyclic ``C6``, dihedral ``D12``, dicyclic ``Dic5`` (or
``Q20``), split semidirect products of cyclic groups ``SD(7,8,6)`` (or
``SF(15,2,11)``), the permutation groups ``A4`` and ``S3``, and direct
products joined with ``x``.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import InputError
from .groups import GroupTable, check_capacity, direct_product

# A4 and S3 show up in the candidate case analyses: (degree, even_only).
NAMED_PERM_SPECS = {"A4": (4, True), "S3": (3, False)}


# ---------------------------------------------------------------------------
# Table builders (canonical element indexing per family)
# ---------------------------------------------------------------------------

def _metacyclic_group(a: int, b: int, t: int, s: int, label: str) -> GroupTable:
    """The group x^a = 1, y^b = x^s, y x y^-1 = x^t with 0 <= t, s < a, on
    ids i*b + j for x^i y^j.  The product of x^i y^j and x^k y^l is
    x^(i + t^j k + s [j + l >= b]) y^((j + l) mod b)."""
    n = a * b
    check_capacity(n)
    tpow = [1 % a]
    for _ in range(b - 1):
        tpow.append(tpow[-1] * t % a)
    tp = np.array(tpow, dtype=np.int32)
    ids = np.arange(n, dtype=np.int32)
    i, j = ids // b, ids % b
    # the x-part of a product depends only on (row, column's k) and the rest
    # only on (row's j, column's l), so the table is one n x n int32 buffer:
    # the reduced n x a x-part, built in place, repeated b times along the
    # columns, then per row block j the wrap term and the y-part, each a b x n
    # array broadcast over i.  The x-part is 1/b of the buffer and np.repeat
    # copies one into the other: peaks of 1.5 tables for Dic511, 1.08 for
    # SD(31,64,30), and 1.0 for b = 1, where the x-part is the table and
    # neither the wrap term nor the y-part adds anything.  The b x n addends
    # are 1/a of it.  No entry reaches a^2
    x = tp[j][:, None] * np.arange(a, dtype=np.int32)
    x += i[:, None]
    x %= a
    if b == 1:
        return GroupTable(n, x, label)
    jl = j[:b, None] + j[None, :]  # j + l for row block j and column (k, l)
    table = np.repeat(x, b, axis=1)
    blocks = table.reshape(a, b, n)  # [i, j] is the row of x^i y^j
    if s:
        blocks += np.where(jl >= b, np.int32(s), np.int32(0))
        table %= a
    table *= b
    blocks += jl % b
    return GroupTable(n, table, label)


def _permutation_group(degree: int, even_only: bool, label: str) -> GroupTable:
    """Permutations of {0..degree-1} (only the even ones if asked) in
    lexicographic order, which puts the identity first, composed as
    (p q)[k] = p[q[k]]."""
    perms = [
        p
        for p in itertools.permutations(range(degree))
        if not even_only or sum(u > v for u, v in itertools.combinations(p, 2)) % 2 == 0
    ]
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]
    return GroupTable(len(perms), np.array(table), label)


# ---------------------------------------------------------------------------
# Label syntax
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(
    r"""^(?:
        C(?P<cyc>\d+)
      | D(?P<dih>\d+)
      | Dic(?P<dic>\d+)
      | Q(?P<quat>\d+)
      | SD\((?P<sd>\d+,\d+,\d+)\)
      | SF\((?P<sf>\d+,\d+,\d+)\)
      | (?P<name>A4|S3)
    )$""",
    re.VERBOSE,
)


def _build_atom(tok: str) -> GroupTable:
    m = _ATOM_RE.match(tok)
    if not m:
        raise InputError(f"cannot parse group token {tok!r}")
    kind, value = next((k, v) for k, v in m.groupdict().items() if v is not None)
    if kind == "name":
        return _permutation_group(*NAMED_PERM_SPECS[value], value)
    if kind in ("sd", "sf"):
        a, b, t = (int(v) for v in value.split(","))
        if a < 1 or b < 1:
            raise InputError(f"semidirect orders must be positive, got ({a}, {b})")
        if math.gcd(a, b) != 1:
            raise InputError(f"semidirect requires gcd(a, b) = 1, got ({a}, {b})")
        label = f"SD({a},{b},{t})"
        t %= a
        if math.gcd(t, a) != 1:
            raise InputError(f"twist {t} is not a unit mod {a}")
        if pow(t, b, a) != 1 % a:
            raise InputError(f"twist {t} does not satisfy t^{b} = 1 mod {a}")
        return _metacyclic_group(a, b, t, 0, label)
    n = int(value)
    if kind == "cyc":
        if n < 1:
            raise InputError(f"cyclic order must be >= 1, got {n}")
        return _metacyclic_group(n, 1, 1 % n, 0, f"C{n}")
    if kind == "dih":
        if n % 2 or n < 2:
            raise InputError(f"dihedral label D{n} must carry an even order >= 2")
        return _metacyclic_group(n // 2, 2, n // 2 - 1, 0, f"D{n}")
    if kind == "quat":
        if n % 4:
            raise InputError(f"dicyclic label Q{n} must carry an order divisible by 4")
        n //= 4
    if n < 2:
        raise InputError(f"dicyclic parameter must be >= 2, got {n}")
    return _metacyclic_group(2 * n, 2, 2 * n - 1, n, f"Dic{n}")


def build(label: str) -> GroupTable:
    """Parse a group label, products joined with 'x', and build its Cayley
    table.  The table carries the canonical label: Q20 becomes Dic5 and
    SF(a,b,t) becomes SD(a,b,t)."""
    text = label.strip()
    tokens = text.split("x")
    if "" in tokens:
        raise InputError(f"cannot parse group spec {text!r}")
    G = _build_atom(tokens[0])
    for tok in tokens[1:]:
        G = direct_product(G, _build_atom(tok))
    return G
