"""Cayley tables for every group family the analysis needs, built straight
from their labels: cyclic ``C6``, dihedral ``D12``, dicyclic ``Dic5`` (or
``Q20``), split semidirect products of cyclic groups ``SD(7,8,6)`` (or
``SF(15,2,11)``), the permutation groups ``A4`` and ``S3``, and direct
products joined with ``x``.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

from .errors import CapacityError, InputError
from .groups import TABLE_CAP, GroupTable, check_capacity, direct_product

# Named permutation-generator specs; A4 and S3 show up in the candidate case
# analyses and are aliased here rather than given bespoke code paths.
NAMED_PERM_SPECS = {
    "A4": ((1, 2, 0, 3), (1, 0, 3, 2)),
    "S3": ((1, 2, 0), (1, 0, 2)),
}


# ---------------------------------------------------------------------------
# Table builders (canonical element indexing per family)
# ---------------------------------------------------------------------------

def _cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise InputError(f"cyclic order must be >= 1, got {n}")
    check_capacity(n)
    ids = np.arange(n, dtype=np.int64)
    return GroupTable(n, (ids[:, None] + ids[None, :]) % n, f"C{n}")


def _dihedral_group(m: int) -> GroupTable:
    # elements (rotation, flip), id = rotation*2 + flip
    if m < 1:
        raise InputError(f"dihedral parameter must be >= 1, got {m}")
    n = 2 * m
    check_capacity(n)
    ids = np.arange(n, dtype=np.int64)
    r, f = ids >> 1, ids & 1
    rot = np.where(f[:, None] == 0, r[:, None] + r[None, :], r[:, None] - r[None, :]) % m
    flip = f[:, None] ^ f[None, :]
    return GroupTable(n, rot * 2 + flip, f"D{n}")


def _dicyclic_group(m: int) -> GroupTable:
    # presentation x^(2m)=1, y^2=x^m, y x y^-1 = x^-1; elements (i, e) with
    # i mod 2m and e in {0,1} standing for x^i y^e, id = i*2 + e
    if m < 2:
        raise InputError(f"dicyclic parameter must be >= 2, got {m}")
    n = 4 * m
    check_capacity(n)
    ids = np.arange(n, dtype=np.int64)
    r, e = ids >> 1, ids & 1
    rr, er = r[:, None], e[:, None]
    rc, ec = r[None, :], e[None, :]
    rot = np.where(er == 0, rr + rc, rr - rc + np.where(ec == 1, m, 0)) % (2 * m)
    flip = er ^ ec
    return GroupTable(n, rot * 2 + flip, f"Dic{m}")


def _semidirect_group(a: int, b: int, t: int) -> GroupTable:
    # presentation x^a = y^b = 1, y x y^-1 = x^t; elements (i, j) standing
    # for x^i y^j, id = i*b + j (lexicographic)
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
    n = a * b
    check_capacity(n)
    tpow = [1 % a]
    for _ in range(b - 1):
        tpow.append(tpow[-1] * t % a)
    tp = np.array(tpow, dtype=np.int32)
    # the x-part of a product depends only on (row, column's i) and the
    # y-part only on (row, column's j), so the one n x n array allocated
    # is the int32 result (entries stay below a^2 <= TABLE_CAP^2)
    ids = np.arange(n, dtype=np.int32)
    i, j = ids // b, ids % b
    x = (i[:, None] + tp[j][:, None] * np.arange(a, dtype=np.int32)) % a
    y = (j[:, None] + np.arange(b, dtype=np.int32)) % b
    return GroupTable(n, (x[:, :, None] * b + y[:, None, :]).reshape(n, n), label)


def perm_group(generators: Sequence[Sequence[int]], label: str = "") -> GroupTable:
    """Closure of permutations of {0..d-1} under composition.

    Elements are indexed by lexicographic order of their permutation tuples,
    which puts the identity permutation first.
    """
    gens = []
    d = None
    for g in generators:
        tg = tuple(int(v) for v in g)
        if d is None:
            d = len(tg)
        if len(tg) != d or sorted(tg) != list(range(d)):
            raise InputError(f"invalid permutation {g!r}")
        gens.append(tg)
    if d is None:
        d = 1
    ident = tuple(range(d))
    elems = {ident}
    work = [ident]
    while work:
        p = work.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(d))
            if q not in elems:
                if len(elems) >= TABLE_CAP:
                    raise CapacityError("permutation closure exceeds engine capacity")
                elems.add(q)
                work.append(q)
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    table = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(ordered):
        for j, q in enumerate(ordered):
            table[i, j] = index[tuple(p[q[k]] for k in range(d))]
    return GroupTable(n, table=table, label=label or f"perm<{n}>")


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
        return perm_group(NAMED_PERM_SPECS[value], label=value)
    if kind in ("sd", "sf"):
        a, b, t = (int(v) for v in value.split(","))
        return _semidirect_group(a, b, t)
    n = int(value)
    if kind == "cyc":
        return _cyclic_group(n)
    if kind == "dic":
        return _dicyclic_group(n)
    if kind == "dih":
        if n % 2 or n < 2:
            raise InputError(f"dihedral label D{n} must carry an even order >= 2")
        return _dihedral_group(n // 2)
    if n % 4:
        raise InputError(f"dicyclic label Q{n} must carry an order divisible by 4")
    return _dicyclic_group(n // 4)


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
