"""Builders for every group family the analysis needs: cyclic, abelian
products, dihedral, dicyclic, split semidirect products of cyclic groups, and
permutation-generated groups, plus the text syntax used on the CLI
(``C6``, ``D12``, ``Dic5``, ``SD(7,8,6)``, ``SF(15,2,11)``, ``A4``,
products joined with ``x``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GroupSpec:
    """A buildable group description.

    kind is one of cyclic | abelian | dihedral | dicyclic | semidirect |
    perm | named | product; params carries the family data.
    """

    kind: str
    params: tuple

    @property
    def label(self) -> str:
        k, p = self.kind, self.params
        if k == "cyclic":
            return f"C{p[0]}"
        if k == "abelian":
            return "x".join(f"C{m}" for m in p)
        if k == "dihedral":
            return f"D{2 * p[0]}"
        if k == "dicyclic":
            return f"Dic{p[0]}"
        if k == "semidirect":
            return f"SD({p[0]},{p[1]},{p[2]})"
        if k == "named":
            return p[0]
        if k == "perm":
            return "perm" + repr(sorted(p))
        if k == "product":
            return "x".join(s.label for s in p)
        raise InputError(f"unknown spec kind {k!r}")


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", (n,))


def abelian(orders: Sequence[int]) -> GroupSpec:
    return GroupSpec("abelian", tuple(orders))


def dihedral(m: int) -> GroupSpec:
    return GroupSpec("dihedral", (m,))


def dicyclic(m: int) -> GroupSpec:
    return GroupSpec("dicyclic", (m,))


def semidirect(a: int, b: int, t: int) -> GroupSpec:
    return GroupSpec("semidirect", (a, b, t))


def named(name: str) -> GroupSpec:
    if name not in NAMED_PERM_SPECS:
        raise InputError(f"unknown named group {name!r}")
    return GroupSpec("named", (name,))


def product(specs: Sequence[GroupSpec]) -> GroupSpec:
    specs = tuple(specs)
    if len(specs) == 1:
        return specs[0]
    return GroupSpec("product", specs)


# ---------------------------------------------------------------------------
# Table builders (canonical element indexing per family)
# ---------------------------------------------------------------------------

def _cyclic_group(n: int, label: str) -> GroupTable:
    if n < 1:
        raise InputError(f"cyclic order must be >= 1, got {n}")
    check_capacity(n)
    ids = np.arange(n, dtype=np.int64)
    return GroupTable(n, (ids[:, None] + ids[None, :]) % n, label)


def _abelian_group(orders: tuple[int, ...], label: str) -> GroupTable:
    if not orders or any(m < 1 for m in orders):
        raise InputError(f"bad abelian component orders {orders}")
    n = math.prod(orders)
    check_capacity(n)

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
    return GroupTable(n, total, label)


def _dihedral_group(m: int, label: str) -> GroupTable:
    # elements (rotation, flip), id = rotation*2 + flip
    if m < 1:
        raise InputError(f"dihedral parameter must be >= 1, got {m}")
    n = 2 * m
    check_capacity(n)
    ids = np.arange(n, dtype=np.int64)
    r, f = ids >> 1, ids & 1
    rot = np.where(f[:, None] == 0, r[:, None] + r[None, :], r[:, None] - r[None, :]) % m
    flip = f[:, None] ^ f[None, :]
    return GroupTable(n, rot * 2 + flip, label)


def _dicyclic_group(m: int, label: str) -> GroupTable:
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
    return GroupTable(n, rot * 2 + flip, label)


def _semidirect_group(a: int, b: int, t: int, label: str) -> GroupTable:
    # presentation x^a = y^b = 1, y x y^-1 = x^t; elements (i, j) standing
    # for x^i y^j, id = i*b + j (lexicographic)
    if a < 1 or b < 1:
        raise InputError(f"semidirect orders must be positive, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise InputError(f"semidirect requires gcd(a, b) = 1, got ({a}, {b})")
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


def build(spec: GroupSpec) -> GroupTable:
    """Realize a GroupSpec as an explicit GroupTable."""
    k, p = spec.kind, spec.params
    if k == "cyclic":
        return _cyclic_group(p[0], spec.label)
    if k == "abelian":
        return _abelian_group(p, spec.label)
    if k == "dihedral":
        return _dihedral_group(p[0], spec.label)
    if k == "dicyclic":
        return _dicyclic_group(p[0], spec.label)
    if k == "semidirect":
        return _semidirect_group(p[0], p[1], p[2], spec.label)
    if k == "named":
        return perm_group(NAMED_PERM_SPECS[p[0]], label=p[0])
    if k == "perm":
        return perm_group(p)
    if k == "product":
        g = build(p[0])
        for sub in p[1:]:
            g = direct_product(g, build(sub))
        return g
    raise InputError(f"unknown spec kind {k!r}")


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


def _parse_atom(tok: str) -> GroupSpec:
    m = _ATOM_RE.match(tok)
    if not m:
        raise InputError(f"cannot parse group token {tok!r}")
    if m.group("cyc"):
        return cyclic(int(m.group("cyc")))
    if m.group("dih"):
        n = int(m.group("dih"))
        if n % 2 or n < 2:
            raise InputError(f"dihedral label D{n} must carry an even order >= 2")
        return dihedral(n // 2)
    if m.group("dic"):
        return dicyclic(int(m.group("dic")))
    if m.group("quat"):
        n = int(m.group("quat"))
        if n % 4:
            raise InputError(f"dicyclic label Q{n} must carry an order divisible by 4")
        return dicyclic(n // 4)
    if m.group("sd"):
        a, b, t = (int(v) for v in m.group("sd").split(","))
        return semidirect(a, b, t)
    if m.group("sf"):
        a, b, t = (int(v) for v in m.group("sf").split(","))
        return semidirect(a, b, t)
    return named(m.group("name"))


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI group syntax, products joined with 'x'."""
    text = text.strip()
    if not text:
        raise InputError("empty group spec")
    parts = [p for p in text.split("x") if p != ""]
    if len(text.split("x")) != len(parts):
        raise InputError(f"cannot parse group spec {text!r}")
    return product([_parse_atom(p) for p in parts])
