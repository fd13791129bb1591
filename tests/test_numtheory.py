import ast
import dataclasses
import importlib
import inspect
import itertools
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import leinster
from leinster import claims, numtheory
from leinster.claims import claim_equation
from leinster.errors import InputError
from leinster.numtheory import (
    BOUNDS,
    EQUATIONS,
    MAX_SCAN_BOUND,
    EquationSpec,
    check_bound,
    divisor_sum,
    divisors,
    factorize,
    is_perfect,
    is_prime,
    is_squarefree,
    mult_order,
    order_divides,
    order_is_exactly,
    prime_factors,
    primes_upto,
    scan_equation,
    scan_equation_bruteforce,
)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10000)) == 1229


def test_sieve_matches_is_prime():
    flags = numtheory._sieve(10000)
    assert flags.dtype == np.uint8
    assert flags.tolist() == [int(is_prime(k)) for k in range(10001)]
    for n in (1, 2, 3, 4, 49):
        assert numtheory._sieve(n).tolist() == [int(is_prime(k)) for k in range(n + 1)]
    assert int(numtheory._sieve(10**6).sum()) == 78498


def test_primes_upto_gives_python_ints():
    # the brute-force oracle and scan_equation's scalar re-solve need exact ints
    assert all(type(p) is int for p in primes_upto(10**6))


def test_every_cache_is_bounded():
    # an unbounded cache keeps one entry per argument it was ever asked for
    modules = [importlib.import_module(m.name) for m in pkgutil.iter_modules(leinster.__path__, "leinster.")]
    sizes = {
        f"{module.__name__}.{name}": fn.cache_info().maxsize
        for module in modules
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
    }
    assert "leinster.numtheory.factorize" in sizes and None not in sizes.values()
    assert sizes["leinster.numtheory.factorize"] <= 4096


@pytest.mark.parametrize("n,expected", [(1, False), (2, True), (91, False), (97, True), (7919, True)])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_factorize_and_divisors():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert prime_factors(360) == [2, 3, 5]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisor_sum(28) == 56
    assert divisors(1) == [1]


def test_perfect_numbers():
    perfect = [n for n in range(1, 10000) if is_perfect(n)]
    assert perfect == [6, 28, 496, 8128]


def test_squarefree():
    assert [n for n in range(1, 20) if is_squarefree(n)] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19,
    ]


def test_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(3, 7) == 6
    assert order_is_exactly(6, 7, 2)
    assert not order_is_exactly(2, 7, 6)
    with pytest.raises(InputError):
        mult_order(7, 14)  # not a unit


def test_order_tests_match_mult_order():
    # every unit t mod a <= 100 (t = 0 is the unit mod 1) against the least k
    # with t^k = 1, which mult_order finds by stepping through the powers
    for a in range(1, 101):
        for t in (t for t in range(a) if math.gcd(t, a) == 1):
            k = mult_order(t, a)
            for b in range(1, 49):
                assert order_divides(t, a, b) == (b % k == 0), (t, a, b)
                assert order_is_exactly(t, a, b) == (k == b), (t, a, b)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # 999 800..1 000 000 is where scan_equation asks, near its 10^6 bounds
    for n in [0, 1, -1, -7, *range(10001), *range(999800, 1000001)]:
        assert is_prime(n) is sympy.isprime(n), n


def _compares_pow_with_one(node) -> bool:
    """node is a comparison of a three-argument pow(t, b, a) with 1 % m."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return any(
        isinstance(s, ast.Call) and isinstance(s.func, ast.Name) and s.func.id == "pow" and len(s.args) == 3
        for s in sides
    ) and any(
        isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mod) and isinstance(s.left, ast.Constant) and s.left.value == 1
        for s in sides
    )


def test_order_divides_is_the_only_power_test():
    # every t^b = 1 (mod a) question goes through numtheory.order_divides
    found = []
    for info in pkgutil.iter_modules(leinster.__path__, "leinster."):
        tree = ast.parse(Path(importlib.import_module(info.name).__file__).read_text())
        funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if _compares_pow_with_one(node):
                owner = [f.name for f in funcs if node in ast.walk(f)]
                found.append((info.name, owner))
    assert found == [("leinster.numtheory", ["order_divides"])]


class TestEquationScanning:
    def test_registry_ids(self):
        assert set(EQUATIONS) == {
            "lemma23", "lemma24", "thm26-noP-a", "thm26-noP-b",
            "thm26-final", "rem37-s1", "rem37-s2",
        }

    def test_final_equation_small(self):
        eq = EQUATIONS["thm26-final"]
        assert scan_equation(eq, {"q": 1000, "r": 1000}) == [(5, 19), (7, 13)]

    def test_final_equation_values(self):
        # q*r = 3 + 7q + 3r at the two solutions
        for q, r in ((5, 19), (7, 13)):
            assert q * r == 3 + 7 * q + 3 * r

    @pytest.mark.parametrize("eq_id", sorted(EQUATIONS))
    def test_solved_form_matches_bruteforce(self, eq_id):
        eq = EQUATIONS[eq_id]
        bounds = {name: 60 for name in eq.free + (eq.dependent,)}
        bounds[eq.dependent] = 500
        assert scan_equation(eq, bounds) == scan_equation_bruteforce(eq, bounds)

    @pytest.mark.parametrize("eq_id", sorted(EQUATIONS))
    def test_solved_form_is_exact_on_int64_arrays(self, eq_id):
        # MAX_SCAN_BOUND keeps every registered form, at most cubic, below
        # 2^63; an int64 result that wrapped would differ from the Python int
        eq = EQUATIONS[eq_id]
        fixed = [value for _, value in eq.fixed]
        *outer, last = eq.free
        corners = {name: [2, eq.bounds[name], MAX_SCAN_BOUND] for name in eq.free}
        column = np.array(corners[last], dtype=np.int64)
        for head in itertools.product(*(corners[name] for name in outer)):
            num, den = (np.broadcast_to(v, column.shape) for v in eq.solved(*fixed, *head, column))
            exact = [eq.solved(*fixed, *head, x) for x in corners[last]]
            assert list(zip(num.tolist(), den.tolist())) == exact

    @pytest.mark.parametrize("block", [numtheory._SCAN_BLOCK, 10])
    def test_scan_across_block_edges(self, block, monkeypatch):
        # twin primes (q, q + 2) on both sides of 2^16, the first block edge;
        # the solved form's denominator is a plain int, not an array
        twin = EquationSpec(
            id="twin",
            fixed=(),
            chain=("q", "r"),
            solved=lambda q: (q + 2, 1),
            unreduced=lambda q, r: r == q + 2,
            bounds={"q": 70000, "r": 70002},
            oracle_bounds={"q": 100, "r": 102},
        )
        monkeypatch.setattr(numtheory, "_SCAN_BLOCK", block)
        primes = primes_upto(70002)
        prime_set = set(primes)
        expected = [(q, q + 2) for q in primes if q <= 70000 and q + 2 in prime_set]
        assert any(q < 2**16 for q, _ in expected) and any(q > 2**16 for q, _ in expected)
        assert scan_equation(twin, twin.bounds) == expected

    def test_bound_validation(self):
        eq = EQUATIONS["thm26-final"]
        with pytest.raises(InputError):
            scan_equation(eq, {"q": 10})  # missing r
        with pytest.raises(InputError):
            scan_equation(eq, {"q": 10, "r": MAX_SCAN_BOUND + 1})
        with pytest.raises(InputError):
            scan_equation(eq, {"q": 1, "r": 10})

    def test_chain_is_enforced(self):
        # the noP-a equation requires p < q < r; solutions violating the
        # chain must not be reported even if the arithmetic holds
        eq = EQUATIONS["thm26-noP-a"]
        for p, q, r in scan_equation(eq, {"p": 50, "q": 200, "r": 2000}):
            assert p < q < r

    @pytest.mark.parametrize("eq_id", sorted(EQUATIONS))
    def test_oracle_never_calls_solved_form(self, eq_id):
        def solved(*args):
            raise AssertionError("the oracle called the solved form")

        eq = EQUATIONS[eq_id]
        bounds = eq.oracle_bounds
        blind = dataclasses.replace(eq, solved=solved)
        assert scan_equation_bruteforce(blind, bounds) == scan_equation(eq, bounds)

    def test_wrong_solved_form_is_refuted_by_oracle(self, monkeypatch):
        # q*r = 3 + 7q + 3r solved wrongly for r; the unreduced relation
        # still has the solutions (5, 19) and (7, 13)
        eq = EQUATIONS["thm26-final"]
        wrong = dataclasses.replace(eq, solved=lambda p, q: (7 * q + 4, q - 3))
        monkeypatch.setitem(EQUATIONS, "thm26-final", wrong)
        res = claim_equation("thm26-final")
        assert res.status == "refuted"
        assert res.evidence["oracle_agrees"] is False
        assert res.evidence["solutions"] != res.evidence["expected"]

    def test_disagreeing_oracle_makes_equation_partial(self, monkeypatch):
        # the solutions match, so a failed cross-check is not a counterexample
        real = claims.scan_equation_bruteforce
        monkeypatch.setattr(claims, "scan_equation_bruteforce", lambda eq, bounds: real(eq, bounds)[1:])
        res = claim_equation("thm26-final")
        assert res.status == "partial"
        assert res.evidence["oracle_agrees"] is False
        assert res.evidence["solutions"] == res.evidence["expected"]

    @pytest.mark.parametrize("eq_id", sorted(EQUATIONS))
    def test_callables_take_chain_positionally(self, eq_id):
        eq = EQUATIONS[eq_id]
        assert eq.chain[: len(eq.fixed)] == tuple(name for name, _ in eq.fixed)
        assert tuple(inspect.signature(eq.solved).parameters) == eq.chain[:-1]
        assert tuple(inspect.signature(eq.unreduced).parameters) == eq.chain


class TestFractionBounds:
    def test_registry(self):
        assert len(BOUNDS) == 11

    @pytest.mark.parametrize("bound_id", sorted(BOUNDS))
    def test_all_strictly_below_one(self, bound_id):
        total, ok = check_bound(BOUNDS[bound_id])
        assert ok
        assert total < 1
        assert total.denominator >= 1  # exact rational, no float anywhere

    def test_known_sums(self):
        from fractions import Fraction

        total, _ = check_bound(BOUNDS["lemma34-a"])
        assert total == Fraction(53, 55)
        total, _ = check_bound(BOUNDS["lemma36-a"])
        assert total == Fraction(739, 770)
