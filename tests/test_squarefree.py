import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_squarefree_bruteforce,
    normal_orders_bruteforce,
    twist_classes_bruteforce,
)

from leinster import constructors, squarefree
from leinster.analysis import analyze
from leinster.claims import corpus_groups
from leinster.errors import InputError
from leinster.groups import normal_subgroups
from leinster.numtheory import divisors, factorize, is_squarefree, order_is_exactly
from leinster.squarefree import (
    MetacyclicDescriptor,
    canonical_twist,
    enumerate_squarefree,
    holder_count,
    realize,
    split_metacyclic_normal_orders,
    twist_classes,
)


class TestDescriptor:
    def test_cyclic_descriptor(self):
        d = MetacyclicDescriptor(15, 1, 1)
        assert d.order == 15
        assert d.pretty_label() == "C15"

    def test_rejects_non_squarefree(self):
        with pytest.raises(InputError):
            MetacyclicDescriptor(4, 3, 1)

    def test_rejects_unfaithful_twist(self):
        with pytest.raises(InputError):
            MetacyclicDescriptor(7, 6, 6)  # order of 6 mod 7 is 2, not 6

    def test_rejects_non_canonical_twist(self):
        # 3 and 5 generate the same order-6 subgroup of units mod 7;
        # canonical form picks the smaller orbit representative
        assert canonical_twist(7, 6, 5) == canonical_twist(7, 6, 3) == 3
        with pytest.raises(InputError):
            MetacyclicDescriptor(7, 6, 5)

    def test_pretty_labels(self):
        assert MetacyclicDescriptor(3, 2, 2).pretty_label() == "S3"
        assert MetacyclicDescriptor(15, 2, 14).pretty_label() == "D30"
        assert MetacyclicDescriptor(15, 2, 11).pretty_label() == "S3xC5"
        assert MetacyclicDescriptor(7, 3, 2).pretty_label() == "SF(7,3,2)"


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [
        (1, 1), (2, 1), (6, 2), (30, 4), (42, 6), (210, 12), (2310, 36),
    ])
    def test_known_counts(self, n, count):
        assert len(enumerate_squarefree(n)) == count
        assert holder_count(n) == count

    def test_counts_match_formula_up_to_600(self):
        for n in range(1, 601):
            if is_squarefree(n):
                assert len(enumerate_squarefree(n)) == holder_count(n), n

    def test_rejects_non_squarefree(self):
        with pytest.raises(InputError):
            enumerate_squarefree(12)
        with pytest.raises(InputError):
            holder_count(0)

    def test_descriptors_are_distinct_groups(self):
        # all 4 groups of order 30 have distinct normal-order multisets
        descs = enumerate_squarefree(30)
        fingerprints = {tuple(split_metacyclic_normal_orders(d.a, d.b, d.t)) for d in descs}
        assert len(fingerprints) == 4

    def test_faithful_precheck_skips_exactly_the_kernels_without_one(self, monkeypatch):
        # twist_classes is asked only for the kernels a | n that have a twist
        # of order exactly b = n / a, found here by trying every unit
        asked = []
        real = squarefree.twist_classes
        monkeypatch.setattr(squarefree, "twist_classes", lambda a, b: asked.append((a, b)) or real(a, b))
        enumerate_squarefree.cache_clear()
        try:
            for n in range(2, 3001):
                if not is_squarefree(n):
                    continue
                asked.clear()
                enumerate_squarefree(n)
                faithful = [
                    (a, n // a)
                    for a in divisors(n)
                    if any(
                        pow(t, n // a, a) == 1 and order_is_exactly(t, a, n // a)
                        for t in range(2, a)
                        if math.gcd(t, a) == 1
                    )
                ]
                assert asked == faithful, n
        finally:
            enumerate_squarefree.cache_clear()

    def test_matches_bruteforce_oracle_up_to_2000(self):
        for n in range(1, 2001):
            if is_squarefree(n):
                assert enumerate_squarefree(n) == enumerate_squarefree_bruteforce(n), n


class TestTwistClasses:
    # (7, 8) and (7 * 13 * 19, 9) have twists of order below b (unfaithful),
    # 8 * 7 * 13 has a 2-part that admits only t = 1 there, and 3 * 5 * 7^2 * 13
    # has a repeated prime
    @given(st.integers(1, 3000), st.integers(1, 400))
    @example(7, 8)
    @example(7 * 13 * 19, 9)
    @example(8 * 7 * 13, 9)
    @example(3 * 5 * 49 * 13, 4)
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_orbits(self, a, b):
        assume(math.gcd(a, b) == 1)
        assert twist_classes(a, b) == twist_classes_bruteforce(a, b)

    # the examples above, plus an even a (its 2-part admits only t = 1),
    # a = 7 * 11 with b = 3, where gcd(3, 11 - 1) = 1 fixes 11 in every
    # twist, and the moduli 1 and 2
    @given(st.integers(1, 3000), st.integers(1, 400))
    @example(7, 8)
    @example(7 * 13 * 19, 9)
    @example(8 * 7 * 13, 9)
    @example(3 * 5 * 49 * 13, 4)
    @example(2 * 7 * 13, 9)
    @example(7 * 11, 3)
    @example(1, 5)
    @example(2, 7)
    @settings(max_examples=200, deadline=None)
    def test_nontrivial_matches_filtered_bruteforce_orbits(self, a, b):
        assume(math.gcd(a, b) == 1)
        prime_powers = [p**k for p, k in factorize(a)]
        brute = [(t, m) for t, m in twist_classes_bruteforce(a, b) if all(t % q != 1 for q in prime_powers)]
        assert twist_classes(a, b, nontrivial=True) == brute

    def test_unfaithful_orbits_are_kept(self):
        # C_6 acting on C_7 through quotients of order 2, 3 and 6: every orbit
        # is a split metacyclic group, only the faithful one a descriptor
        assert twist_classes(7, 6) == [(2, 3), (3, 6), (6, 2)]
        assert [d.t for d in enumerate_squarefree(42) if d.a == 7] == [3]

    def test_non_coprime_rejected(self):
        with pytest.raises(InputError):
            twist_classes(15, 6)

    def test_trivial_moduli(self):
        assert twist_classes(1, 5) == twist_classes(2, 7) == twist_classes(16, 15) == []


class TestStructuralNormalOrders:
    def test_cyclic_case(self):
        assert split_metacyclic_normal_orders(12, 1, 1) == [1, 2, 3, 4, 6, 12]

    def test_s3(self):
        assert split_metacyclic_normal_orders(3, 2, 2) == [1, 3, 6]

    def test_dicyclic(self):
        assert split_metacyclic_normal_orders(5, 4, 4) == [1, 2, 5, 10, 20]

    def test_non_coprime_rejected(self):
        with pytest.raises(InputError):
            split_metacyclic_normal_orders(4, 2, 3)

    def test_bad_twist_rejected(self):
        with pytest.raises(InputError):
            split_metacyclic_normal_orders(7, 2, 3)

    def test_matches_engine_on_all_squarefree_up_to_200(self):
        for n in range(1, 201):
            if not is_squarefree(n):
                continue
            for d in enumerate_squarefree(n):
                engine = analyze(realize(d))
                assert list(engine.normal_orders) == split_metacyclic_normal_orders(d.a, d.b, d.t), d

    def test_matches_bruteforce_oracle_on_tiny_groups(self):
        for n in (6, 10, 12, 20, 21, 30, 42, 56):
            if not is_squarefree(n):
                continue
            for d in enumerate_squarefree(n):
                assert normal_orders_bruteforce(realize(d)) == split_metacyclic_normal_orders(d.a, d.b, d.t)

    def test_unfaithful_twist_supported(self):
        # C7 x| C8 acting through the order-2 quotient: t = 6, t^2 = 1 mod 7
        orders = split_metacyclic_normal_orders(7, 8, 6)
        assert sum(orders) == 2 * 56


@st.composite
def twisted_pairs(draw):
    """(a, b, t) with gcd(a, b) = 1, t^b = 1 mod a and a * b <= 300; t runs
    over every solution, so unfaithful twists and t = 1 are drawn too."""
    a = draw(st.integers(1, 150))
    b = draw(st.integers(1, 300 // a).filter(lambda b: math.gcd(a, b) == 1))
    twists = [t for t in range(a) if math.gcd(t, a) == 1 and pow(t, b, a) == 1 % a]
    t = draw(st.sampled_from(twists))
    return a, b, t


class TestDerivedOracles:
    @given(twisted_pairs())
    @example((7, 8, 6))  # C8 acting on C7 through its quotient of order 2
    @example((13, 12, 1))  # trivial twist: the cyclic group C156
    @example((1, 7, 0))
    @settings(max_examples=150, deadline=None)
    def test_structural_orders_match_engine(self, abt):
        a, b, t = abt
        engine = analyze(constructors.build(f"SD({a},{b},{t})"))
        assert split_metacyclic_normal_orders(a, b, t) == list(engine.normal_orders)

    def test_derived_report_fields_match_normal_subgroups(self):
        for G in corpus_groups(120):
            sizes = [N.size for N in normal_subgroups(G)]
            r = analyze(G)
            assert r.sigma == sum(sizes), G.label
            assert r.tau == len(sizes), G.label
            assert r.odd_normal_count == sum(1 for m in sizes if m % 2 == 1), G.label
            assert r.is_leinster == (sum(sizes) == 2 * G.order), G.label

    @given(st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_divisors_returns_a_fresh_list(self, n):
        first = divisors(n)
        expected = list(first)
        first.append(0)
        first.reverse()
        assert divisors(n) == expected
        assert divisors(n) is not divisors(n)


def test_realize_labels():
    d = MetacyclicDescriptor(15, 2, 11)
    assert realize(d).label == "S3xC5"


@pytest.mark.parametrize("a", [1, 2, 6, 30, 210, 1155, 2039])
def test_realize_cyclic_descriptor_is_the_cyclic_table(a):
    # the trivial twist SF(a,1,1) is C_a entry for entry
    G = realize(MetacyclicDescriptor(a, 1, 1))
    assert G.label == f"C{a}"
    assert np.array_equal(G.table, constructors.build(f"C{a}").table)
    assert np.array_equal(G.table, constructors.build(f"SF({a},1,1)").table)
