import pytest

from leinster import constructors as con
from leinster.analysis import (
    LeinsterReport,
    analyze,
    analyze_coprime_product,
    analyze_cyclic,
    analyze_descriptor,
    analyze_split_metacyclic,
)
from leinster.errors import InputError
from leinster.squarefree import MetacyclicDescriptor


def rep(text):
    return analyze(con.build(text))


class TestReports:
    def test_c6(self):
        r = rep("C6")
        assert (r.sigma, r.tau, r.is_leinster) == (12, 4, True)
        assert r.normal_orders == (1, 2, 3, 6)

    def test_d6_is_not_leinster(self):
        r = rep("S3")
        assert r.sigma == 10
        assert not r.is_leinster

    def test_dic3_is_leinster(self):
        r = rep("Dic3")
        assert r.normal_orders == (1, 2, 3, 6, 12)
        assert r.sigma == 24 == 2 * r.order
        assert r.is_leinster

    def test_sd786_is_leinster(self):
        r = rep("SD(7,8,6)")
        assert (r.sigma, r.tau, r.is_leinster) == (112, 7, True)

    def test_odd_normal_count(self):
        assert rep("S3xC5").odd_normal_count == 4
        assert rep("C28").odd_normal_count == 2

    def test_json_round_trip(self):
        r = rep("Dic5")
        assert LeinsterReport.from_json(r.to_json()) == r


class TestStructuralPaths:
    def test_cyclic_path_matches_engine(self):
        for n in (1, 2, 12, 28, 60):
            assert analyze_cyclic(n).normal_orders == rep(f"C{n}").normal_orders

    def test_cyclic_path_matches_split_metacyclic_formula(self):
        for n in range(1, 2001):
            assert analyze_cyclic(n).normal_orders == analyze_split_metacyclic(n, 1, 1).normal_orders, n

    def test_descriptor_path(self):
        d = MetacyclicDescriptor(15, 2, 11)
        assert analyze_descriptor(d).normal_orders == rep("S3xC5").normal_orders

    def test_split_metacyclic_path(self):
        assert analyze_split_metacyclic(7, 8, 6).sigma == 112

    def test_coprime_product_rule(self):
        prod = analyze_coprime_product(rep("Dic5"), rep("C19"))
        assert prod.label == "Dic5xC19"
        assert (prod.order, prod.sigma, prod.tau) == (380, 760, 10)
        assert prod.is_leinster

    def test_coprime_product_matches_engine(self):
        structural = analyze_coprime_product(rep("S3"), rep("C35"))
        engine = rep("S3xC35")
        assert structural.normal_orders == engine.normal_orders

    def test_trivial_factor(self):
        r = rep("Dic5")
        assert analyze_coprime_product(r, analyze_cyclic(1)) == r

    def test_non_coprime_rejected(self):
        with pytest.raises(InputError):
            analyze_coprime_product(rep("C6"), rep("C10"))


def test_sigma_multiplicativity_spot_checks():
    pairs = [("S3", "C5"), ("A4", "C7"), ("Dic3", "C11"), ("D8", "C15")]
    for left, right in pairs:
        r1, r2 = rep(left), rep(right)
        prod = analyze_coprime_product(r1, r2)
        assert prod.sigma == r1.sigma * r2.sigma
        assert prod.tau == r1.tau * r2.tau
