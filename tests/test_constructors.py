import tracemalloc

import numpy as np
import pytest

from conftest import abelian_group, mul, perm_group, presentation_table, product_table, validate

from leinster import constructors as con
from leinster.claims import ENGINE_VALIDATION_CAP, pqrs_orders
from leinster.errors import InputError
from leinster.squarefree import enumerate_squarefree


class TestSpecs:
    def test_labels(self):
        # a built table carries the canonical form of its label
        for text, label in [
            ("C6", "C6"), ("D10", "D10"), ("Dic3", "Dic3"), ("Q12", "Dic3"),
            ("SD(7,8,6)", "SD(7,8,6)"), ("SF(15,2,11)", "SD(15,2,11)"),
            ("C2xC2xC3", "C2xC2xC3"), ("C3xD8", "C3xD8"), ("A4", "A4"),
        ]:
            assert con.build(text).label == label

    @pytest.mark.parametrize("text,order", [
        ("C1", 1), ("C17", 17), ("D14", 14), ("Dic6", 24), ("Q8", 8),
        ("Q20", 20), ("SD(5,4,2)", 20), ("A4", 12), ("S3", 6),
        ("C2xC3", 6), ("S3xC5xC7", 210),
    ])
    def test_parse_and_build(self, text, order):
        G = con.build(text)
        assert G.order == order
        validate(G)

    def test_q_is_dicyclic(self):
        Q, D = con.build("Q20"), con.build("Dic5")
        assert Q.label == D.label == "Dic5"
        assert np.array_equal(Q.table, D.table)

    def test_s3_is_d6(self):
        S, D = con.build("S3"), con.build("D6")
        assert (S.label, D.label) == ("S3", "D6")
        assert np.array_equal(S.table, D.table)

    @pytest.mark.parametrize("bad", [
        "", "C", "Cx", "D7", "Q6", "E8", "SD(x,2,3)", "C3x",
        "C0", "D0", "Q0", "Dic1", "SD(0,2,1)", "SD(3,0,1)",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            con.build(bad)


class TestBuilders:
    def test_cyclic_structure(self):
        G = con.build("C8")
        assert G.element_order(1) == 8

    def test_abelian_structure(self):
        G = con.build("C2xC4")
        assert sorted(G.element_order(g) for g in range(8)) == [1, 2, 2, 2, 4, 4, 4, 4]

    @pytest.mark.parametrize("orders", [
        (2, 2), (3, 3), (5, 5), (7, 7), (13, 13), (19, 19), (2, 4), (4, 6),
        (2, 2, 3), (2, 2, 2, 3),
    ])
    def test_cyclic_products_match_mixed_radix_oracle(self, orders):
        G = con.build("x".join(f"C{m}" for m in orders))
        ref = abelian_group(orders)
        assert G.label == ref.label
        assert np.array_equal(G.table, ref.table)

    def test_dihedral_structure(self):
        G = con.build("D12")
        orders = sorted(G.element_order(g) for g in range(12))
        assert orders.count(2) == 7  # 6 reflections + the half-turn

    def test_dicyclic_has_unique_involution(self):
        for m in (2, 3, 4, 5, 7):
            G = con.build(f"Dic{m}")
            assert sum(1 for g in range(G.order) if G.element_order(g) == 2) == 1

    def test_semidirect_spec_fails_at_build(self):
        # syntactically valid, semantically rejected
        with pytest.raises(InputError):
            con.build("SD(4,2,3)")

    def test_semidirect_validation(self):
        with pytest.raises(InputError):
            con.build("SD(4,2,3)")  # gcd(a, b) != 1
        with pytest.raises(InputError):
            con.build("SD(7,2,3)")  # 3^2 != 1 mod 7
        with pytest.raises(InputError):
            con.build("SD(9,2,3)")  # twist not a unit

    def test_semidirect_relation(self):
        # y x y^-1 = x^t in C7 x| C3 with t = 2
        G = con.build("SD(7,3,2)")
        x, y = 3, 1  # id = i*b + j
        lhs = mul(G, mul(G, y, x), G.inv_array[y])
        assert lhs == 2 * 3  # x^2

    @pytest.mark.parametrize("label", ["S3xC5", "Dic5xC19", "A4xC3", "SD(7,8,6)xC3"])
    def test_non_abelian_products_match_oracle(self, label):
        left, right = label.split("x")
        want = product_table(con.build(left).table, con.build(right).table)
        assert np.array_equal(con.build(label).table, want)

    @pytest.mark.parametrize("label,budget", [("C2039", 1.2), ("Dic5xC19", 1.5), ("S3xC5xC7", 1.5)])
    def test_builders_allocate_about_one_table(self, label, budget):
        # the table itself plus small addends; int32 or int64 temporaries
        # cast to int16 afterwards would hold three to five tables' worth
        tracemalloc.start()
        try:
            G = con.build(label)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget * G.table.nbytes, peak / G.table.nbytes

    @pytest.mark.parametrize(
        "a,b,t", [(7, 8, 6), (31, 64, 30), (1021, 2, 1020), (2039, 1, 1), (1, 5, 0)]
    )
    def test_semidirect_table_matches_presentation(self, a, b, t):
        # the reference is int64, up to orders near the table cap, where an
        # int16 build that multiplied before reducing would overflow
        assert np.array_equal(con.build(f"SD({a},{b},{t})").table, presentation_table(a, b, t, 0))

    @pytest.mark.parametrize("label,a,t,s", [
        ("D2", 1, 0, 0), ("D4", 2, 1, 0), ("S3", 3, 2, 0), ("D12", 6, 5, 0), ("D2046", 1023, 1022, 0),
        ("Dic2", 4, 3, 2), ("Dic5", 10, 9, 5), ("Dic511", 1022, 1021, 511), ("Q20", 10, 9, 5),
    ])
    def test_dihedral_and_dicyclic_tables_match_presentation(self, label, a, t, s):
        # x^a = 1, y^2 = x^s, y x y^-1 = x^t, up to orders near the table cap
        assert np.array_equal(con.build(label).table, presentation_table(a, 2, t, s))

    @pytest.mark.parametrize("n", pqrs_orders(ENGINE_VALIDATION_CAP))
    def test_pqrs_descriptor_tables_match_presentation(self, n):
        # every table the pqrs claim builds for its engine re-check
        for d in enumerate_squarefree(n):
            table = presentation_table(d.a, d.b, d.t, 0)
            assert np.array_equal(con.build(d.label).table, table), d.label

    @pytest.mark.parametrize("label,generators", [
        ("A4", ((1, 2, 0, 3), (1, 0, 3, 2))),
    ])
    def test_named_tables_match_generator_closure(self, label, generators):
        G = con.build(label)
        assert G.label == label
        assert np.array_equal(G.table, perm_group(generators))

    def test_named(self):
        A4 = con.build("A4")
        assert A4.order == 12
        assert sorted(A4.element_order(g) for g in range(12)).count(3) == 8
        with pytest.raises(InputError):
            con.build("M11")

    def test_product_of_products(self):
        G = con.build("C2xC2xC2")
        assert G.order == 8
        assert all(G.element_order(g) <= 2 for g in range(8))
