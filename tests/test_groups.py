import tracemalloc

import numpy as np
import pytest

from conftest import (
    ORACLE_SPECS,
    all_subgroups_bruteforce,
    cyclic_subgroup,
    derived_subgroup_sweep,
    element_orders_sweep,
    is_abelian_pairwise,
    is_normal_bruteforce,
    join,
    mul,
    normal_subgroups_bruteforce,
    normal_subgroups_pairwise,
    power_map_stepping,
    quotient_coset_loop,
    sylow_growth_loop,
    validate,
)

from leinster import groups
from leinster.claims import ENGINE_VALIDATION_CAP, _is_abelian_subset, _is_cyclic, corpus_groups, pqrs_orders
from leinster.constructors import build
from leinster.errors import CapacityError, InputError
from leinster.groups import (
    GroupTable,
    _closure_ids,
    _conjugates,
    _is_normal,
    _power_map,
    center,
    derived_subgroup,
    direct_product,
    normal_subgroups,
    quotient,
    sylow,
)
from leinster.numtheory import factorize, prime_factors
from leinster.squarefree import enumerate_squarefree, realize


class TestGroupTable:
    def test_validate_accepts_good_tables(self):
        for spec in ("C6", "S3", "D8", "Dic5", "A4"):
            validate(build(spec))

    def test_validate_rejects_broken_table(self):
        t = build("C4").table.copy()
        t[2, 3] = 2  # breaks the Latin-square property
        with pytest.raises(InputError):
            validate(GroupTable(4, table=t, gens=range(4), label="broken"))

    def test_validate_rejects_nonassociative(self):
        # a quasigroup with identity that is not associative
        t = np.array([[0, 1, 2, 3, 4],
                      [1, 0, 3, 4, 2],
                      [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1],
                      [4, 3, 1, 2, 0]])
        with pytest.raises(InputError):
            validate(GroupTable(5, table=t, gens=range(5), label="loop"))

    def test_identity_and_inverses(self):
        G = build("Dic5")
        e = G.identity
        for g in range(G.order):
            assert mul(G, g, G.inv_array[g]) == e
            assert mul(G, e, g) == g

    def test_identity_away_from_id_zero(self):
        # C4 relabelled by sigma = (0 2)(1 3): the identity is id 2
        sigma = np.array([2, 3, 0, 1])
        t = build("C4").table
        relabelled = np.empty_like(t)
        relabelled[np.ix_(sigma, sigma)] = sigma[t]
        G = GroupTable(4, table=relabelled, gens=range(4))
        assert G.identity == 2
        # inverses in C4: 0 -> 0, 1 -> 3, 2 -> 2, 3 -> 1, carried over by sigma
        assert G.inv_array[sigma].tolist() == sigma[[0, 3, 2, 1]].tolist()

    def test_table_without_identity_is_rejected(self):
        # x * y = x - y mod 4 is a Latin square, but no row is the identity
        ids = np.arange(4)
        G = GroupTable(4, table=(ids[:, None] - ids[None, :]) % 4, gens=range(4))
        with pytest.raises(InputError, match="no identity"):
            G.identity

    def test_row_without_identity_is_rejected(self):
        # row 0 is the identity row, but row 2 holds no 0, so 2 has no inverse
        G = GroupTable(3, table=np.array([[0, 1, 2], [1, 2, 0], [2, 1, 1]]), gens=range(3))
        assert G.identity == 0
        with pytest.raises(InputError, match="missing inverses"):
            G.inv_array

    def test_element_orders(self):
        G = build("C12")
        assert sorted(G.element_order(g) for g in range(12)) == [
            1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12,
        ]

    def test_element_order_rejects_ids_out_of_range(self):
        G = build("C12")
        for g in (-1, 12):
            with pytest.raises(InputError, match="out of range"):
                G.element_order(g)

    def test_tables_are_int16(self):
        # every id is below TABLE_CAP, so int16 holds every table the
        # builders, direct_product and quotient make, near the cap included
        assert groups.TABLE_CAP < np.iinfo(np.int16).max
        tables = [build(label) for label in ("C2039", "D2046", "Dic511", "SD(31,64,30)", "A4xC3", "S3xC5xC7")]
        tables.append(direct_product(build("Dic5"), build("C19")))
        G = build("D2046")
        tables += [quotient(G, N) for N in normal_subgroups(G)]
        for G in tables:
            assert G.table.dtype == np.int16, G.label
            assert G.inv_array.dtype == np.int16, G.label

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            build("C30000")

    def test_capacity_error_above_table_cap(self):
        # the engine cap is the Cayley-table cap: no group above it is built
        for spec in ("C3000", "D4100", "C2xC1100"):
            with pytest.raises(CapacityError, match="exceeds engine capacity 2048"):
                build(spec)


class TestClosureAndClasses:
    def test_closure_at_the_lagrange_bound(self):
        # p is the smallest prime dividing n: a set of n // p elements may
        # still be a proper subgroup, a set of n // p + 1 elements generates G
        index_p = 0
        for G in list(corpus_groups(60)) + [build(spec) for spec in ORACLE_SPECS]:
            n = G.order
            if n == 1:
                continue
            cap = n // prime_factors(n)[0]
            for N in normal_subgroups(G):
                if N.size == cap:  # index p, so every such subgroup is normal
                    index_p += 1
                    assert _closure_ids(G, N).tolist() == N.tolist(), G.label
            for gens in (range(cap), range(cap + 1), [n - 1], [1, n - 1]):
                got = _closure_ids(G, gens).tolist()
                assert got == sorted(join(G, frozenset(gens), frozenset([G.identity]))), G.label
                if len(gens) > cap:
                    assert got == list(range(n)), G.label
        assert index_p > 0

    def test_subgroup_closure(self):
        G = build("S3xC5")
        H = _closure_ids(G, [G.order - 1])
        assert H.size in {2, 3, 5, 6, 10, 15, 30}

    def test_closure_of_identity(self):
        G = build("A4")
        assert _closure_ids(G, [G.identity]).tolist() == [G.identity]


class TestInvariantSubgroups:
    def test_center(self):
        assert center(build("A4")).size == 1
        assert center(build("Dic5")).size == 2
        assert center(build("C12")).size == 12
        assert center(build("D8")).size == 2
        # C1 has no generators, and in D2 and SD(1,5,0) id b is out of range
        assert center(build("C1")).size == 1
        assert center(build("D2")).size == 2
        assert center(build("SD(1,5,0)")).size == 5
        assert center(build("A4xC5")).size == 5

    def test_derived(self):
        assert derived_subgroup(build("S3")).size == 3
        assert derived_subgroup(build("A4")).size == 4
        assert derived_subgroup(build("Dic5")).size == 5
        assert derived_subgroup(build("C12")).size == 1
        assert derived_subgroup(build("C1")).size == 1
        assert derived_subgroup(build("D2")).size == 1
        assert derived_subgroup(build("SD(1,5,0)")).size == 1
        assert derived_subgroup(build("A4xC5")).size == 4

    def test_is_normal(self):
        # conjugation by the generators, which quotient uses, decides normality
        G = build("S3")
        rot = _closure_ids(G, [2])  # the rotation x of the presentation
        assert rot.size == 3 and _is_normal(G, rot)
        assert is_normal_bruteforce(G, frozenset(rot.tolist()))
        flip = _closure_ids(G, [1])  # the flip y
        assert flip.size == 2 and not _is_normal(G, flip)
        assert not is_normal_bruteforce(G, frozenset(flip.tolist()))


class TestNormalSubgroups:
    def test_against_bruteforce_oracle(self, oracle_group):
        engine = [frozenset(N.tolist()) for N in normal_subgroups(oracle_group)]
        assert len(set(engine)) == len(engine)
        assert set(engine) == normal_subgroups_bruteforce(oracle_group)

    def test_one_closure_per_class_of_cyclic_subgroups(self, oracle_group, monkeypatch):
        # one closure per conjugacy class of nontrivial cyclic subgroups of
        # prime-power order, each of a whole conjugacy class of elements
        G = oracle_group
        orders = element_orders_sweep(G)

        def conjugacy_class(g):
            return frozenset(mul(G, mul(G, x, g), G.inv_array[x]) for x in range(G.order))

        cyclic = {cyclic_subgroup(G, g) for g in range(G.order) if len(factorize(int(orders[g]))) == 1}
        classes = {
            frozenset(
                frozenset(mul(G, mul(G, x, c), G.inv_array[x]) for c in C) for x in range(G.order)
            )
            for C in cyclic
        }
        calls = []
        closure_ids = groups._closure_ids

        def counting(G, gens):
            calls.append(gens)
            return closure_ids(G, gens)

        monkeypatch.setattr(groups, "_closure_ids", counting)
        normal_subgroups(G)
        assert len(calls) == len(classes)
        for gens in calls:
            assert set(gens.tolist()) == conjugacy_class(int(gens[0]))

    def test_matches_pairwise_join_oracle(self):
        more = [realize(d) for n in (210, 330) for d in enumerate_squarefree(n)]
        # each repeats a proper seed closure; too large for the brute-force oracle
        more += [build("D10xD10"), build("D18xD18")]
        for G in list(corpus_groups(300)) + more:
            got = [N.tolist() for N in normal_subgroups(G)]
            assert got == [N.tolist() for N in normal_subgroups_pairwise(G)], G.label

    def test_matches_pairwise_join_oracle_on_pqrs_orders(self):
        # every group the pqrs claim re-checks on the engine
        for n in pqrs_orders(ENGINE_VALIDATION_CAP):
            for d in enumerate_squarefree(n):
                G = realize(d)
                got = [N.tolist() for N in normal_subgroups(G)]
                assert got == [N.tolist() for N in normal_subgroups_pairwise(G)], G.label

    def test_known_lattices(self):
        assert sorted(N.size for N in normal_subgroups(build("C6"))) == [1, 2, 3, 6]
        assert sorted(N.size for N in normal_subgroups(build("A4"))) == [1, 4, 12]
        assert sorted(N.size for N in normal_subgroups(build("SD(7,8,6)"))) == [
            1, 2, 4, 7, 14, 28, 56,
        ]

    def test_all_results_are_normal(self):
        G = build("D20")
        for N in normal_subgroups(G):
            assert _is_normal(G, N)


class TestQuotientSylowProduct:
    def test_quotient(self):
        G = build("Dic5")
        N = next(N for N in normal_subgroups(G) if N.size == 10)
        Q = quotient(G, N)
        validate(Q)
        assert Q.order == 2

    def test_quotient_of_a4(self):
        G = build("A4")
        N = next(N for N in normal_subgroups(G) if N.size == 4)
        Q = quotient(G, N)
        assert sorted(Q.element_order(g) for g in range(3)) == [1, 3, 3]

    def test_quotient_requires_normal(self):
        G = build("S3")
        H = _closure_ids(G, [1])
        with pytest.raises(InputError):
            quotient(G, H)

    def test_quotient_by_identity_allocates_about_two_tables(self):
        # the n x n gather and the quotient's own int16 table; an int64
        # gather cast afterwards would hold five tables' worth at once
        G = build("C1000")
        trivial = np.array([G.identity])
        tracemalloc.start()
        try:
            Q = quotient(G, trivial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Q.table.tolist() == G.table.tolist()
        assert peak < 2.5 * G.table.nbytes, peak / G.table.nbytes

    @pytest.mark.parametrize("spec,p,size", [
        ("Dic5", 2, 4), ("Dic5", 5, 5), ("A4", 2, 4), ("A4", 3, 3),
        ("S3xC5", 3, 3), ("S3xC5", 5, 5), ("SD(7,8,6)", 2, 8),
    ])
    def test_sylow(self, spec, p, size):
        G = build(spec)
        P = sylow(G, p)
        assert P.size == size

    def test_sylow_bad_prime(self):
        # p must be a prime dividing |G|: a divisor such as 4 or 6 is rejected
        for spec, p in [("S3", 5), ("C8", 4), ("C12", 6), ("D12", 6), ("C12", 1)]:
            with pytest.raises(InputError, match="is not a prime dividing the group order"):
                sylow(build(spec), p)

    def test_direct_product(self):
        G = direct_product(build("S3"), build("C5"))
        validate(G)
        assert G.order == 30
        assert sorted(N.size for N in normal_subgroups(G)) == [1, 3, 5, 6, 15, 30]


class TestElementOrdersAndSylow:
    def test_sweep_matches_scalar_and_permutation_orders(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        for G in list(corpus_groups(30)) + [build(spec) for spec in ORACLE_SPECS]:
            orders = element_orders_sweep(G).tolist()
            assert orders == [G.element_order(g) for g in range(G.order)], G.label
            # the order of g is the order of left multiplication by g
            regular = [combinatorics.Permutation(G.table[g].tolist()).order() for g in range(G.order)]
            assert orders == regular, G.label

    def test_sylow_on_corpus(self):
        for G in corpus_groups(120):
            n = G.order
            for p in prime_factors(n):
                P = sylow(G, p)
                assert _closure_ids(G, P).tolist() == P.tolist(), (G.label, p)
                assert P.size == p ** dict(factorize(n))[p], (G.label, p)
                assert all(P.size % G.element_order(g) == 0 for g in P.tolist()), (G.label, p)


def oracle_corpus():
    return list(corpus_groups(120)) + [build(spec) for spec in ORACLE_SPECS]


class TestPrimitivesMatchOracles:
    """The engine's primitives equal their earlier implementations, kept in
    conftest as oracles, exactly."""

    def test_power_map(self):
        for G in oracle_corpus():
            n = G.order
            exps = {0, 1, 2, n, n + 1}
            exps |= {p**k for p, k in factorize(n)} | {n // p for p in prime_factors(n)}
            for e in sorted(exps):
                assert _power_map(G, e).tolist() == power_map_stepping(G, e).tolist(), (G.label, e)

    def test_is_cyclic_on_groups_and_quotients(self):
        # C1, non-abelian groups and the non-cyclic abelian quotients
        for G in oracle_corpus():
            for Q in [G] + [quotient(G, N) for N in normal_subgroups(G)]:
                assert _is_cyclic(Q) == (element_orders_sweep(Q) == Q.order).any(), (G.label, Q.order)

    def test_cyclic_derived_quotient_decides_every_abelian_quotient(self):
        # G/N is abelian iff G' <= N; the per-N quotients are the oracle
        not_cyclic = set()
        for G in oracle_corpus():
            D = derived_subgroup(G)
            above = [N for N in normal_subgroups(G) if np.isin(D, N).all()]
            every = all(_is_cyclic(quotient(G, N)) for N in above)
            assert _is_cyclic(quotient(G, D)) == every, G.label
            if not every:
                not_cyclic.add(G.label)
        assert {"C2xC2", "C2xC2xC3"} <= not_cyclic

    def test_is_abelian_subset_on_every_normal_subgroup(self):
        seen = set()
        for G in oracle_corpus():
            for N in normal_subgroups(G):
                got = _is_abelian_subset(G, N)
                assert got == is_abelian_pairwise(G, N), (G.label, N.size)
                seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("label", ["D2046", "Dic511"])
    def test_is_abelian_subset_allocates_about_one_and_a_half_blocks(self, label):
        # the |N| x |N| gather in the table's dtype and its bool compare; a
        # gather widened to int64 would hold about four times as much
        G = build(label)
        (N,) = [N for N in normal_subgroups(G) if 2 * N.size == G.order]
        tracemalloc.start()
        try:
            assert _is_abelian_subset(G, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = N.size**2 * G.table.itemsize
        assert peak < 1.6 * block, peak / block

    def test_derived_subgroup(self):
        # in the A4 products the closure of the generators' commutators is
        # not normal, so the conjugates add elements
        extra = [build(spec) for spec in ("C2xA4", "A4xC5", "A4xS3", "A4xD8")]
        for G in oracle_corpus() + extra:
            assert derived_subgroup(G).tolist() == derived_subgroup_sweep(G).tolist(), G.label

    def test_builder_generators_generate_the_table(self):
        # the generators center and derived_subgroup read: from the
        # metacyclic builder (C1 has none, and id b is out of range in D2 and
        # SD(1,5,0)), the named permutations, products and quotients
        more = [build(spec) for spec in ("C1", "D2", "Dic2", "SD(1,5,0)", "A4xC5", "A4xD8")]
        for G in oracle_corpus() + more:
            assert _closure_ids(G, G.gens).tolist() == list(range(G.order)), G.label
        for G in oracle_corpus():
            for N in normal_subgroups(G):
                Q = quotient(G, N)
                assert _closure_ids(Q, Q.gens).tolist() == list(range(Q.order)), (G.label, N.size)

    def test_quotient_by_every_normal_subgroup(self):
        for G in oracle_corpus():
            for N in normal_subgroups(G):
                got, want = quotient(G, N), quotient_coset_loop(G, N)
                assert (got.order, got.label) == (want.order, want.label), (G.label, N.size)
                assert got.table.tolist() == want.table.tolist(), (G.label, N.size)

    def test_sylow_at_every_prime(self):
        # the corpus has few non-normal, non-cyclic Sylow subgroups, where
        # the growth order decides which Sylow subgroup comes back
        more = [build(spec) for spec in ("D24", "S3xS3", "D8xS3", "Dic3xS3")]
        for G in oracle_corpus() + more:
            for p in prime_factors(G.order):
                assert sylow(G, p).tolist() == sylow_growth_loop(G, p).tolist(), (G.label, p)

    def test_is_normal_on_every_subgroup(self, oracle_group):
        G = oracle_group
        for sub in all_subgroups_bruteforce(G):
            ids = np.array(sorted(sub))
            assert _is_normal(G, ids) == is_normal_bruteforce(G, sub), (G.label, sorted(sub))

    def test_conjugates_match_the_table(self):
        for G in oracle_corpus():
            # every other id, descending: a proper subset in no sorted order
            xs = np.arange(G.order)[1::2][::-1]
            cs = np.arange(G.order)
            conj = _conjugates(G, xs, cs)
            assert conj.shape == (xs.size, cs.size), G.label
            for i, x in enumerate(xs.tolist()):
                for j, c in enumerate(cs.tolist()):
                    assert conj[i, j] == mul(G, mul(G, x, c), G.inv_array[x]), (G.label, x, c)

    def test_results_are_ascending_closed_id_arrays(self):
        # a subgroup is the strictly ascending int64 array of its ids
        for G in oracle_corpus():
            n = G.order
            subgroups = [*normal_subgroups(G), center(G), derived_subgroup(G)]
            subgroups += [sylow(G, p) for p in prime_factors(n)]
            for S in subgroups:
                assert S.dtype == np.int64, G.label
                assert (np.diff(S) > 0).all() and 0 <= S[0] and S[-1] < n, G.label
                assert _closure_ids(G, S).tolist() == S.tolist(), G.label


def _generators(G, ids):
    """A few of ids that generate the same subgroup: each one chosen lies
    outside the closure of those before it."""
    gens, span = [], {G.identity}
    for g in sorted(ids):
        if g not in span:
            gens.append(g)
            span = join(G, frozenset(span), frozenset([g]))
    return gens


class TestRegularPermutationRepresentation:
    def test_center_derived_and_sylow_orders(self):
        # g acts on the ids by left multiplication, a faithful permutation
        # representation of G, so sympy computes the subgroup orders independently
        combinatorics = pytest.importorskip("sympy.combinatorics")

        def perms(G, ids):
            return [combinatorics.Permutation(G.table[g].tolist()) for g in ids]

        for G in oracle_corpus():
            n = G.order
            P = combinatorics.PermutationGroup(perms(G, _generators(G, range(n)) or [G.identity]))
            assert P.order() == n, G.label
            # sympy's center is slow on abelian groups, which are their own center
            z = n if P.is_abelian else P.center().order()
            assert center(G).size == z, G.label
            assert derived_subgroup(G).size == P.derived_subgroup().order(), G.label
            for p in prime_factors(n):
                S = sylow(G, p)
                gens = perms(G, _generators(G, S.tolist()) or [G.identity])
                # S is a subgroup, and its order is the p-part of |G|
                assert combinatorics.PermutationGroup(gens).order() == S.size, (G.label, p)
                assert S.size % p == 0 and (n // S.size) % p != 0, (G.label, p)
