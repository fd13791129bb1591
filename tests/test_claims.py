import ast
import hashlib
import itertools
import json
import math
import re
import weakref
from pathlib import Path

import pytest

from conftest import census_universe_pooled, dicyclic_normal_orders, split_metacyclic_specs_bruteforce

from leinster import analysis, claims
from leinster.claims import (
    CENSUS_CAP,
    _split_metacyclic_specs,
    census_universe,
    claim_bound,
    claim_equation,
    cmd_census,
    cmd_verify_p2qr,
    cmd_verify_pqrs,
    cmd_verify_theorems,
    corpus_groups,
    dihedral_normal_orders,
    list_claim_ids,
    p2qr_candidates,
    pqrs_orders,
)
from leinster.analysis import (
    LeinsterReport,
    analyze,
    analyze_coprime_product,
    analyze_cyclic,
    analyze_descriptor,
    analyze_split_metacyclic,
)
from leinster.cli import main
from leinster.constructors import build
from leinster.errors import InputError
from leinster.groups import TABLE_CAP, derived_subgroup, normal_subgroups
from leinster.numtheory import BOUNDS, EQUATIONS, divisors, factorize, is_squarefree, primes_upto
from leinster.squarefree import (
    MetacyclicDescriptor,
    canonical_twist,
    enumerate_squarefree,
    split_metacyclic_normal_orders,
)


def _action_blocks(a: int, b: int, t: int) -> list[tuple[set, set]]:
    """Connected components (prime powers q || a, primes r | b) of the action
    graph of SD(a,b,t), whose edges q - r are the r dividing the order of t
    mod q, found by repeated multiplication."""
    blocks = []
    for p, k in factorize(a):
        q = p**k
        order = next(m for m in range(1, b + 1) if pow(t, m, q) == 1)
        blocks.append(({q}, {r for r, _ in factorize(b) if order % r == 0}))
    blocks += [(set(), {r}) for r, _ in factorize(b)]
    merged = []
    for qs, rs in blocks:
        for other in [m for m in merged if m[1] & rs]:
            merged.remove(other)
            qs, rs = qs | other[0], rs | other[1]
        merged.append((qs, rs))
    return merged


class TestCensus:
    def test_hits_at_100(self):
        res = cmd_census(100)
        assert res.status == "verified"
        hits = {h["label"]: h["sigma"] for h in res.evidence["hits"]}
        assert hits == {"C6": 12, "Dic3": 24, "C28": 56, "S3xC5": 60, "SD(7,8,6)": 112}

    def test_prefix_property(self):
        small = cmd_census(60).evidence["hits"]
        large = cmd_census(200).evidence["hits"]
        assert large[: len(small)] == small

    # 1001 puts order 501 above bound/2, where decomposable specs are skipped;
    # 12 and 56 are the orders of A4 and SD(7,8,6), and 111 and 112 the two
    # sides of the bound/2 rule at 56.  The oracle offers every named group
    # through the engine, the census only A4, from its normal orders.
    @pytest.mark.parametrize("bound", [1, 2, 12, 56, 80, 111, 112, 400, 1001, 2000])
    def test_streamed_census_equals_pooled_oracle(self, bound):
        universe = census_universe_pooled(bound)
        hits = [r for r in universe if r.is_leinster]
        assert census_universe(bound) == (len(universe), hits, [])

    def test_universe_builds_no_cayley_table(self, monkeypatch):
        expected = census_universe(2000)

        def no_table(*args, **kwargs):
            raise AssertionError("census_universe built a Cayley table")

        monkeypatch.setattr(claims.constructors, "build", no_table)
        monkeypatch.setattr(claims.GroupTable, "__init__", no_table)
        assert census_universe(2000) == expected

    def test_rejects_bad_bound(self):
        with pytest.raises(InputError):
            census_universe(0)

    def test_bound_one_is_partial(self):
        # no group of order >= 2 fits, so nothing was checked
        res = cmd_census(1)
        assert res.evidence["universe_size"] == 0
        assert res.status == "partial"

    def test_structural_dihedral_and_dicyclic_orders_match_engine(self):
        for m in range(1, 151):
            assert dihedral_normal_orders(m) == list(analyze(build(f"D{2 * m}")).normal_orders)
        # the census offers Dic{m} for odd m up to 2499 through SD(m,4,m-1);
        # the engine reaches m = 511 (order 2044)
        for m in [*range(2, 76), 77, 95, 127, 255, 511]:
            engine = list(analyze(build(f"Dic{m}")).normal_orders)
            assert dicyclic_normal_orders(m) == engine, m
            if m % 2:
                assert split_metacyclic_normal_orders(m, 4, m - 1) == engine, m

    def test_larger_hits_confirmed_by_engine(self):
        # the census bound 2000 finds hits at orders 760 and 992 via the
        # structural path; re-check both on the explicit engine
        from leinster import constructors as con
        from leinster.analysis import analyze

        hits = {h["label"] for h in cmd_census(2000).evidence["hits"]}
        assert {"SD(95,8,18)", "SD(31,32,30)"} <= hits
        for a, b, t in ((95, 8, 18), (31, 32, 30)):
            rep = analyze(con.build(f"SD({a},{b},{t})"))
            assert rep.is_leinster

    def test_split_metacyclic_specs_match_bruteforce(self):
        # the specs are the twists that fix no prime power of a
        for bound in (1, 6, 2000):
            brute = [
                (a, b, t)
                for a, b, t in split_metacyclic_specs_bruteforce(bound)
                if all(t % p**k != 1 for p, k in factorize(a))
            ]
            for n in range(2, bound + 1):
                assert _split_metacyclic_specs(n) == [s for s in brute if s[0] * s[1] == n], n

    def test_skipped_offers_cannot_win(self):
        # the premise of each offer census_universe does not build, n <= 2000
        specs = {}  # every split metacyclic spec (a, b, t) with t != 1, by order
        for a, b, t in split_metacyclic_specs_bruteforce(2000):
            specs.setdefault(a * b, []).append((a, b, t))
        fps = {}  # descriptor fingerprints by squarefree order
        for n in range(2, 2001):
            if not is_squarefree(n):
                continue
            fps[n] = {analyze_descriptor(d).normal_orders for d in enumerate_squarefree(n)}
            # the cyclic descriptor is C{n}
            assert analyze_descriptor(MetacyclicDescriptor(n, 1, 1)) == analyze_cyclic(n)
            # every spec of squarefree order is one of the descriptors
            for a, b, t in specs.get(n, ()):
                assert analyze_split_metacyclic(a, b, t).normal_orders in fps[n], (a, b, t)
            if n % 2 == 0 and n >= 4:
                assert tuple(dihedral_normal_orders(n // 2)) in fps[n], n
            # and so is every coprime product of two of them
            for o1 in divisors(n):
                o2 = n // o1
                if 1 < o1 < o2:
                    for f1 in fps[o1]:
                        for f2 in fps[o2]:
                            prod = tuple(sorted(m1 * m2 for m1 in f1 for m2 in f2))
                            assert prod in fps[n], (o1, o2)
        for n in range(2, 2001):
            # C{o1}xC{o2} with coprime orders is C{n}
            for o1 in divisors(n):
                o2 = n // o1
                if 1 < o1 < o2 and math.gcd(o1, o2) == 1:
                    prod = analyze_coprime_product(analyze_cyclic(o1), analyze_cyclic(o2))
                    assert prod.normal_orders == analyze_cyclic(n).normal_orders
            if is_squarefree(n):
                continue
            # a twist fixing a prime power q || a splits off C_q; so does the
            # product Q of all of them, and SD(a/Q, b, t) then fixes none, so
            # it is offered at order n/Q
            for a, b, t in specs.get(n, ()):
                spec = analyze_split_metacyclic(a, b, t).normal_orders
                fixed = [p**k for p, k in factorize(a) if t % p**k == 1]
                for q in fixed + [math.prod(fixed)]:
                    h = analyze_split_metacyclic(a // q, b, t % (a // q))
                    prod = analyze_coprime_product(h, analyze_cyclic(q))
                    assert prod.normal_orders == spec, (a, b, t, q)

    def test_spec_keywords_filter_the_default_list(self):
        # indecomposable drops the specs whose action graph is disconnected,
        # checked at every order the census applies the rule to
        for n in range(2, CENSUS_CAP + 1):
            connected = [s for s in _split_metacyclic_specs(n) if len(_action_blocks(*s)) == 1]
            assert _split_metacyclic_specs(n, indecomposable=True) == connected, n

    def test_decomposable_specs_are_offered_as_products(self):
        # the premise of the rule census_universe applies above bound/2, for
        # n <= 2000: a spec with a disconnected action graph is one block
        # times the rest, and each side is offered at its own order
        descriptor_fps = {}
        for n in range(2, 2001):
            if is_squarefree(n):
                descriptor_fps[n] = {analyze_descriptor(d).normal_orders for d in enumerate_squarefree(n)}
                continue
            for a, b, t in _split_metacyclic_specs(n):
                blocks = _action_blocks(a, b, t)
                if len(blocks) == 1:
                    continue
                qs, rs = blocks[0]
                a1 = math.prod(qs)
                b1 = math.prod(r**k for r, k in factorize(b) if r in rs)
                sides = []
                for x, y in ((a1, b1), (a // a1, b // b1)):
                    assert 2 * x * y <= n, (a, b, t)
                    if x == 1 or y == 1:
                        sides.append(analyze_cyclic(x * y))
                        continue
                    # the side's C_y is generated by the (b / y)-th power of C_b's generator
                    side = analyze_split_metacyclic(x, y, pow(t, b // y, x))
                    if is_squarefree(x * y):
                        assert side.normal_orders in descriptor_fps[x * y], (a, b, t, x, y)
                    else:
                        twist = canonical_twist(x, y, pow(t, b // y, x))
                        assert (x, y, twist) in _split_metacyclic_specs(x * y), (a, b, t)
                    sides.append(side)
                product = analyze_coprime_product(*sides)
                assert product.normal_orders == analyze_split_metacyclic(a, b, t).normal_orders, (a, b, t)

    def test_dihedral_and_dicyclic_twins_are_not_offered(self):
        # the premise of the D and Dic rules in census_universe: Dic{m} for
        # even m is D{4m}, and for odd a SD(a,2,a-1) is D{2a} (a descriptor
        # when a is squarefree) and SD(a,4,a-1) is Dic{a}
        for m in range(2, 2501, 2):
            assert dicyclic_normal_orders(m) == dihedral_normal_orders(2 * m), m
        for a in range(3, 2501, 2):
            assert analyze_split_metacyclic(a, 2, a - 1).normal_orders == tuple(dihedral_normal_orders(a)), a
            assert analyze_split_metacyclic(a, 4, a - 1).normal_orders == tuple(dicyclic_normal_orders(a)), a

    def test_holder_mismatch_makes_census_partial(self, monkeypatch):
        assert "holder_mismatch" not in cmd_census(60).evidence
        real = claims.enumerate_squarefree
        monkeypatch.setattr(
            claims, "enumerate_squarefree", lambda n: real(n)[1:] if n == 42 else real(n)
        )
        res = cmd_census(60)
        assert res.status == "partial"
        assert res.evidence["holder_mismatch"] == [42]

    def test_engine_mismatch_makes_census_partial(self, monkeypatch):
        assert "engine_mismatch" not in cmd_census(100).evidence
        real = claims.census_universe

        def tampered(bound):
            # SD(7,8,6) with one normal order moved: still a hit (sigma
            # unchanged), but no longer what the engine computes
            size, hits, holder_mismatch = real(bound)
            out = []
            for r in hits:
                if r.label == "SD(7,8,6)":
                    orders = list(r.normal_orders)
                    orders[1] -= 1
                    orders[2] += 1
                    r = LeinsterReport(r.label, r.order, tuple(orders))
                out.append(r)
            return size, out, holder_mismatch

        monkeypatch.setattr(claims, "census_universe", tampered)
        res = cmd_census(100)
        assert res.status == "partial"
        assert res.evidence["engine_mismatch"] == ["SD(7,8,6)"]

    def test_unparseable_hit_label_makes_census_partial(self, monkeypatch):
        real = claims.census_universe

        def tampered(bound):
            size, hits, holder_mismatch = real(bound)
            hits = [LeinsterReport("C6?", r.order, r.normal_orders) if r.label == "C6" else r for r in hits]
            return size, hits, holder_mismatch

        monkeypatch.setattr(claims, "census_universe", tampered)
        res = cmd_census(30)
        assert res.status == "partial"
        assert res.evidence["engine_mismatch"] == ["C6?"]


class TestPqrs:
    def test_orders(self):
        assert pqrs_orders(250) == [210]
        assert 2310 not in pqrs_orders(2500)
        assert pqrs_orders(500) == [210, 330, 390, 462]

    def test_orders_leave_the_factorization_cache_alone(self):
        # the cache would otherwise hold a factorization of every n <= bound
        factorize.cache_clear()
        pqrs_orders(2500)
        assert factorize.cache_info().currsize == 0

    def test_small_bound_is_vacuous(self):
        # no order of four distinct primes is <= 100: nothing was checked
        res = cmd_verify_pqrs(100)
        assert res.status == "partial"
        assert res.evidence["orders_checked"] == 0

    @pytest.mark.parametrize("bound", [0, -5])
    def test_rejects_bad_bound(self, bound):
        with pytest.raises(InputError):
            cmd_verify_pqrs(bound)

    def test_bound_500(self):
        res = cmd_verify_pqrs(500)
        assert res.status == "verified"
        assert res.evidence["leinster_hits"] == []
        per = res.evidence["per_order"]
        assert all(d["count_matches"] for d in per)
        assert all(d["engine_validated"] for d in per)  # all orders <= 600 here
        assert all(8 <= 2 ** 4 and d["tau_min"] >= 2 for d in per)

    @pytest.mark.parametrize("jobs,cpus,workers", [(64, 2, 2), (3, 8, 3), (4, None, 1)])
    def test_jobs_clamped_to_cpu_count(self, jobs, cpus, workers, monkeypatch):
        # a stand-in pool records max_workers and chunksize, and maps in this process
        import concurrent.futures

        seen, chunks = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                chunks.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(claims.os, "cpu_count", lambda: cpus)
        assert cmd_verify_pqrs(500, jobs=jobs).status == "verified"
        assert seen == [workers]
        assert chunks and min(chunks) >= 1

    def test_holder_mismatch_makes_pqrs_partial(self, monkeypatch):
        # a failed cross-check is not a counterexample
        real = claims.holder_count
        monkeypatch.setattr(claims, "holder_count", lambda n: real(n) + (n == 330))
        res = cmd_verify_pqrs(500)
        assert res.status == "partial"
        assert [d["order"] for d in res.evidence["per_order"] if not d["count_matches"]] == [330]

    def test_engine_mismatch_makes_pqrs_partial(self, monkeypatch):
        real = claims.analyze

        def tampered(G):
            r = real(G)
            return LeinsterReport(r.label, r.order, r.normal_orders[1:]) if G.order == 210 else r

        monkeypatch.setattr(claims, "analyze", tampered)
        res = cmd_verify_pqrs(500)
        assert res.status == "partial"
        assert [d["order"] for d in res.evidence["per_order"] if not d["engine_validated"]] == [210]

    def test_hit_makes_pqrs_refuted(self, monkeypatch):
        # the tampered report is Leinster (1 + 3 + 10 + 21 + 70 + 105 + 210 = 420)
        # and also fails the engine re-check: the hit still refutes
        real = claims.analyze_descriptor
        target = enumerate_squarefree(210)[0]

        def tampered(d):
            r = real(d)
            return LeinsterReport(r.label, r.order, (1, 3, 10, 21, 70, 105, 210)) if d == target else r

        monkeypatch.setattr(claims, "analyze_descriptor", tampered)
        res = cmd_verify_pqrs(500)
        assert res.status == "refuted"
        assert [h["label"] for h in res.evidence["leinster_hits"]] == [real(target).label]

    def test_jobs_match_serial(self):
        serial = cmd_verify_pqrs(400)
        parallel = cmd_verify_pqrs(400, jobs=2)
        assert serial.evidence == parallel.evidence


class TestP2qr:
    def test_candidates_include_the_two_hits(self):
        hits = [r.label for r in p2qr_candidates(2, 5, 19) if r.is_leinster]
        assert hits == ["Dic5xC19"]
        hits = [r.label for r in p2qr_candidates(2, 7, 13) if r.is_leinster]
        assert hits == ["Dic7xC13"]

    def test_no_hits_for_odd_p(self):
        assert [r for r in p2qr_candidates(3, 5, 7) if r.is_leinster] == []

    def test_verify(self):
        res = cmd_verify_p2qr(19)
        assert res.status == "verified"
        assert sorted(h["label"] for h in res.evidence["hits"]) == [
            "Dic5xC19", "Dic7xC13",
        ]
        assert "partial" in res.evidence["coverage"]

    def test_verify_below_hits(self):
        res = cmd_verify_p2qr(7)
        assert res.status == "verified"
        assert res.evidence["hits"] == []

    def test_missing_expected_hit_is_partial(self, monkeypatch):
        # a candidate search that misses Dic5xC19 has found no counterexample
        real = claims.p2qr_candidates

        def tampered(p, q, r):
            return [] if (p, q, r) == (2, 5, 19) else real(p, q, r)

        monkeypatch.setattr(claims, "p2qr_candidates", tampered)
        res = cmd_verify_p2qr(19)
        assert res.status == "partial"
        assert [h["label"] for h in res.evidence["hits"]] == ["Dic7xC13"]

    def test_no_prime_triple_is_partial(self):
        res = cmd_verify_p2qr(3)
        assert res.evidence["candidates_checked"] == 0
        assert res.status == "partial"

    @pytest.mark.parametrize("prime_bound,sha256", [
        (19, "85581c6414e0295ecdf61e8c88bf22bb225fabde076f1c46839db2388de87f9d"),
        (23, "153c881a2cb7062698c30a9aa7be3ba1effbfe7f240f59ef00873811a865be71"),
        (53, "4ad0fe73cdb37d01046ad78f8923e48869318fb363550a8c0598c8e387ec888b"),
    ])
    def test_report_is_pinned(self, prime_bound, sha256, tmp_path):
        # SHA-256 of the JSON report with every elapsed_ms zeroed, as in bench/run.py
        out = tmp_path / "p2qr.json"
        assert main(["p2qr", "--prime-bound", str(prime_bound), "--format", "json", "--out", str(out)]) == 0
        report = re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', out.read_bytes())
        assert hashlib.sha256(report).hexdigest() == sha256

    @pytest.mark.parametrize("prime_bound", [59, 113])
    def test_verify_beyond_the_engine_capacity(self, prime_bound):
        # from prime bound 59 on, C47xC47 (order 2209) is past the engine's table cap
        res = cmd_verify_p2qr(prime_bound)
        assert res.status == "verified"
        assert [h["label"] for h in res.evidence["hits"]] == ["Dic7xC13", "Dic5xC19"]

    def test_verify_builds_no_cayley_table(self, monkeypatch):
        def no_engine(*args):
            raise AssertionError("p2qr used the explicit engine")

        monkeypatch.setattr(claims.constructors, "build", no_engine)
        monkeypatch.setattr(claims, "analyze", no_engine)
        assert cmd_verify_p2qr(23).status == "verified"

    def test_candidates_match_the_engine(self):
        checked = 0
        for p, q, r in itertools.combinations(primes_upto(13), 3):
            for rep in p2qr_candidates(p, q, r):
                if rep.order <= TABLE_CAP:
                    assert analyze(build(rep.label)).normal_orders == rep.normal_orders, rep.label
                    checked += 1
        assert checked == 97


@pytest.fixture(scope="module")
def results():
    return {r.claim_id: r for r in cmd_verify_theorems(60)}


class TestTheoremClaims:
    def test_all_verified(self, results):
        assert all(r.status == "verified" for r in results.values())

    def test_expected_claims_present(self, results):
        for cid in (
            "thm-sigma-tau-multiplicative",
            "thm-prime-index-abelian",
            "thm-normal-complement",
            "thm-cyclic-quotient",
            "thm-tau-gt-7",
            "thm-cyclic-perfect",
            "rem-odd-normal-parity",
        ):
            assert cid in results

    def test_multiplicativity_pair_count(self, results):
        assert results["thm-sigma-tau-multiplicative"].evidence["pairs_checked"] >= 50

    def test_too_few_pairs_is_partial_not_refuted(self):
        # corpus bound 0 leaves only the named groups, which form no pair
        res = claims.property_suites(corpus_groups(0))[0]
        assert res.claim_id == "thm-sigma-tau-multiplicative"
        assert res.evidence == {"pairs_checked": 0, "failures": []}
        assert res.status == "partial"

    @pytest.mark.parametrize("name,count_key", [
        ("claim_prime_index_abelian", "instances_checked"),
        ("claim_normal_complement", "instances_checked"),
        ("claim_cyclic_quotients", "quotients_checked"),
        ("claim_odd_normal_parity", "groups_checked"),
        ("claim_tau_gt_7", "groups_checked"),
    ])
    def test_nothing_checked_is_partial_not_verified(self, name, count_key):
        # an empty corpus or an empty list of census hits
        suites = {
            "claim_prime_index_abelian": claims._PrimeIndexAbelian,
            "claim_normal_complement": claims._NormalComplement,
            "claim_cyclic_quotients": claims._CyclicQuotients,
        }
        if name in suites:
            res = claims._walk([], [suites[name]()])[0]
        else:
            res = getattr(claims, name)([])
        assert res.evidence == {count_key: 0, "failures": []}
        assert res.status == "partial"

    def test_suites_compute_each_lattice_and_derived_subgroup_once(self, monkeypatch):
        # the groups are kept alive, so their ids stay distinct
        calls = {"normal_subgroups": [], "derived_subgroup": []}

        def counting(module, name):
            real = getattr(module, name)

            def record(G):
                calls[name].append(G)
                return real(G)

            return record

        for module, name in (
            (claims, "normal_subgroups"),
            (analysis, "normal_subgroups"),
            (claims, "derived_subgroup"),
        ):
            monkeypatch.setattr(module, name, counting(module, name))
        corpus = list(corpus_groups(60))
        results = claims.property_suites(corpus)
        assert all(res.status == "verified" for res in results)
        for name, groups in calls.items():
            assert len({id(G) for G in groups}) == len(groups), name
        # one lattice per corpus group, and one per product checked on the engine
        in_corpus = {id(G) for G in corpus}
        assert sum(id(G) in in_corpus for G in calls["normal_subgroups"]) == len(corpus)
        pairs = results[0].evidence["pairs_checked"]
        assert len(calls["normal_subgroups"]) == len(corpus) + pairs
        assert calls["derived_subgroup"]

    def test_cyclic_quotients_build_one_quotient_per_group(self, monkeypatch):
        # G/G' alone, once for each group with sigma(G) <= 2|G| and G' > 1;
        # G/1 is G, so an abelian group is decided with no quotient table
        calls = []
        real = claims.quotient

        def recording(G, N):
            calls.append((G.label, N.tolist()))
            return real(G, N)

        monkeypatch.setattr(claims, "quotient", recording)
        corpus = list(corpus_groups(60))
        res = claims._walk(corpus, [claims._CyclicQuotients()])[0]
        qualifying = [G for G in corpus if sum(N.size for N in normal_subgroups(G)) <= 2 * G.order]
        derived = [(G.label, derived_subgroup(G).tolist()) for G in qualifying]
        assert calls == [(label, ids) for label, ids in derived if len(ids) > 1]
        assert ("C15", [0]) in derived and "C15" not in {label for label, _ in calls}
        assert res.status == "verified"
        assert res.evidence["quotients_checked"] > len(qualifying)

    def test_non_cyclic_derived_quotient_refutes(self, monkeypatch):
        corpus = list(corpus_groups(60))
        honest = claims._walk(corpus, [claims._CyclicQuotients()])[0]
        monkeypatch.setattr(claims, "_is_cyclic", lambda G: False)
        res = claims._walk(corpus, [claims._CyclicQuotients()])[0]
        qualifying = [G for G in corpus if sum(N.size for N in normal_subgroups(G)) <= 2 * G.order]
        assert res.status == "refuted"
        assert res.evidence["failures"] == [(G.label, derived_subgroup(G).size) for G in qualifying]
        assert res.evidence["quotients_checked"] == honest.evidence["quotients_checked"]
        assert honest.status == "verified"
        json.dumps(res.to_json())  # the count is a Python int

    def test_theorems_stream_the_corpus(self, monkeypatch):
        # the groups of order <= 60 stay for the multiplicativity pairs; of
        # the larger ones, only the last group drawn may still be alive
        real = claims.corpus_groups
        large = []

        def streaming(bound):
            for G in real(bound):
                assert sum(ref() is not None for ref in large) <= 1, G.label
                if G.order > 60:
                    large.append(weakref.ref(G))
                yield G

        monkeypatch.setattr(claims, "corpus_groups", streaming)
        streamed = cmd_verify_theorems(120)[:4]
        corpus = list(real(120))
        assert len(large) == sum(G.order > 60 for G in corpus) > 1
        one_at_a_time = [
            claims._walk(corpus, [suite()])[0]
            for suite in (
                claims._Multiplicativity,
                claims._PrimeIndexAbelian,
                claims._NormalComplement,
                claims._CyclicQuotients,
            )
        ]
        assert [(r.claim_id, r.status, r.evidence) for r in streamed] == [
            (r.claim_id, r.status, r.evidence) for r in one_at_a_time
        ]

    def test_hits_without_a_four_prime_order_leave_tau_gt_7_partial(self):
        hits = [
            LeinsterReport("C6", 6, (1, 2, 3, 6)),
            LeinsterReport("SD(7,8,6)", 56, (1, 2, 4, 7, 14, 28, 56)),
        ]
        res = claims.claim_tau_gt_7(hits)
        assert res.evidence == {"groups_checked": 0, "failures": []}
        assert res.status == "partial"

    def test_cyclic_sigma_sieve_matches_analyze_cyclic(self):
        sigma = claims._cyclic_sigmas(10000)
        assert sigma[1:] == [analyze_cyclic(n).sigma for n in range(1, 10001)]

    def test_cyclic_perfect_disagreement_refutes(self, monkeypatch):
        real = claims.is_perfect
        monkeypatch.setattr(claims, "is_perfect", lambda n: n != 28 and real(n))
        res = claims.claim_cyclic_perfect()
        assert res.status == "refuted"
        assert res.evidence["failures"] == [28]

    def test_equation_claims_carry_oracle_agreement(self, results):
        for eq_id in EQUATIONS:
            assert results[f"eq:{eq_id}"].evidence["oracle_agrees"]

    def test_noP_b_has_the_known_arithmetic_solution(self):
        res = claim_equation("thm26-noP-b")
        assert res.status == "verified"
        assert res.evidence["solutions"] == [[2, 3, 11]]

    def test_bound_claims(self):
        for bid in BOUNDS:
            res = claim_bound(bid)
            assert res.status == "verified"
            assert res.evidence["strictly_below_one"]

    def test_results_serialize(self, results):
        for r in results.values():
            json.dumps(r.to_json())


def test_list_claim_ids():
    ids = list_claim_ids()
    assert "census-<bound>" in ids
    assert len(ids) == len(set(ids))
    assert sum(1 for i in ids if i.startswith("bound:")) == len(BOUNDS)


@pytest.mark.parametrize("name,call", [
    ("cmd_census", lambda: cmd_census(30)),
    ("cmd_verify_pqrs", lambda: cmd_verify_pqrs(30, jobs=2)),
    ("cmd_verify_p2qr", lambda: cmd_verify_p2qr(7)),
    ("claim_odd_normal_parity", lambda: claims.claim_odd_normal_parity([])),
    ("claim_tau_gt_7", lambda: claims.claim_tau_gt_7([])),
    ("claim_cyclic_perfect", claims.claim_cyclic_perfect),
    ("claim_equation", lambda: claim_equation("lemma23")),
    ("claim_bound", lambda: claim_bound(sorted(BOUNDS)[0])),
])
def test_claims_are_timed_by_one_decorator(name, call, monkeypatch):
    # a clock that advances 125 ms per reading: each claim reads it once on
    # entry and once on return, and nothing in between
    ticks = itertools.count()
    monkeypatch.setattr(claims.time, "monotonic", lambda: next(ticks) * 0.125)
    assert call().elapsed_ms == 125
    # the bench tracer names its spans by __name__ and unwraps to the function
    fn = getattr(claims, name)
    assert fn.__name__ == name
    assert fn.__wrapped__.__name__ == name


@pytest.mark.parametrize("failures,checked,status", [
    ([], 0, "partial"),
    (["G"], 0, "refuted"),
    (["G"], 3, "refuted"),
    ([], 3, "verified"),
    (False, True, "verified"),
    (True, True, "refuted"),
    ([], [], "partial"),
])
def test_status_rule(failures, checked, status):
    assert claims._status(failures, checked) == status


def test_status_literals_occur_only_in_the_status_rule():
    # every claim's verdict comes from _status; statement and coverage texts
    # that merely contain the words are not the exact constants
    tree = ast.parse(Path(claims.__file__).read_text())
    rule = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_status")
    statuses = {"verified", "refuted", "partial"}

    def literals(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in statuses
        ]

    inside = {id(n) for n in literals(rule)}
    assert {n.value for n in literals(rule)} == statuses
    assert [(n.lineno, n.value) for n in literals(tree) if id(n) not in inside] == []
