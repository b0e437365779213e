"""Rainbow matchings, the labelled complex, and the Helly-type conclusion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmatching.complexes import build_nm_complex
import nonmatching.rainbow as rainbow_module
from nonmatching import sweeps
from nonmatching.errors import CapExceededError, FormatError, HypothesisError, InternalCheckError
from nonmatching.graphs import Graph, matching_number
from nonmatching.rainbow import (
    RainbowCertificate,
    RainbowInstance,
    certificate_is_valid,
    find_rainbow_matching,
    is_tightness_witness,
    k2_counterexamples,
    labelled_nm_complex,
    parse_instance,
    partition_rank,
    rainbow_brute_force,
    search_tightness,
    verify_hypotheses,
    verify_theorem,
    verify_topological_helly_conclusion,
)


def edge_tuple_search(inst: RainbowInstance):
    """Reference: the backtracking over edge tuples that the bitmask search
    replaced, with the same set order (size, index) and sorted edges."""
    order = sorted(range(inst.m), key=lambda i: (len(inst.edge_sets[i]), i))
    sets = [sorted(inst.edge_sets[i]) for i in order]
    k = inst.k

    def rec(pos: int, used: frozenset, acc: tuple):
        if len(acc) == k:
            return acc
        if len(acc) + (len(sets) - pos) < k:
            return None
        got = rec(pos + 1, used, acc)
        if got is not None:
            return got
        for (u, v) in sets[pos]:
            if u not in used and v not in used:
                got = rec(pos + 1, used | {u, v}, acc + (((u, v), order[pos]),))
                if got is not None:
                    return got
        return None

    res = rec(0, frozenset(), ())
    return None if res is None else RainbowCertificate(res)


def c4_host() -> Graph:
    return Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)], ((0, 1), (2, 3)))


def c4_pm_pair() -> RainbowInstance:
    return RainbowInstance.make(c4_host(), [[(0, 2), (1, 3)], [(0, 3), (1, 2)]], 2)


class TestFindRainbow:
    def test_k1_any_edge(self):
        inst = RainbowInstance.make(c4_host(), [[(0, 2)]], 1)
        cert = find_rainbow_matching(inst)
        assert cert is not None and len(cert) == 1

    def test_invalid_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(rainbow_module, "certificate_is_valid", lambda inst, cert: False)
        with pytest.raises(InternalCheckError):
            find_rainbow_matching(RainbowInstance.make(c4_host(), [[(0, 2)]], 1))

    def test_c4_pair_none(self):
        assert find_rainbow_matching(c4_pm_pair()) is None

    def test_third_set_gives_certificate(self):
        inst = RainbowInstance.make(
            c4_host(), [[(0, 2), (1, 3)], [(0, 3), (1, 2)], [(0, 2), (1, 3)]], 2
        )
        cert = find_rainbow_matching(inst)
        assert cert is not None and certificate_is_valid(inst, cert)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        n = data.draw(st.integers(3, 6))
        all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        host_edges = data.draw(
            st.sets(st.sampled_from(all_edges), min_size=1, max_size=6)
        )
        host = Graph.from_edges(n, host_edges)
        m = data.draw(st.integers(1, 5))
        sets = [
            frozenset(data.draw(st.sets(st.sampled_from(sorted(host_edges)), min_size=1, max_size=6)))
            for _ in range(m)
        ]
        k = data.draw(st.integers(1, 3))
        inst = RainbowInstance(host, tuple(sets), k)
        assert (find_rainbow_matching(inst) is not None) == rainbow_brute_force(inst)

    def test_same_certificates_as_edge_tuple_search(self):
        # seeded general and bipartite hosts on 4..6 vertices, k = 1..3 and
        # 1..5 sets of at most 6 edges each
        rng = random.Random(11)
        found = 0
        for trial in range(600):
            n = rng.randint(4, 6)
            if trial % 2:
                a = rng.randint(1, n - 1)
                pool = Graph.complete_bipartite(a, n - a).sorted_edges()
                classes = (range(a), range(a, n))
            else:
                pool = Graph.complete(n).sorted_edges()
                classes = None
            host_edges = rng.sample(pool, rng.randint(1, len(pool)))
            host = Graph.from_edges(n, host_edges, classes)
            sets = [rng.sample(host_edges, rng.randint(1, min(6, len(host_edges))))
                    for _ in range(rng.randint(1, 5))]
            inst = RainbowInstance.make(host, sets, rng.randint(1, 3))
            cert = find_rainbow_matching(inst)
            assert cert == edge_tuple_search(inst), inst
            assert (cert is not None) == rainbow_brute_force(inst), inst
            found += cert is not None
        assert 0 < found < 600

    def test_reversed_edge_rejected(self):
        with pytest.raises(ValueError, match="not written as"):
            RainbowInstance(Graph.complete(4), (frozenset({(3, 1)}),), 1)
        inst = RainbowInstance.make(Graph.complete(4), [[(3, 1)]], 1)
        assert find_rainbow_matching(inst) == RainbowCertificate((((1, 3), 0),))


def oracle_counterexamples(host: Graph, m: int) -> list[tuple[int, ...]]:
    """Every multiset of m non-empty edge sets of the host, as ascending
    tuples of masks over its sorted edges, that meets the k=2 hypotheses and
    has no rainbow 2-matching, by verify_hypotheses and the brute force."""
    slots = host.sorted_edges()
    out = []
    for masks in itertools.combinations_with_replacement(range(1, 1 << len(slots)), m):
        sets = [[e for b, e in enumerate(slots) if mask >> b & 1] for mask in masks]
        inst = RainbowInstance.make(host, sets, 2)
        if verify_hypotheses(inst) and not rainbow_brute_force(inst):
            out.append(masks)
    return out


class TestK2Scan:
    @pytest.mark.parametrize("host, m, count", [
        (Graph.complete(4), 3, 25),
        (Graph.complete_bipartite(2, 3), 2, 39),
        (Graph.complete_bipartite(2, 3), 3, 0),
    ], ids=["K4-3", "K2,3-2", "K2,3-3"])
    def test_matches_brute_force(self, host, m, count):
        slots = host.sorted_edges()
        _, found = k2_counterexamples(slots, (1 << len(slots)) - 1, m)
        assert found == oracle_counterexamples(host, m)
        assert len(found) == count

    @pytest.mark.parametrize("n, count", [(5, 125), (6, 375)])
    def test_three_sets_on_complete_hosts(self, n, count):
        slots = Graph.complete(n).sorted_edges()
        assert len(k2_counterexamples(slots, (1 << len(slots)) - 1, 3)[1]) == count

    def test_rejects_bad_arguments(self):
        slots = Graph.complete(4).sorted_edges()
        with pytest.raises(ValueError, match="m must be positive"):
            k2_counterexamples(slots, 63, 0)
        with pytest.raises(ValueError, match="outside the slots"):
            k2_counterexamples(slots, 64, 2)
        with pytest.raises(ValueError, match="outside the slots"):
            k2_counterexamples(slots, -1, 2)

    def test_general_chunks_partition_the_masks_of_k6(self):
        chunks = [spec.params for spec in sweeps.expand_suite("rainbow")
                  if spec.runner == "rainbow14_chunk"]
        assert len(chunks) == 10 and all(c["n"] == 6 for c in chunks)
        covered = [x for c in chunks for x in range(c["lo"], c["hi"])]
        assert covered == list(range(1, 1 << 15))


class TestHypothesesAndTheorem:
    def test_c4_pair_hypotheses(self):
        assert verify_hypotheses(c4_pm_pair())

    def test_single_shared_edge_fails(self):
        inst = RainbowInstance.make(c4_host(), [[(0, 2)], [(0, 2)]], 2)
        assert not verify_hypotheses(inst)

    def test_hypotheses_against_definition(self):
        # seeded instances on 2..9 vertices, some of them isolated in every
        # set; a pair passes iff its union holds k pairwise disjoint edges
        rng = random.Random(14)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            n = rng.randint(2, 9)
            used = rng.sample(range(n), rng.randint(2, n))
            pool = [(u, v) for u in used for v in used if u < v]
            sets = [rng.sample(pool, rng.randint(1, min(len(pool), 5)))
                    for _ in range(rng.randint(2, 5))]
            inst = RainbowInstance.make(Graph.complete(n), sets, rng.randint(1, 3))
            expected = all(
                any(len({v for e in comb for v in e}) == 2 * inst.k
                    for comb in itertools.combinations(a | b, inst.k))
                for a, b in itertools.combinations(inst.edge_sets, 2)
            )
            assert verify_hypotheses(inst) == expected, inst
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 100, verdicts

    def test_theorem_satisfied(self):
        inst = RainbowInstance.make(
            c4_host(), [[(0, 2), (1, 3)], [(0, 3), (1, 2)], [(0, 2), (1, 3)]], 2
        )
        v = verify_theorem(inst)
        assert v.status == "SATISFIED" and certificate_is_valid(inst, v.certificate)

    def test_below_threshold_is_hypothesis_error(self):
        with pytest.raises(HypothesisError):
            verify_theorem(c4_pm_pair())  # 2 < 2k-1 = 3 sets

    def test_hypothesis_failure_distinct_from_violation(self):
        inst = RainbowInstance.make(c4_host(), [[(0, 2)], [(0, 2)], [(0, 2)]], 2)
        with pytest.raises(HypothesisError):
            verify_theorem(inst)

    def test_bipartite_threshold_vs_general(self):
        host_bip = c4_host()
        host_gen = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        sets = [[(0, 2), (1, 3)], [(0, 3), (1, 2)], [(0, 2), (1, 3)]]
        assert verify_theorem(RainbowInstance.make(host_bip, sets, 2)).status == "SATISFIED"
        with pytest.raises(HypothesisError):
            # a general host needs 3k-2 = 4 sets
            verify_theorem(RainbowInstance.make(host_gen, sets, 2))


class TestTightness:
    def test_k2_m2_witness(self):
        inst = search_tightness(2, True, 2)
        assert inst is not None
        assert verify_hypotheses(inst)
        assert find_rainbow_matching(inst) is None
        assert not rainbow_brute_force(inst)

    def test_k3_m4_witness(self):
        inst = search_tightness(3, True, 4)
        assert inst is not None
        assert verify_hypotheses(inst)
        assert find_rainbow_matching(inst) is None
        assert not rainbow_brute_force(inst)

    def test_k1_m0_vacuous(self):
        assert search_tightness(1, True, 0) is None

    def test_k2_general_witness(self):
        inst = search_tightness(2, False)
        assert inst == search_tightness(2, False)
        assert [sorted(es) for es in inst.edge_sets] == [[(0, 1)], [(0, 3), (1, 2)], [(0, 2), (1, 3)]]
        assert verify_hypotheses(inst)
        assert not rainbow_brute_force(inst)

    def test_general_above_k2_not_searched(self):
        assert search_tightness(3, False) is None

    def test_witness_check(self):
        # the k=2 witness passes; the same sets at k=1, where one edge is a
        # rainbow matching, do not
        inst = search_tightness(2, True, 2)
        assert is_tightness_witness(inst)
        assert not is_tightness_witness(RainbowInstance(inst.host, inst.edge_sets, 1))


class TestLabelledComplex:
    def test_single_set_isomorphic_to_nm(self):
        host = c4_host()
        inst = RainbowInstance.make(host, [sorted(host.edges)], 2)
        lcx = labelled_nm_complex(inst)
        nm = build_nm_complex(host, 2)
        # one sorted set: labelled element i is the host's i-th sorted edge
        assert [e for (e, _) in lcx.ground.elements] == list(nm.ground.elements)
        assert lcx.faces == nm.faces

    def test_duplicated_edge_both_copies(self):
        inst = RainbowInstance.make(c4_host(), [[(0, 2)], [(0, 2)]], 2)
        lcx = labelled_nm_complex(inst)
        assert ((0, 2), 0) in lcx.ground.elements
        assert ((0, 2), 1) in lcx.ground.elements

    @pytest.mark.parametrize("seed", range(4))
    def test_face_count_by_erased_images(self, seed):
        # the faces erasing to one edge set S are the choices of a non-empty
        # label set for each edge of S, so the face count is the sum over
        # the S in the union with nu(S) < k of prod over e in S of
        # 2^mult(e) - 1; on K5 at k=2 and K6 at k=3
        rng = random.Random(seed)
        n, k = (5, 2) if seed % 2 == 0 else (6, 3)
        host = Graph.complete(n)
        edges = host.sorted_edges()
        inst = RainbowInstance.make(host, [rng.sample(edges, rng.randint(3, 5)) for _ in range(3)], k)
        union = sorted(inst.union_edges())
        mult = {e: sum(e in es for es in inst.edge_sets) for e in union}
        want = 0
        for r in range(len(union) + 1):
            for sub in itertools.combinations(union, r):
                if matching_number(Graph.from_edges(n, sub)) < k:
                    term = 1
                    for e in sub:
                        term *= 2 ** mult[e] - 1
                    want += term
        assert labelled_nm_complex(inst).face_count == want

    def test_cap_bounds_the_labelled_elements(self):
        # the cap bounds the faces, and a face mask at most 63 elements
        inst = RainbowInstance.make(c4_host(), [sorted(c4_host().edges)] * 2, 2)
        lcx = labelled_nm_complex(inst)
        assert len(lcx.ground) == 8
        assert labelled_nm_complex(inst, cap=lcx.face_count).faces == lcx.faces
        with pytest.raises(CapExceededError):
            labelled_nm_complex(inst, cap=lcx.face_count - 1)
        # 4 copies of the 16 edges of K4,4: 64 labelled edges
        host = Graph.complete_bipartite(4, 4)
        inst = RainbowInstance.make(host, [sorted(host.edges)] * 4, 1)
        with pytest.raises(CapExceededError):
            labelled_nm_complex(inst)

    def test_faces_project_to_low_nu(self):
        inst = c4_pm_pair()
        lcx = labelled_nm_complex(inst)
        for m in lcx.faces:
            edges = {e for (e, _) in lcx.ground.decode(m)}
            g = Graph.from_edges(4, edges)
            from nonmatching.graphs import matching_number

            assert matching_number(g) < 2

    def test_partition_rank(self):
        inst = c4_pm_pair()
        assert partition_rank(inst, [((0, 2), 0), ((1, 3), 0)]) == 1
        assert partition_rank(inst, [((0, 2), 0), ((0, 3), 1)]) == 2


class TestHelly:
    def test_with_rainbow_precondition_fails(self):
        inst = RainbowInstance.make(
            c4_host(), [[(0, 2), (1, 3)], [(0, 3), (1, 2)], [(0, 2), (1, 3)]], 2
        )
        with pytest.raises(HypothesisError):
            verify_topological_helly_conclusion(inst, 1)

    def test_identical_copies_conclusion_found(self):
        inst = RainbowInstance.make(c4_host(), [[(0, 2)], [(0, 2)], [(0, 2)]], 2)
        rep = verify_topological_helly_conclusion(inst, 1)
        assert rep.satisfied and rep.residual_rank <= 1

    def test_rank_below_d_plus_2(self):
        inst = c4_pm_pair()
        with pytest.raises(HypothesisError):
            verify_topological_helly_conclusion(inst, 1)  # m = 2 < 3


class TestInstanceFormat:
    def test_roundtrip(self):
        inst = RainbowInstance.make(
            c4_host(), [[(0, 2), (1, 3)], [(0, 3), (1, 2)], [(0, 2)]], 2
        )
        text = "4 = 2 2\n0 2\n0 3\n1 2\n1 3\nk = 2\nSET 0: 0 2, 1 3\nSET 1: 0 3, 1 2\nSET 2: 0 2\n"
        assert parse_instance(text) == inst

    def test_k_override(self):
        text = "4 = 2 2\n0 2\n0 3\n1 2\n1 3\nk = 2\nSET 0: 0 2, 1 3\nSET 1: 0 3, 1 2\n"
        assert parse_instance(text) == c4_pm_pair()
        assert parse_instance(text, k=1).k == 1

    def test_missing_k(self):
        text = "4 = 2 2\n0 2\n1 3\nSET 0: 0 2\n"
        with pytest.raises(FormatError):
            parse_instance(text)

    def test_malformed_set(self):
        with pytest.raises(FormatError):
            parse_instance("4 = 2 2\n0 2\nk = 2\nSET 0: 0\n")

    def test_empty_set_rejected(self):
        with pytest.raises(FormatError):
            parse_instance("4 = 2 2\n0 2\nk = 2\nSET 0:\n")


class TestCertificates:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            RainbowCertificate((((0, 1), 0), ((1, 2), 1)))

    def test_distinct_sources_enforced(self):
        with pytest.raises(ValueError):
            RainbowCertificate((((0, 1), 0), ((2, 3), 0)))
