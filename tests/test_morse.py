"""Element matchings: validation, acyclicity, and the four combinators."""

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morse_oracles
from complex_oracles import order_complex
import nonmatching.constructions as cons
import nonmatching.morse as morse
from nonmatching import sweeps
from nonmatching.complexes import EdgeHost, GroundSet, SimplicialComplex, build_nm_complex, submasks
from nonmatching.constructions import build_pm_matching
from nonmatching.errors import EmptyFamilyError, InternalCheckError, MonotonicityError
from nonmatching.graphs import Graph
from nonmatching.homology import GF2, reduced_betti
from nonmatching.morse import (
    JoinPart,
    boolean_matching,
    check_matching,
    cluster_union,
    is_acyclic,
    join_matching,
    morse_inequality_details,
    projection_matching,
    validate_matching,
    witness_has_alternating_shape,
)

SQUARE = [0, 1, 2, 3]  # the full family over two elements


@st.composite
def matched_families(draw):
    """A family over at most 5 elements and a valid matching on it: all
    subsets but a drawn few, covering pairs taken greedily in a drawn order
    while both their faces are free, then a drawn few dropped (cyclic
    matchings included)."""
    width = draw(st.integers(1, 5))
    removed = draw(st.sets(st.integers(0, (1 << width) - 1), max_size=4))
    family = [m for m in range(1 << width) if m not in removed]
    members = set(family)
    covers = [(m, m | 1 << b) for m in family for b in range(width)
              if not m >> b & 1 and m | 1 << b in members]
    used, pairs = set(), []
    for s, t in draw(st.permutations(covers)):
        if s not in used and t not in used:
            used |= {s, t}
            pairs.append((s, t))
    dropped = draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)), max_size=3))
    return family, [p for i, p in enumerate(pairs) if i not in dropped]


def _monotone_verdict(check, family, key_of, leq):
    try:
        check(family, key_of, leq)
    except MonotonicityError:
        return False
    return True


class TestValidate:
    def test_empty_matching(self):
        rep = validate_matching(SQUARE, [])
        assert rep.valid and rep.critical == (0, 1, 2, 3) and rep.acyclic is None

    def test_complete_matching(self):
        rep = validate_matching(SQUARE, [(0, 1), (2, 3)])
        assert rep.valid and rep.critical == ()

    def test_gap_two_invalid(self):
        rep = validate_matching(SQUARE, [(0, 3)])
        assert not rep.valid

    def test_not_subset_invalid(self):
        rep = validate_matching(SQUARE, [(1, 2)])
        assert not rep.valid

    def test_double_use_invalid(self):
        rep = validate_matching(SQUARE, [(0, 1), (1, 3)])
        assert not rep.valid

    def test_foreign_face_raises(self):
        with pytest.raises(ValueError):
            validate_matching([0, 1], [(0, 4)])


class TestAcyclic:
    def test_empty_matching_acyclic(self):
        ok, w = is_acyclic(SQUARE, [])
        assert ok and w is None

    def test_complete_square_acyclic(self):
        ok, _ = is_acyclic(SQUARE, [(0, 1), (2, 3)])
        assert ok

    def test_classic_cycle(self):
        # faces a, b, c, ab, ac, bc with all three matched upward
        fam = [1, 2, 4, 3, 5, 6]
        pairs = [(1, 3), (2, 6), (4, 5)]
        ok, witness = is_acyclic(fam, pairs)
        assert not ok
        assert witness_has_alternating_shape(witness, pairs)

    def test_toggle_on_square(self):
        ok, _ = is_acyclic(SQUARE, [(0, 1), (2, 3)])
        assert ok

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_boolean_always_acyclic(self, data):
        universe = 4
        masks = data.draw(st.sets(st.integers(0, 15), min_size=1))
        fam = sorted(masks)
        e0 = data.draw(st.integers(0, universe - 1))
        pairs, f0, f1 = boolean_matching(fam, e0)
        rep = check_matching(fam, pairs)
        assert rep.valid and rep.acyclic
        assert sorted(rep.critical) == f1
        # complete on f0 by definition
        matched = {f for p in pairs for f in p}
        assert matched == set(f0)

    @settings(max_examples=300, deadline=None)
    @given(matched_families())
    def test_agrees_with_the_depth_first_oracle(self, drawn):
        family, pairs = drawn
        assert validate_matching(family, pairs).valid
        ok, witness = is_acyclic(family, pairs)
        assert ok == morse_oracles.dfs_is_acyclic(family, pairs)[0]
        assert (witness is None) if ok else witness_has_alternating_shape(witness, pairs)

    def test_cycles_found_on_the_cube(self):
        # seeded maximal matchings on all 32 subsets of 5 elements: both
        # verdicts occur, and each agrees with the oracle
        rng = random.Random(5)
        covers = [(m, m | 1 << b) for m in range(32) for b in range(5) if not m >> b & 1]
        verdicts = []
        for _ in range(200):
            rng.shuffle(covers)
            used, pairs = set(), []
            for s, t in covers:
                if s not in used and t not in used:
                    used |= {s, t}
                    pairs.append((s, t))
            ok, witness = is_acyclic(range(32), pairs)
            assert ok == morse_oracles.dfs_is_acyclic(range(32), pairs)[0]
            assert ok or witness_has_alternating_shape(witness, pairs)
            verdicts.append(ok)
        assert 0 < sum(verdicts) < len(verdicts)


class TestBooleanMatching:
    def test_full_square(self):
        pairs, f0, f1 = boolean_matching(SQUARE, 0)
        assert f0 == SQUARE and f1 == [] and len(pairs) == 2

    def test_partial(self):
        fam = [0, 1, 2]  # empty, {e}, {f}
        pairs, f0, f1 = boolean_matching(fam, 0)
        assert f0 == [0, 1] and f1 == [2] and pairs == [(0, 1)]

    def test_all_families_three_elements(self):
        # every family over a 3-element ground, every toggle element
        for fam_mask in range(1, 1 << 8):
            fam = [m for m in range(8) if fam_mask >> m & 1]
            for e0 in range(3):
                pairs, f0, f1 = boolean_matching(fam, e0)
                rep = check_matching(fam, pairs)
                assert rep.valid and rep.acyclic
                assert set(rep.critical) == set(f1)


class TestClusterUnion:
    def test_single_part_identity(self):
        fam = SQUARE
        pairs = [(0, 1), (2, 3)]
        out = cluster_union(fam, lambda m: 0, lambda a, b: True, {0: pairs})
        assert sorted(out) == sorted(pairs)

    def test_size_key(self):
        fam = [0, 1, 2, 3]
        out = cluster_union(fam, lambda m: m.bit_count(), lambda a, b: a <= b,
                            {0: [], 1: [], 2: []})
        assert out == []

    def test_fixed_nu_gallai_edmonds_cells(self):
        # all subgraphs of the complete graph on 4 vertices with matching
        # number exactly one, clustered by decomposition, toggled per cell
        from nonmatching.graphs import (
            Graph,
            complete_edge_list,
            gallai_edmonds,
            mask_to_graph,
            subset_matching_numbers,
        )

        edges = complete_edge_list(4)
        nu = subset_matching_numbers(edges)
        fam = [m for m in range(1 << 6) if int(nu[m]) == 1]

        def key(m):
            ge = gallai_edmonds(mask_to_graph(4, m))
            return (ge.d_set, ge.d_set | ge.a_set, ge.components)

        def leq(k1, k2):
            if k1 == k2:
                return True
            return k1[0] <= k2[0] and k1[1] <= k2[1] and (k1[0], k1[1]) != (k2[0], k2[1])

        fibers = {}
        for m in fam:
            fibers.setdefault(key(m), []).append(m)
        part_pairs = {}
        for kk, members in fibers.items():
            # toggle on the least bit that pairs anything inside the fiber
            pairs = []
            for b in range(6):
                pairs, _, _ = boolean_matching(members, b)
                if pairs:
                    break
            part_pairs[kk] = pairs
        out = cluster_union(fam, key, leq, part_pairs)
        ok, _ = is_acyclic(fam, out)
        assert ok

    def test_non_monotone_rejected(self):
        fam = [0, 1]
        with pytest.raises(MonotonicityError):
            cluster_union(fam, lambda m: -m.bit_count(), lambda a, b: a <= b, {0: [], -1: []})

    def test_cross_fiber_pair_rejected(self):
        fam = [0, 1]
        with pytest.raises(ValueError):
            cluster_union(fam, lambda m: m, lambda a, b: a <= b, {0: [(0, 1)]})

    def test_gallai_edmonds_style_union(self):
        # per-fiber toggle matchings over a fixed-size-key family stay acyclic
        fam = [m for m in range(16) if m.bit_count() in (1, 2)]
        key = lambda m: m.bit_count()
        fibers = {}
        for m in fam:
            fibers.setdefault(key(m), []).append(m)
        part_pairs = {k: [] for k in fibers}
        out = cluster_union(fam, key, lambda a, b: a <= b, part_pairs)
        assert out == []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_covering_check_agrees_with_all_pairs_on_convex_families(self, data):
        # a convex family (an up-set meets a down-set) and a key into a
        # transitive order: a random table under <=, or the bits under a
        # drawn mask under the subset order
        width = data.draw(st.integers(1, 5))
        full = (1 << width) - 1
        lows = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
        highs = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
        family = [m for m in range(full + 1)
                  if any(lo & ~m == 0 for lo in lows) and any(m & ~hi == 0 for hi in highs)]
        if data.draw(st.booleans()):
            key_of = {m: data.draw(st.integers(0, 3)) for m in family}
            leq = lambda a, b: a <= b
        else:
            mask = data.draw(st.integers(0, full))
            key_of = {m: m & mask for m in family}
            leq = lambda a, b: a & ~b == 0
        assert (_monotone_verdict(morse._verify_monotone, family, key_of, leq)
                == _monotone_verdict(morse_oracles.all_pairs_monotone, family, key_of, leq))

    def test_covering_pairs_need_the_chain_condition(self):
        # 0 below 0b11 with no member between: no covering pair, so the key
        # order is never compared; the all-pairs oracle sees the violation
        key_of = {0: 1, 0b11: 0}
        leq = lambda a, b: a <= b
        assert _monotone_verdict(morse._verify_monotone, [0, 0b11], key_of, leq)
        assert not _monotone_verdict(morse_oracles.all_pairs_monotone, [0, 0b11], key_of, leq)

    def test_cyclic_union_guard_fires(self, monkeypatch):
        # one pair per fiber, and the three close the cycle 3 > 2 < 6 > 4 < 5
        # > 1 < 3; the key is not monotone (2 < 3 but key 1 > key 0), so only
        # a monotonicity check that passes everything lets the union through
        fam = [1, 2, 3, 4, 5, 6]
        key = {1: 0, 3: 0, 2: 1, 6: 1, 4: 2, 5: 2}.get
        part_pairs = {0: [(1, 3)], 1: [(2, 6)], 2: [(4, 5)]}
        leq = lambda a, b: a <= b
        with pytest.raises(MonotonicityError):
            cluster_union(fam, key, leq, part_pairs)
        monkeypatch.setattr(morse, "_verify_monotone", lambda family, key_of, leq: None)
        with pytest.raises(InternalCheckError, match="cluster union came out cyclic"):
            cluster_union(fam, key, leq, part_pairs)


class TestJoin:
    def test_identity_with_point(self):
        res = join_matching([
            JoinPart.make(0b11, SQUARE, [(0, 1), (2, 3)]),
            JoinPart.make(0b100, [0], []),
        ])
        assert len(res.family) == 4 and res.criticals == ()

    def test_one_complete_part_makes_complete(self):
        res = join_matching([
            JoinPart.make(0b11, SQUARE, [(0, 1), (2, 3)]),
            JoinPart.make(0b1100, [0, 4, 8, 12], []),
        ])
        assert res.criticals == ()
        rep = check_matching(res.family, res.pairs)
        assert rep.valid and rep.acyclic

    def test_two_empty_matchings(self):
        res = join_matching([
            JoinPart.make(0b1, [0, 1], []),
            JoinPart.make(0b10, [0, 2], []),
        ])
        assert set(res.criticals) == {0, 1, 2, 3}

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            join_matching([JoinPart.make(0b1, [], [])])

    def test_overlapping_grounds_rejected(self):
        with pytest.raises(ValueError):
            join_matching([JoinPart.make(0b1, [0, 1], []), JoinPart.make(0b1, [0, 1], [])])

    def test_pm_join_fc_instance(self):
        # join of a perfect-matching family with a one-face family: criticals
        # are exactly the joins of the factor criticals
        pm = build_pm_matching([0, 1, 2, 3])
        shift = len(pm.ground)
        extra_fam = [0, 1 << shift]
        res = join_matching([
            JoinPart.make((1 << shift) - 1, pm.family, pm.pairs),
            JoinPart.make(1 << shift, extra_fam, []),
        ])
        expect = {c | e for c in pm.criticals for e in extra_fam}
        assert set(res.criticals) == expect
        rep = check_matching(res.family, res.pairs)
        assert rep.valid and rep.acyclic

    def test_parts_given_as_lists(self):
        res = join_matching([(0b11, SQUARE, [[0, 1], [2, 3]]), [0b100, [0, 4], []]])
        assert len(res.family) == 8 and res.criticals == ()

    def test_bad_part_raises_on_every_call(self):
        # part checks are kept per part value; a failing one is not kept
        good = JoinPart.make(0b1000, [0, 0b1000], [(0, 0b1000)])
        gap_two = JoinPart.make(0b11, SQUARE, [(0, 3)])
        cyclic = JoinPart.make(0b111, [1, 2, 4, 3, 5, 6], [(1, 3), (2, 6), (4, 5)])
        stray = JoinPart(0b1, (0, 0b10), ())
        for part, message in ((gap_two, "invalid part"), (cyclic, "cyclic part"), (stray, "leaves its part")):
            for _ in range(3):
                with pytest.raises(ValueError, match=message):
                    join_matching([good, part])
        assert join_matching([good]).criticals == ()

    def test_criticals_guard_fires(self, monkeypatch):
        # a part check that drops a critical makes the join of the part
        # criticals miss faces the join leaves unmatched
        parts = [JoinPart.make(0b1, [0, 1], []), JoinPart.make(0b10, [0, 2], [])]
        real = morse._part_criticals
        monkeypatch.setattr(morse, "_part_criticals", lambda part: real(part)[1:])
        real.cache_clear()
        try:
            with pytest.raises(InternalCheckError, match="join criticals differ"):
                join_matching(parts)
        finally:
            real.cache_clear()
        monkeypatch.undo()
        assert join_matching(parts).criticals == (0, 1, 2, 3)

    def test_colliding_faces_guard_fires(self, monkeypatch):
        # a part check that lets a face leave its part ground makes two
        # joins of faces from different parts coincide
        stray = [JoinPart(0b1, (0, 0b10), ()), JoinPart(0b10, (0, 0b10), ())]
        with pytest.raises(ValueError, match="leaves its part ground"):
            join_matching(stray)
        monkeypatch.setattr(morse, "_part_criticals",
                            lambda part: morse._checked(part.family, part.pairs, "part matching").critical)
        with pytest.raises(InternalCheckError, match="join family has colliding faces"):
            join_matching(stray)


class TestProjection:
    def test_singleton_parts_isomorphic_lift(self):
        parts = [0b1, 0b10, 0b100]
        qfam = list(range(8))
        qpairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
        res = projection_matching(parts, 0, qfam, qpairs)
        assert len(res.family) == 8 and res.criticals == ()

    def test_single_part_single_critical(self):
        res = projection_matching([0b11], 0, [0b1], [])
        assert res.criticals == (1,)
        assert set(res.family) == {1, 2, 3}

    def test_tau_forced(self):
        # one part of two elements, tau = one of them: the free bit toggles
        # the whole block, so the lift is complete
        res = projection_matching([0b11], 0b1, [0b1], [])
        assert set(res.family) == {0b1, 0b11}
        assert res.criticals == ()

    def test_tau_swallows_part(self):
        # part fully inside tau: single critical of size |tau|
        res = projection_matching([0b1], 0b1, [0b1], [])
        assert set(res.family) == {0b1}
        assert res.criticals == (0b1,)

    def test_missing_pi_tau_rejected(self):
        with pytest.raises(ValueError):
            projection_matching([0b1, 0b10], 0b1, [0b10], [])

    def test_bad_projected_matching_named(self):
        # a size gap of two, a face used twice, and a cycle through all
        # three singletons of the projected family
        parts = [0b1, 0b10, 0b100]
        cases = (
            (range(8), [(0, 3)], "invalid projected matching"),
            (range(8), [(0, 1), (1, 3)], "invalid projected matching"),
            ([1, 2, 4, 3, 5, 6], [(1, 3), (2, 6), (4, 5)], "cyclic projected matching"),
        )
        for qfam, qpairs, message in cases:
            with pytest.raises(ValueError, match=message):
                projection_matching(parts, 0, list(qfam), qpairs)

    # each check of projection_matching against one mutated helper, on a
    # lift the real helpers pass: (parts, tau, projected family and pairs,
    # helper, its mutation from the real one, the message)
    GUARD_CASES = {
        # the toggle of the free bits on an element outside them
        "toggle off the free bits": (
            [0b11], 0b1, [0b1], [], "boolean_matching", lambda real: lambda fam, e: real(fam, e + 1),
            "expected a complete toggle matching"),
        # a toggle matching that drops its first pair: on a part that tau
        # meets the block is no longer complete, elsewhere a critical grows
        "toggle drops a pair, part meets tau": (
            [0b11], 0b1, [0b1], [], "boolean_matching",
            lambda real: lambda fam, e: (real(fam, e)[0][1:],) + real(fam, e)[1:],
            "complete block produced criticals"),
        "toggle drops a pair, part misses tau": (
            [0b11], 0, [0b1], [], "boolean_matching",
            lambda real: lambda fam, e: (real(fam, e)[0][1:],) + real(fam, e)[1:],
            "lifted critical has the wrong size"),
        # a part that tau misses may be met by the empty set
        "choices keep the empty intersection": (
            [0b1, 0b10], 0, range(4), [(0, 1), (2, 3)], "_part_choices",
            lambda real: lambda part, tau: [(part & tau) | s for s in submasks(part & ~tau)],
            "projection blocks overlap"),
        # a join that reports each critical twice, or one bit up
        "join repeats its criticals": (
            [0b11], 0, [0b1], [], "join_matching",
            lambda real: lambda parts: replace(real(parts), criticals=real(parts).criticals * 2),
            "lifted criticals do not inject"),
        "join moves its criticals": (
            [0b1, 0b10], 0, [0b1], [], "join_matching",
            lambda real: lambda parts: replace(real(parts), criticals=tuple(c << 1 for c in real(parts).criticals)),
            "lifted critical projects outside projected criticals"),
        # a check of the projected matching that skips its acyclicity
        "check skips acyclicity": (
            [0b1, 0b10, 0b100], 0, [1, 2, 4, 3, 5, 6], [(1, 3), (2, 6), (4, 5)], "_checked",
            lambda real: lambda fam, pairs, what: validate_matching(fam, pairs),
            "projection lift came out cyclic"),
    }

    @pytest.mark.parametrize("case", GUARD_CASES)
    def test_guard_fires_under_a_mutated_helper(self, monkeypatch, case):
        parts, tau, qfam, qpairs, helper, mutate, message = self.GUARD_CASES[case]
        if helper != "_checked":  # the cyclic projected matching is refused as it should be
            res = projection_matching(parts, tau, list(qfam), qpairs)
            rep = check_matching(res.family, res.pairs)
            assert rep.valid and rep.acyclic and rep.critical == res.criticals
        monkeypatch.setattr(morse, helper, mutate(getattr(morse, helper)))
        with pytest.raises(InternalCheckError, match=message):
            projection_matching(parts, tau, list(qfam), qpairs)

    def test_size_formula(self):
        parts = [0b11, 0b1100, 0b10000]
        tau = 0b100
        qfam = [q for q in range(8) if q & 0b10]
        qpairs, _, _ = boolean_matching(qfam, 0)
        res = projection_matching(parts, tau, qfam, qpairs)
        matched_q = {f for p in qpairs for f in p}
        qcrit = set(qfam) - matched_q
        assert len(res.criticals) == len(set(res.criticals))
        for c in res.criticals:
            pc = sum(1 << i for i, p in enumerate(parts) if c & p)
            assert pc in qcrit
            assert c.bit_count() == pc.bit_count() - 1 + tau.bit_count()


class TestMorseInequality:
    def test_empty_matching_trivial(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        assert morse_inequality_details(cx, [], GF2)["holds"]

    def test_apex_toggle_on_cone(self):
        # the apex toggle pairs every non-empty face except the apex vertex,
        # so criticals concentrate in dimension 0 and every comparison in
        # dimensions i >= 1 is 0 <= 0
        ground = GroundSet(tuple("abc"))
        cx = SimplicialComplex.full_simplex(ground)
        fam = [m for m in cx.faces if m]
        pairs, f0, f1 = boolean_matching(fam, 0)
        assert f1 == [1]
        details = morse_inequality_details(cx, pairs, GF2)
        assert details["holds"]
        for d, cmp_ in details["per_dim"].items():
            if d >= 1:
                assert cmp_["betti"] == 0 and cmp_["critical"] == 0

    def test_rejects_cyclic(self):
        ground = GroundSet(tuple("abc"))
        cx = SimplicialComplex.from_masks(ground, range(7))
        pairs = [(1, 3), (2, 6), (4, 5)]
        with pytest.raises(ValueError):
            morse_inequality_details(cx, pairs, GF2)

    def test_bad_matching_named(self):
        # the hollow-triangle complex with its full cone of faces: sigma not
        # below tau, and a cycle through the three vertices
        cx = SimplicialComplex.from_masks(GroundSet(tuple("abc")), range(7))
        with pytest.raises(ValueError, match="invalid matching"):
            morse_inequality_details(cx, [(1, 6)], GF2)
        with pytest.raises(ValueError, match="cyclic matching"):
            morse_inequality_details(cx, [(1, 3), (2, 6), (4, 5)], GF2)

    def test_details_reduced_reported(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        details = morse_inequality_details(cx, [], GF2)
        assert details["per_dim"][0]["reduced_holds"] is not None

    def test_pm_family_against_order_complex(self):
        # both sides computed independently: the construction's critical
        # counts vs the homology of the order complex of the family
        res = build_pm_matching([0, 1, 2, 3])
        ocx = order_complex(list(res.family))
        table = reduced_betti(ocx, GF2)
        # the family has a maximum member (the full host), so its order
        # complex is a cone: everything reduced vanishes
        assert all(b == 0 for b in table.betti.values())
        min_size = min(m.bit_count() for m in res.family)
        crit_by_dim = {}
        for c in res.criticals:
            d = c.bit_count() - min_size
            crit_by_dim[d] = crit_by_dim.get(d, 0) + 1
        for d in range(1, ocx.dim() + 1):
            assert table.get(d) <= crit_by_dim.get(d, 0)

    def test_tiny_complex_inequality(self):
        # hollow triangle with the empty matching: criticals dominate
        ground = GroundSet(tuple("abc"))
        cx = SimplicialComplex.from_masks(ground, range(7))
        assert morse_inequality_details(cx, [], GF2)["holds"]


class TestBigMaskFallback:
    # the monotonicity check has one path for every face width; these keep
    # faces past the 64-bit word in it
    def test_cluster_union_beyond_word_size(self):
        big = 1 << 80
        fam = [0, big, big | 1, 1]
        pairs, f0, f1 = boolean_matching(fam, 0)
        key = lambda m: 1 if m & big else 0
        out = cluster_union(fam, key, lambda a, b: a <= b,
                            {0: [(0, 1)], 1: [(big, big | 1)]})
        ok, _ = is_acyclic(fam, out)
        assert ok

    def test_cluster_union_big_mask_violation(self):
        big = 1 << 80
        fam = [0, big]
        with pytest.raises(MonotonicityError):
            cluster_union(fam, lambda m: 1 if m == 0 else 0, lambda a, b: a <= b,
                          {0: [], 1: []})

    # every subset of bits 60..67, so the family straddles the 64-bit word;
    # the key counts the bits at 64 and above
    STRADDLE = [sum(1 << (60 + i) for i in range(8) if s >> i & 1) for s in range(256)]

    def test_cluster_union_across_bit_64(self):
        key = lambda m: (m >> 64).bit_count()
        out = cluster_union(self.STRADDLE, key, lambda a, b: a <= b, {k: [] for k in range(5)})
        assert out == []

    def test_cluster_union_across_bit_64_violation(self):
        # reversed key: the first face pair caught is 0 below 1 << 64
        key = lambda m: -(m >> 64).bit_count()
        with pytest.raises(MonotonicityError, match=f"0 subset of {1 << 64:x} "):
            cluster_union(self.STRADDLE, key, lambda a, b: a <= b, {})

    @pytest.mark.parametrize("top", [63, 64])
    def test_violation_at_the_word_edge(self, top):
        # either side of the 64-bit word
        fam = [1 << top, (1 << top) | 1]
        with pytest.raises(MonotonicityError):
            cluster_union(fam, lambda m: -m.bit_count(), lambda a, b: a <= b, {})


class TestAgainstOracles:
    def test_morse_bounds_checks_agree(self, monkeypatch):
        # every monotonicity check and every acyclicity check the seed-0
        # morse-bounds suite makes, against the all-pairs and depth-first
        # oracles, on fresh hosts and with no part check kept from before
        fast_monotone, fast_acyclic = morse._verify_monotone, morse.is_acyclic
        calls = {"monotone": 0, "acyclic": 0, "cyclic": 0}

        def monotone(family, key_of, leq):
            calls["monotone"] += 1
            verdict = _monotone_verdict(fast_monotone, family, key_of, leq)
            assert verdict == _monotone_verdict(morse_oracles.all_pairs_monotone, family, key_of, leq)
            return fast_monotone(family, key_of, leq)

        def acyclic(family, pairs):
            calls["acyclic"] += 1
            ok, witness = fast_acyclic(family, pairs)
            assert ok == morse_oracles.dfs_is_acyclic(family, pairs)[0]
            assert ok or witness_has_alternating_shape(witness, pairs)
            calls["cyclic"] += not ok
            return ok, witness

        monkeypatch.setattr(morse, "_verify_monotone", monotone)
        monkeypatch.setattr(morse, "is_acyclic", acyclic)
        monkeypatch.setattr(cons, "edge_host", functools.cache(EdgeHost))
        morse._part_criticals.cache_clear()
        try:
            results = [sweeps.run_case(spec) for spec in sweeps.expand_suite("morse-bounds", 0)]
        finally:
            morse._part_criticals.cache_clear()
        assert all(r.passed for r in results)
        assert calls["monotone"] > 500 and calls["acyclic"] > 1000 and calls["cyclic"] == 0, calls
