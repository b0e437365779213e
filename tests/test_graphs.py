"""Graphs, matchings, and the Gallai-Edmonds decomposition."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonmatching.graphs as graphs_module
import nonmatching.sweeps as sweeps_module
from nonmatching.complexes import vertex_bits
from nonmatching.errors import CapExceededError, FormatError, InternalCheckError
from nonmatching.graphs import (
    Graph,
    Matching,
    automorphisms,
    canonical_form,
    complete_edge_list,
    format_graph,
    bipartite_subgraph_classes,
    gallai_edmonds,
    graph_isomorphism_classes,
    graph_to_mask,
    has_perfect_matching,
    is_factor_critical,
    is_y_factor_critical,
    is_yz_factor_critical,
    mask_to_graph,
    matching_number,
    maximum_matching,
    maximum_matchings,
    orbit_representatives,
    parse_graph,
    relabelings,
    subdivided_complete_graph,
    subset_matching_numbers,
)
from nonmatching.sweeps import GE_PROPERTIES, ge_violation, ge_violations


def nu_by_enumeration(g: Graph) -> int:
    """Independent oracle: scan every edge subset that is a matching."""
    edges = g.sorted_edges()
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for comb in itertools.combinations(edges, r):
            vs = [v for e in comb for v in e]
            if len(set(vs)) == len(vs):
                best = max(best, r)
                break
    return best


class TestMatchingNumber:
    def test_empty_graph(self):
        assert matching_number(Graph.empty(5)) == 0

    def test_k4(self):
        assert matching_number(Graph.complete(4)) == 2

    def test_subdivided_k6(self):
        # oracle first: exhaustive enumeration gives 3
        g = subdivided_complete_graph(6)
        assert nu_by_enumeration(g) == 3
        assert matching_number(g) == 3

    def test_certificate(self):
        g = Graph.cycle(7)
        m = maximum_matching(g)
        assert len(m) == matching_number(g) == 3
        assert m.edges <= g.edges
        m = maximum_matching(Graph.complete(6), [0, 2, 3, 5, 4])
        assert len(m) == 2 and m.covered() <= {0, 2, 3, 4, 5}

    def test_certificate_is_maximum(self):
        # every graph on <= 5 vertices and 200 seeded subgraphs of K8: the
        # certificate is a matching of g, and no matching of g is larger
        graphs = [mask_to_graph(n, mask) for n in range(6)
                  for mask in range(1 << (n * (n - 1) // 2))]
        rng = random.Random(8)
        graphs += [mask_to_graph(8, rng.getrandbits(28)) for _ in range(200)]
        for g in graphs:
            m = maximum_matching(g)
            assert m.edges <= g.edges
            size = len(m)
            assert size == matching_number(g)
            if 2 * (size + 1) <= g.vertex_count:
                for comb in itertools.combinations(g.sorted_edges(), size + 1):
                    vs = [v for e in comb for v in e]
                    assert len(set(vs)) < len(vs), f"{comb} beats {sorted(m.edges)}"

    def test_certificate_guard_fires(self, monkeypatch):
        # a search that overstates nu leaves no edge to extend the certificate
        monkeypatch.setattr(graphs_module, "nu_within", lambda adj, avail, memo: avail.bit_count())
        with pytest.raises(InternalCheckError):
            maximum_matching(Graph.cycle(7))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_against_enumeration(self, n, data):
        slots = complete_edge_list(n)
        mask = data.draw(st.integers(0, (1 << len(slots)) - 1))
        g = mask_to_graph(n, mask)
        assert matching_number(g) == nu_by_enumeration(g)

    def test_exhaustive_small_hosts(self):
        # every graph on <= 6 vertices: algorithm vs all-matchings oracle
        for n in range(0, 7):
            edges = complete_edge_list(n)
            matchings = []
            for m in range(1 << len(edges)):
                used = set()
                ok = True
                mm = m
                while mm:
                    b = (mm & -mm).bit_length() - 1
                    mm &= mm - 1
                    (u, v) = edges[b]
                    if u in used or v in used:
                        ok = False
                        break
                    used.add(u)
                    used.add(v)
                if ok:
                    matchings.append(m)
            table = subset_matching_numbers(edges) if edges else None
            for mask in range(1 << len(edges)):
                naive = max((m.bit_count() for m in matchings if m & ~mask == 0), default=0)
                assert matching_number(mask_to_graph(n, mask)) == naive
            if table is not None:
                import numpy as np

                naive_all = np.zeros(1 << len(edges), dtype=np.uint8)
                for m in matchings:
                    naive_all[m] = m.bit_count()
                # subset-max transform: nu(G) = max over matchings inside G
                for b in range(len(edges)):
                    t = naive_all.reshape(-1, 1 << (b + 1))
                    np.maximum(t[:, 1 << b:], t[:, : 1 << b], out=t[:, 1 << b:])
                assert (table == naive_all).all()


class TestMaximumMatchings:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert maximum_matchings(g) == [Matching(frozenset({(0, 1)}))]

    def test_path3(self):
        g = Graph.path(3)
        out = {frozenset(m.edges) for m in maximum_matchings(g)}
        assert out == {frozenset({(0, 1)}), frozenset({(1, 2)})}

    def test_c5(self):
        # oracle: brute force over edge subsets finds exactly 5 two-matchings
        g = Graph.cycle(5)
        expected = set()
        for comb in itertools.combinations(sorted(g.edges), 2):
            vs = [v for e in comb for v in e]
            if len(set(vs)) == 4:
                expected.add(frozenset(comb))
        assert len(expected) == 5
        assert {frozenset(m.edges) for m in maximum_matchings(g)} == expected

    def test_cap(self):
        with pytest.raises(CapExceededError):
            maximum_matchings(Graph.complete(6), edge_cap=10)


class TestPerfectMatchingAndFactorCritical:
    def test_empty_support(self):
        assert has_perfect_matching(Graph.empty(3), [])

    def test_c4(self):
        assert has_perfect_matching(Graph.cycle(4), range(4))

    def test_p3_odd(self):
        assert not has_perfect_matching(Graph.path(3), range(3))

    def test_single_vertex_factor_critical(self):
        assert is_factor_critical(Graph.empty(1), [0])

    def test_c5_factor_critical(self):
        assert is_factor_critical(Graph.cycle(5), range(5))

    def test_c4_not(self):
        assert not is_factor_critical(Graph.cycle(4), range(4))

    def test_p3_not_factor_critical(self):
        # definitional: deleting the centre vertex strands both endpoints
        assert not is_factor_critical(Graph.path(3), range(3))


class TestBipartiteFactorCritical:
    def test_empty_y(self):
        g = Graph.from_edges(3, [])
        assert is_y_factor_critical(g, [0, 1, 2], [])

    def test_k21(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert is_y_factor_critical(g, [0, 1], [2])

    def test_perfect_matching_not(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3)])
        assert not is_y_factor_critical(g, [0, 1], [2, 3])

    def test_yz_empty_z(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert is_yz_factor_critical(g, [0, 1], [2], [])

    def test_yz_all_empty(self):
        assert is_yz_factor_critical(Graph.empty(0), [], [], [])

    def test_yz_z_as_big_as_y(self):
        # |Z| < |Y| is necessary when both non-empty
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert not is_yz_factor_critical(g, [0, 1], [2], [0])

    def test_deletion_equals_hall_exhaustive(self):
        # both routes agree on every bipartite graph with sides up to 4
        for a in range(0, 5):
            for b in range(0, 5):
                xs, ys = list(range(a)), list(range(a, a + b))
                pairs = [(x, y) for x in xs for y in ys]
                for mask in range(1 << len(pairs)):
                    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                    g = Graph.from_edges(a + b, edges)
                    # raises InternalCheckError if the two criteria disagree
                    is_y_factor_critical(g, xs, ys)


class TestGallaiEdmonds:
    def test_single_edge(self):
        ge = gallai_edmonds(Graph.from_edges(2, [(0, 1)]))
        assert ge.components == () and ge.a_set == frozenset() and ge.c_set == {0, 1}

    def test_path3(self):
        ge = gallai_edmonds(Graph.path(3))
        assert [set(c) for c in ge.components] == [{0}, {2}]
        assert ge.a_set == {1} and ge.c_set == frozenset()
        assert ge.component_count == 1 + 3 - 2 * 1

    def test_c5(self):
        ge = gallai_edmonds(Graph.cycle(5))
        assert len(ge.components) == 1 and ge.components[0] == frozenset(range(5))
        assert ge.a_set == frozenset() and ge.c_set == frozenset()

    def test_properties_small(self):
        # every graph on at most 5 vertices, one batched check per n
        for n in range(0, 6):
            masks = range(1 << (n * (n - 1) // 2))
            claims = [gallai_edmonds(mask_to_graph(n, mask)) for mask in masks]
            comps = [[vertex_bits(k) for k in ge.components] for ge in claims]
            codes = ge_violations(n, list(masks), [k + [0] * (n - len(k)) for k in comps],
                                  list(map(len, comps)), [vertex_bits(ge.a_set) for ge in claims],
                                  [vertex_bits(ge.c_set) for ge in claims])
            assert codes.tolist() == [-1] * len(masks), n

    def test_maximum_matching_split(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        ge = gallai_edmonds(g)
        assert len(maximum_matchings(g)) > 1
        assert ge_violation(5, graph_to_mask(g), ge.components, ge.a_set, ge.c_set) is None


# One wrong decomposition per property, each passing every earlier check:
# (n, edges, components of D, A, C).
WRONG_DECOMPOSITIONS = {
    "partition": (2, [(0, 1)], [{0, 1}], {1}, set()),
    "a-is-neighborhood-of-d": (1, [], [], {0}, set()),
    "component-structure": (2, [], [{0, 1}], set(), set()),
    "c-perfectly-matchable": (1, [], [], set(), {0}),
    # the edge is no near-perfect matching of the even component {0, 1}
    "maximum-matchings-split": (2, [(0, 1)], [{0, 1}], set(), set()),
    # the star K1,3 as one component: every maximum matching is one edge
    "component-count": (4, [(0, 1), (0, 2), (0, 3)], [{0, 1, 2, 3}], set(), set()),
    # the path 1-0-2 is not factor critical
    "factor-critical": (3, [(0, 1), (0, 2)], [{0, 1, 2}], set(), set()),
    # vertex 1 cannot be matched avoiding the only component
    "a-matches-avoiding-any-component": (2, [(0, 1)], [{0}], {1}, set()),
}


class TestGallaiEdmondsChecker:
    @pytest.mark.parametrize("name", GE_PROPERTIES)
    def test_each_check_fires(self, name):
        n, edges, comps, a, c = WRONG_DECOMPOSITIONS[name]
        g = Graph.from_edges(n, edges)
        claim = (tuple(frozenset(k) for k in comps), frozenset(a), frozenset(c))
        ge = gallai_edmonds(g)
        assert claim != (ge.components, ge.a_set, ge.c_set)
        assert ge_violation(n, graph_to_mask(g), *claim) == name


class TestCanonicalForm:
    def test_relabelings_of_path(self):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert canonical_form(g1) == canonical_form(g2)

    def test_k4_fixed_point(self):
        g = Graph.complete(4)
        assert canonical_form(g)[2] == graph_to_mask(g)

    def test_eleven_classes_on_four_vertices(self):
        keys = {canonical_form(mask_to_graph(4, m)) for m in range(1 << 6)}
        assert len(keys) == 11
        assert len(graph_isomorphism_classes(4)) == 11

    def test_cap(self):
        with pytest.raises(CapExceededError):
            canonical_form(Graph.empty(9))

    def test_bipartite_respects_classes(self):
        g1 = Graph.from_edges(4, [(0, 2)], ((0, 1), (2, 3)))
        g2 = Graph.from_edges(4, [(1, 3)], ((0, 1), (2, 3)))
        assert canonical_form(g1) == canonical_form(g2)

    def test_bipartite_classes_swap_only_when_equal(self):
        # a two-leaf star centred in X or in Y: isomorphic as graphs, and as
        # bipartite graphs exactly when the classes may swap
        for b in (2, 3):
            classes = (range(2), range(2, 2 + b))
            in_x = Graph.from_edges(2 + b, [(0, 2), (0, 3)], classes)
            in_y = Graph.from_edges(2 + b, [(0, 2), (1, 2)], classes)
            assert (canonical_form(in_x) == canonical_form(in_y)) == (b == 2)

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_classes_off_the_prefix(self, a, b):
        # X on odd vertices, Y holding vertex 0, against the same graph
        # relabeled so that X is 0..a-1 and Y the rest, each in order
        n = a + b
        x = list(range(1, 2 * a, 2))
        y = [v for v in range(n) if v not in x]
        to_prefix = {v: i for i, v in enumerate(x + y)}
        host = [(u, v) for u in x for v in y]
        for mask in range(1 << len(host)):
            edges = [e for i, e in enumerate(host) if mask >> i & 1]
            g = Graph.from_edges(n, edges, (x, y))
            h = Graph.from_edges(n, [(to_prefix[u], to_prefix[v]) for (u, v) in edges],
                                 (range(a), range(a, n)))
            assert canonical_form(g) == canonical_form(h)

    @pytest.mark.parametrize("n,count", [(7, 6), (8, 2)])
    def test_least_image_on_random_graphs(self, n, count):
        slots = complete_edge_list(n)
        perms = list(itertools.permutations(range(n)))
        rng = random.Random(n)
        for _ in range(count):
            mask = rng.getrandbits(len(slots))
            want = min(_image(mask, slots, p) for p in perms)
            assert canonical_form(mask_to_graph(n, mask)) == (n, None, want)

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 4), (2, 4), (3, 5)])
    def test_least_image_on_random_bipartite_graphs(self, a, b):
        n = a + b
        slots = complete_edge_list(n)
        host = [(u, v) for u in range(a) for v in range(a, n)]
        group = _bipartite_group(a, b)
        rng = random.Random(10 * a + b)
        for _ in range(4):
            g = Graph.from_edges(n, [e for e in host if rng.random() < 0.5],
                                 (range(a), range(a, n)))
            want = min(_image(graph_to_mask(g), slots, p) for p in group)
            assert canonical_form(g) == (n, (a, b), want)


def _image(mask, slots, perm):
    """The edge mask of a relabeled graph, by a scan of the slot list."""
    index = {e: i for i, e in enumerate(slots)}
    out = 0
    for i, (u, v) in enumerate(slots):
        if mask >> i & 1:
            out |= 1 << index[tuple(sorted((perm[u], perm[v])))]
    return out


def _bipartite_group(a, b):
    """Class-preserving relabelings of K_{a,b} (and swaps when a == b),
    built from itertools without the package's helper."""
    perms = []
    for px in itertools.permutations(range(a)):
        for py in itertools.permutations(range(a, a + b)):
            perms.append(px + py)
            if a == b:
                perms.append(tuple(p + a for p in px) + tuple(p - a for p in py))
    return perms


class TestIsomorphismClasses:
    def test_class_counts(self):
        # the number of graphs on n unlabelled vertices (OEIS A000088)
        counts = [len(graph_isomorphism_classes(n)) for n in range(7)]
        assert counts == [1, 1, 2, 4, 11, 34, 156]

    @pytest.mark.parametrize("a", range(5))
    def test_bipartite_counts_by_burnside(self, a):
        for b in range(5):
            slots = [(u, v) for u in range(a) for v in range(a, a + b)]
            group = _bipartite_group(a, b)
            fixed = 0
            for perm in group:
                # a relabeling fixes 2^(its cycles on the slots) edge sets
                cycles, left = 0, set(slots)
                while left:
                    e = left.pop()
                    cycles += 1
                    f = tuple(sorted((perm[e[0]], perm[e[1]])))
                    while f != e:
                        left.discard(f)
                        f = tuple(sorted((perm[f[0]], perm[f[1]])))
                fixed += 1 << cycles
            assert len(bipartite_subgraph_classes(a, b)) * len(group) == fixed

    @pytest.mark.parametrize("n", range(6))
    def test_each_representative_is_least_in_its_orbit(self, n):
        slots = complete_edge_list(n)
        perms = list(itertools.permutations(range(n)))
        covered = set()
        for g in graph_isomorphism_classes(n):
            rep = graph_to_mask(g)
            orbit = {_image(rep, slots, p) for p in perms}
            assert rep == min(orbit) and not orbit & covered
            covered |= orbit
        assert covered == set(range(1 << len(slots)))

    def test_bipartite_representatives_are_least(self):
        for a, b in [(2, 3), (3, 3)]:
            host = Graph.complete_bipartite(a, b)
            slots = host.sorted_edges()
            for g in bipartite_subgraph_classes(a, b):
                rep = sum(1 << slots.index(e) for e in g.edges)
                assert rep == min(_image(rep, slots, p) for p in _bipartite_group(a, b))

    def test_enumerator_on_a_sparse_iterable(self):
        slots = complete_edge_list(5)
        three = (m for m in range(1 << len(slots)) if m.bit_count() == 3)
        reps = orbit_representatives(slots, relabelings(5, None), three)
        full = [graph_to_mask(g) for g in graph_isomorphism_classes(5) if g.edge_count == 3]
        assert reps == full and len(reps) == 4

    def test_orbit_partition_past_64_slots_refused(self):
        # a slot mask is a uint64: the 66 slots of K12 are refused before the
        # table is filled, and its first 64, which the transposition (0 1)
        # maps onto themselves, pass with bit 63 set
        slots = complete_edge_list(12)
        group = [tuple(range(12)), (1, 0) + tuple(range(2, 12))]
        with pytest.raises(CapExceededError, match="66 slots"):
            graphs_module.orbit_partition(slots, group, [1 << 65])
        reps, owner = graphs_module.orbit_partition(slots[:64], group, [1 << 63, 1 << 1])
        assert reps == [1 << 63, 1 << 1] and owner == {1 << 63: 1 << 63, 1 << 1: 1 << 1, 1 << 11: 1 << 1}

    def test_partition_maps_every_orbit_member_to_its_first(self):
        slots = complete_edge_list(4)
        group = relabelings(4, None)
        reps, owner = graphs_module.orbit_partition(slots, group, range(1 << len(slots)))
        assert reps == orbit_representatives(slots, group, range(1 << len(slots)))
        assert sorted(owner) == list(range(1 << len(slots)))
        assert set(owner.values()) == set(reps)
        for m, rep in owner.items():
            assert rep in {_image(m, slots, p) for p in group}

    def test_partition_refuses_a_set_that_is_not_a_group(self):
        slots = complete_edge_list(4)
        # the identity and a 3-cycle: the orbit of (0, 2) meets that of (0, 1)
        with pytest.raises(InternalCheckError, match="not a group"):
            graphs_module.orbit_partition(slots, [(0, 1, 2, 3), (1, 2, 0, 3)], [1, 2])
        # a transposition alone moves the edge (0, 2), which is then not among its images
        with pytest.raises(InternalCheckError, match="not in its own orbit"):
            graphs_module.orbit_partition(slots, [(1, 0, 2, 3)], [2])

    def test_relabeling_off_the_slots_is_refused(self):
        # swapping 0 and 1 sends the slot (0, 2) of K_{1,2} to (1, 2)
        with pytest.raises(ValueError):
            orbit_representatives([(0, 1), (0, 2)], [(0, 1, 2), (1, 0, 2)], range(4))

    def test_class_enumeration_cap(self, monkeypatch):
        # 2^28 graphs on 8 vertices and 2^25 subgraphs of K5,5 exceed the
        # subset cap, and are refused before any relabeling or enumeration
        def never(*args):
            raise AssertionError("enumeration started past the cap")

        monkeypatch.setattr(graphs_module, "relabelings", never)
        monkeypatch.setattr(graphs_module, "orbit_representatives", never)
        with pytest.raises(CapExceededError):
            graph_isomorphism_classes(8)
        with pytest.raises(CapExceededError):
            bipartite_subgraph_classes(5, 5)

    def test_relabelings_by_classes(self):
        # X = {1, 3} goes onto {0, 1} and Y = {0, 2} onto {2, 3}, or the reverse
        maps = relabelings(4, ({1, 3}, {0, 2}))
        assert len(maps) == 8 and len(set(maps)) == 8
        for p in maps:
            assert {p[1], p[3]} in ({0, 1}, {2, 3})
        assert len(relabelings(5, ({0, 1}, {2, 3, 4}))) == 12


class TestAutomorphisms:
    @staticmethod
    def brute_force(g, classes):
        return {p for p in relabelings(g.vertex_count, classes)
                if {tuple(sorted((p[u], p[v]))) for (u, v) in g.edges} == g.edges}

    @pytest.mark.parametrize("g, order", [
        *[(Graph.complete(n), [1, 1, 2, 6, 24, 120, 720][n]) for n in range(7)],
        (Graph.complete_bipartite(3, 3), 72),
        (Graph.complete_bipartite(2, 3), 12),
        (Graph.complete_bipartite(4, 4), 1152),
        (subdivided_complete_graph(6), 48),
        (Graph.cycle(6), 12),
        (Graph.path(5), 2),
        (Graph.empty(4), 24),
    ], ids=lambda x: str(x) if isinstance(x, int) else f"n{x.vertex_count}e{x.edge_count}")
    def test_against_a_filter_of_relabelings(self, g, order):
        auts = automorphisms(g)
        assert len(auts) == len(set(auts)) == order
        assert set(auts) == self.brute_force(g, g.bipartition)
        # a group: the identity, and closed under composition
        group = set(auts)
        assert tuple(range(g.vertex_count)) in group
        if order <= 72:
            assert all(tuple(p[q[v]] for v in range(g.vertex_count)) in group
                       for p in auts for q in auts)

    def test_bipartition_not_laid_out_first(self):
        # X = {0, 2} is not 0..|X|-1, so every permutation is tried: the two
        # disjoint edges (0, 1) and (2, 3) have 8 automorphisms, among them
        # the identity and maps that mix the sides
        g = Graph.from_edges(4, [(0, 1), (2, 3)], ({0, 2}, {1, 3}))
        assert set(automorphisms(g)) == self.brute_force(g, None)
        assert len(automorphisms(g)) == 8 and (0, 1, 2, 3) in automorphisms(g)

    def test_vertex_cap(self):
        with pytest.raises(CapExceededError):
            automorphisms(Graph.path(9))


def test_subgraph_classes_hand_out_fresh_lists():
    # the orbit representatives are computed once per (slots, n, classes);
    # each caller gets its own list, and the cap is checked before the memo
    slots = complete_edge_list(4)
    first = graphs_module._subgraph_classes(slots, 4, None)
    first.append(-1)
    assert graphs_module._subgraph_classes(slots, 4, None) == first[:-1]
    assert len(first) - 1 == len(graph_isomorphism_classes(4)) == 11
    with pytest.raises(CapExceededError):
        graphs_module._subgraph_classes(complete_edge_list(8), 8, None)


def test_all_matchings_of_complete_graphs():
    # matchings of K_n are the involutions of n points (OEIS A000085)
    counts = []
    for n in range(7):
        edges = complete_edge_list(n)
        found = sweeps_module._all_matchings(n)
        counts.append(len(found))
        assert list(found) == sorted(set(found))
        for m in found:
            ends = [v for i, e in enumerate(edges) if m >> i & 1 for v in e]
            assert len(ends) == len(set(ends))
    assert counts == [1, 1, 2, 4, 10, 26, 76]


def test_ge_tables_within_and_touch():
    # the host's per-vertex edge bits against one loop over every edge of K_n
    for n in range(7):
        _, within, touch, _ = sweeps_module._ge_tables(n)
        edges = complete_edge_list(n)
        assert len(within) == len(touch) == 1 << n
        for s in range(1 << n):
            ends = [(s >> u & 1) + (s >> v & 1) for u, v in edges]
            assert within[s] == sum(1 << i for i, c in enumerate(ends) if c == 2)
            assert touch[s] == sum(1 << i for i, c in enumerate(ends) if c >= 1)


class TestEdgeListFormat:
    def test_roundtrip_plain(self):
        g = Graph.cycle(5)
        assert parse_graph(format_graph(g)) == g

    def test_roundtrip_bipartite(self):
        g = Graph.complete_bipartite(2, 3)
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        g = parse_graph("# a graph\n\n3\n0 1  # edge\n\n1 2\n")
        assert g == Graph.path(3)

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_graph("x\n0 1\n")

    def test_bad_edge(self):
        with pytest.raises(FormatError):
            parse_graph("3\n0\n")

    def test_crossing_enforced(self):
        with pytest.raises(FormatError):
            parse_graph("4 = 2 2\n0 1\n")


class TestGraphInvariants:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_empty_graph_any_order(self):
        for n in (0, 1, 5):
            assert Graph.empty(n).edge_count == 0

    def test_matching_disjointness(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 1), (1, 2)}))

    def test_subdivided_k6_shape(self):
        g = subdivided_complete_graph(6)
        assert g.vertex_count == 7 and g.edge_count == 16
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 6) and g.has_edge(1, 6)
