"""Simplicial complexes over edge grounds and the special families."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from complex_oracles import nm_levels_by_facets, order_complex
from nonmatching.complexes import (
    FamilySpec,
    GroundSet,
    SimplicialComplex,
    build_nm_complex,
    edge_host,
    enumerate_family,
    induced_subcomplex,
    link,
    mask_bits,
    vertex_bits,
)
import nonmatching.complexes as complexes_module
from nonmatching.errors import CapExceededError, InternalCheckError
from nonmatching.graphs import (
    DEFAULT_FACE_CAP,
    Graph,
    bipartite_edge_list,
    complete_edge_list,
    gallai_edmonds,
    is_factor_critical,
    is_y_factor_critical,
    is_yz_factor_critical,
    has_perfect_matching,
    matching_number,
    mask_to_graph,
    subdivided_complete_graph,
    subset_matching_numbers,
)
from nonmatching.rainbow import RainbowInstance, labelled_nm_complex


def naive_nm_faces(g: Graph, k: int) -> set[frozenset]:
    """Independent oracle: filter edge subsets by enumerated matching number."""
    edges = g.sorted_edges()
    out = set()
    for r in range(len(edges) + 1):
        for comb in itertools.combinations(edges, r):
            sub = Graph.from_edges(g.vertex_count, comb)
            best = 0
            for rr in range(len(comb), 0, -1):
                found = False
                for mm in itertools.combinations(comb, rr):
                    vs = [v for e in mm for v in e]
                    if len(set(vs)) == len(vs):
                        found = True
                        break
                if found:
                    best = rr
                    break
            if best < k:
                out.add(frozenset(comb))
    return out


class TestBuildNM:
    def test_full_simplex_when_nu_small(self):
        g = Graph.path(3)  # nu = 1 < 2
        cx = build_nm_complex(g, 2)
        assert cx.face_count == 2 ** g.edge_count

    def test_nm2_k22_is_a_4_cycle(self):
        g = Graph.complete_bipartite(2, 2)
        cx = build_nm_complex(g, 2)
        expected = naive_nm_faces(g, 2)
        actual = {frozenset(cx.ground.decode(m)) for m in cx.faces}
        assert actual == expected
        assert cx.face_counts() == {-1: 1, 0: 4, 1: 4}

    def test_nm2_k4_facets(self):
        g = Graph.complete(4)
        cx = build_nm_complex(g, 2)
        facets = [set(cx.ground.decode(m)) for m in cx.facets()]
        triangles = [f for f in facets if len({v for e in f for v in e}) == 3]
        stars = [f for f in facets if len(f) == 3 and len({v for e in f for v in e}) == 4]
        assert len(facets) == 8 and len(triangles) == 4 and len(stars) == 4

    def test_cap(self):
        # the cap counts faces: NM_3(K7) has 46,936 of them, the empty face included
        with pytest.raises(CapExceededError):
            build_nm_complex(Graph.complete(7), 3, cap=46935)
        assert build_nm_complex(Graph.complete(7), 3, cap=46936).face_count == 46936

    def test_hereditary(self):
        for n in (3, 4):
            for mask in range(0, 1 << (n * (n - 1) // 2), 7):
                cx = build_nm_complex(mask_to_graph(n, mask), 2)
                assert cx.is_hereditary()


def table_faces(g: Graph, k: int) -> frozenset[int]:
    """Oracle: the edge masks whose entry in the all-subsets nu table is below k."""
    nu = subset_matching_numbers(g.sorted_edges())
    return frozenset(np.nonzero(nu < k)[0].tolist())


def walk_inputs():
    """The benchmark's hosts, seeded 14-edge subgraphs of K7, and 20 seeded
    random graphs, general and bipartite."""
    rng = random.Random(15)
    k7 = complete_edge_list(7)
    out = [Graph.complete(4), Graph.complete(5), Graph.complete(7),
           Graph.complete_bipartite(2, 3), Graph.complete_bipartite(3, 3),
           Graph.complete_bipartite(4, 4), subdivided_complete_graph(6), Graph.cycle(5)]
    out += [Graph.from_edges(7, rng.sample(k7, 14)) for _ in range(2)]
    for i in range(20):
        if i % 2:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            edges = bipartite_edge_list(range(a), range(a, a + b))
            n = a + b
        else:
            n = rng.randint(2, 7)
            edges = complete_edge_list(n)
        out.append(Graph.from_edges(n, rng.sample(edges, rng.randint(0, min(len(edges), 16)))))
    return out


class TestNMWalk:
    def test_equals_the_table(self):
        for g in walk_inputs():
            for k in (1, 2, 3, 4):
                if k > matching_number(g) and 1 << g.edge_count > DEFAULT_FACE_CAP:
                    continue  # the full simplex, over the face cap (K7 at k=4)
                faces = build_nm_complex(g, k).faces
                assert faces == table_faces(g, k), (g.sorted_edges(), k)
                if k == 1:
                    assert faces == {0}
                if k > matching_number(g):
                    assert len(faces) == 1 << g.edge_count

    def test_levels_against_the_facet_walk(self):
        # the walk's levels, byte for byte, against the walk that knows no
        # matching number (a set is a face iff its facets are and it is no
        # k-matching), on K4-K7, subdivided K6, K4,4, the seeded random
        # hosts, and ground lists with parallel copies of an edge, the
        # labelled complex's among them
        hosts = [Graph.complete(n).sorted_edges() for n in (4, 5, 6, 7)]
        hosts += [subdivided_complete_graph(6).sorted_edges(),
                  Graph.complete_bipartite(4, 4).sorted_edges()]
        hosts += [g.sorted_edges() for g in walk_inputs()[-20:]]
        hosts.append([(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3), (1, 3), (0, 1)])
        inst = RainbowInstance.make(Graph.complete(5), [[(0, 1), (2, 3), (3, 4)], [(0, 1), (1, 2), (2, 3)],
                                                        [(0, 4), (2, 3), (1, 3)]], 3)
        hosts.append([e for (e, _) in labelled_nm_complex(inst).ground.elements])
        compared = 0
        for edges in hosts:
            for k in (1, 2, 3, 4):
                if 1 << len(edges) > DEFAULT_FACE_CAP and k > matching_number(Graph.from_edges(9, edges)):
                    continue  # the full simplex, over the face cap (K7 at k=4)
                walked = complexes_module._nm_faces(edges, k, DEFAULT_FACE_CAP)
                oracle = nm_levels_by_facets(edges, k)
                assert len(walked) == len(oracle), (edges, k)
                for a, b in zip(walked, oracle):
                    assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes(), (edges, k)
                compared += 1
        assert compared == 4 * len(hosts) - 1
        labelled = labelled_nm_complex(inst)
        assert [level.tobytes() for level in labelled.levels] == [
            level.tobytes() for level in nm_levels_by_facets([e for (e, _) in labelled.ground.elements], 3)]

    def test_k8_face_counts(self):
        counts = build_nm_complex(Graph.complete(8), 3).face_counts()
        by_size = [counts[d] for d in range(-1, max(counts) + 1)]
        assert by_size == [1, 28, 378, 2856, 12810, 34860, 58254, 61664, 44268, 22540,
                           8344, 2184, 364, 28]
        # closed forms: every set of at most 2 edges is a face, and a 3-set
        # is one unless it is one of the 28 * 15 * 6 / 3! perfect 3-matchings
        assert by_size[:4] == [1, 28, math.comb(28, 2), math.comb(28, 3) - 28 * 15 * 6 // 6]
        # Erdos-Gallai: at most max(C(2k-1, 2), C(k-1, 2) + (k-1)(n-k+1)) = 13
        # edges with nu < 3 on 8 vertices, reached only by the C(8, 2) graphs of
        # all edges at two vertices
        assert len(by_size) - 1 == max(math.comb(5, 2), math.comb(2, 2) + 2 * 6) == 13
        assert by_size[-1] == math.comb(8, 2)

    @pytest.mark.parametrize("n, k", [(9, 3), (8, 4)])
    def test_small_cap_stops_the_walk(self, n, k):
        # 1 + C(n, 2) + C(C(n, 2), 2) faces up to size 2 fit in 1,000; the
        # walk stops in size 3, long before the complex
        with pytest.raises(CapExceededError, match="passed at size 3"):
            build_nm_complex(Graph.complete(n), k, cap=1000)

    def test_refused_input_holds_the_cap_and_one_block(self):
        # NM_3(K9) passes the 2^20 face cap at size 9; the faces found so far
        # (9 bytes each: the mask and its nu) and one block of candidates
        # stay far below the ~75 MiB of one unblocked level
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="passed at size 9"):
                build_nm_complex(Graph.complete(9), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20

    def test_too_many_edges_for_a_mask(self):
        with pytest.raises(CapExceededError):
            build_nm_complex(Graph.complete(12), 1)


class TestLevels:
    """The faces by size (``SimplicialComplex.levels``), the one face store:
    handed over by the walk and the link filters, or derived by
    ``from_masks``, and read by the dimension counts."""

    def test_walk_levels_against_the_face_set(self):
        # the walk's levels against a scan of its face set, values and
        # dtype; the walk-built complex equals, and hashes like, the one
        # from_masks derives from the same faces
        inst = RainbowInstance.make(Graph.complete(4), [[(0, 1), (2, 3)], [(0, 1), (0, 2), (1, 3)]], 2)
        built = [build_nm_complex(g, k) for g in walk_inputs() for k in (1, 2, 3, 4)
                 if k <= matching_number(g) or 1 << g.edge_count <= DEFAULT_FACE_CAP]
        built.append(labelled_nm_complex(inst))
        assert any(len(cx.levels) > 10 for cx in built)
        for cx in built:
            plain = SimplicialComplex.from_masks(cx.ground, cx.faces)
            assert cx == plain and hash(cx) == hash(plain)
            scan = [sorted(m for m in cx.faces if m.bit_count() == size)
                    for size in range(max(m.bit_count() for m in cx.faces) + 1)]
            assert [level.tolist() for level in cx.levels] == scan
            assert [level.tolist() for level in plain.levels] == scan
            assert all(level.dtype == np.int64 for level in cx.levels + plain.levels)

    def test_counts_read_the_levels(self):
        # dim, faces_of_dim and face_counts against a scan of the face set,
        # on a walk-built complex, one of its links, a complex on 63
        # elements, {empty face} and the void complex; every level is int64
        cx = build_nm_complex(subdivided_complete_graph(6), 3)
        lk = link(cx, [cx.ground.elements[0]])
        ground = GroundSet(tuple(range(63)))
        for c in (cx, lk, oracle_complexes()[-1], SimplicialComplex.from_masks(ground, {0}),
                  SimplicialComplex.void(ground)):
            assert all(level.dtype == np.int64 for level in c.levels)
            sizes = [m.bit_count() for m in c.faces]
            assert c.dim() == max(sizes, default=-1) - 1
            assert c.face_counts() == {s - 1: sizes.count(s) for s in set(sizes)}
            for d in range(-3, c.dim() + 3):
                assert c.faces_of_dim(d) == sorted(m for m in c.faces if m.bit_count() == d + 1)
        assert lk.dim() == cx.dim() - 1 == 8

    def test_link_and_induced_against_the_walk(self):
        # the level filters against a walk up the face set, on the link of
        # every face and the subcomplexes induced on it and on its
        # complement, a ground of 63 elements included; every level is int64
        for cx in oracle_complexes():
            full = (1 << len(cx.ground)) - 1
            for m in sorted(cx.faces):
                for base, allowed, got in ((m, full & ~m, link(cx, m)),
                                           (0, m, induced_subcomplex(cx, m)),
                                           (0, full & ~m, induced_subcomplex(cx, full & ~m))):
                    assert got == SimplicialComplex.from_masks(got.ground, walked_faces(cx, base, allowed))
                    assert all(level.dtype == np.int64 for level in got.levels), (m, base, allowed)


def walked_faces(cx: SimplicialComplex, base: int, allowed: int) -> set[int]:
    """Oracle for the level filters: the faces f with base <= f <= base | allowed
    of a hereditary complex, walked up from ``base`` by membership in its face
    set, adding bits of ``allowed`` in ascending order, each re-indexed onto
    the bits of ``allowed``."""
    faces = cx.faces
    if base not in faces:
        return set()
    new_bit = {1 << b: 1 << i for i, b in enumerate(mask_bits(allowed))}
    out = {0}
    stack = [(base, 0, [b for b in new_bit if base | b in faces])]
    while stack:
        face, new, cands = stack.pop()
        for i, b in enumerate(cands, 1):
            above, new_above = face | b, new | new_bit[b]
            out.add(new_above)
            rest = [c for c in cands[i:] if above | c in faces]
            if rest:
                stack.append((above, new_above, rest))
    return out


class TestLink:
    def test_link_of_empty_is_identity(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        assert link(cx, 0) is cx

    def test_link_of_facet(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        facet = cx.facets()[0]
        lk = link(cx, facet)
        assert lk.faces == frozenset({0})

    def test_link_one_edge_in_nm2_k4(self):
        g = Graph.complete(4)
        cx = build_nm_complex(g, 2)
        e = (0, 1)
        lk = link(cx, [e])
        # oracle: definitional enumeration
        expect = set()
        for face in naive_nm_faces(g, 2):
            if e in face:
                expect.add(face - {e})
        actual = {frozenset(lk.ground.decode(m)) for m in lk.faces}
        assert actual == expect

    def test_not_a_face(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        with pytest.raises(ValueError):
            link(cx, [(0, 1), (2, 3)])  # two disjoint edges: not a face


class TestInducedAndJoin:
    def test_induced_full(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        sub = induced_subcomplex(cx, cx.ground.elements)
        assert sub.faces == cx.faces

    def test_induced_empty(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        sub = induced_subcomplex(cx, [])
        assert sub.faces == frozenset({0})

    def test_induced_equals_rebuilt(self):
        # on all subgraphs of K_4 and of K_{2,3}
        for host in (Graph.complete(4), Graph.complete_bipartite(2, 3)):
            cx = build_nm_complex(host, 2)
            edges = host.sorted_edges()
            for mask in range(1 << len(edges)):
                sub_edges = [edges[i] for i in range(len(edges)) if mask >> i & 1]
                sub = induced_subcomplex(cx, sub_edges)
                rebuilt = build_nm_complex(
                    Graph.from_edges(host.vertex_count, sub_edges), 2
                )
                a = {frozenset(sub.ground.decode(m)) for m in sub.faces}
                b = {frozenset(rebuilt.ground.decode(m)) for m in rebuilt.faces}
                assert a == b


def from_facets(n: int, facets) -> SimplicialComplex:
    """The complex on vertices 0..n-1 generated by the given facets."""
    masks = {sum(1 << v for v in sub)
             for f in facets for r in range(len(f) + 1) for sub in itertools.combinations(f, r)}
    return SimplicialComplex.from_masks(GroundSet(tuple(range(n))), masks)


def oracle_complexes() -> list[SimplicialComplex]:
    """Non-matching complexes of three small hosts, then 10 seeded random
    complexes, the last on 63 elements, the widest ground a face mask holds."""
    out = [build_nm_complex(g, 2) for g in
           (Graph.complete(5), Graph.complete_bipartite(2, 3), Graph.complete_bipartite(3, 3))]
    rng = random.Random(2024)
    for n in (5, 6, 7, 8, 9, 10, 12, 16, 30, 63):
        top = rng.sample(range(n), 6) if n == 63 else range(n)
        facets = [rng.sample(top, rng.randint(1, 5)) for _ in range(rng.randint(2, 7))]
        if n == 63:
            facets.append([0, n - 1, n // 2])  # bit 62, the top bit of an int64 mask
        out.append(from_facets(n, facets))
    return out


def scan_faces(cx: SimplicialComplex) -> list[set]:
    """Every face of the complex as a set of ground elements, by a full scan."""
    return [set(cx.ground.decode(m)) for m in cx.faces]


def element_faces(cx: SimplicialComplex) -> set[frozenset]:
    return {frozenset(cx.ground.decode(m)) for m in cx.faces}


class TestLinkAndInducedAgainstScan:
    """``link`` and ``induced_subcomplex`` walk up from a face; the oracle
    here is the definition applied to every face of the complex."""

    def test_oracle_inputs(self):
        cxs = oracle_complexes()
        assert len(cxs) == 13 and all(cx.is_hereditary() for cx in cxs)
        assert max(len(cx.ground) for cx in cxs) == 63
        assert any(m >> 62 for cx in cxs for m in cx.faces)

    def test_link_of_every_face(self):
        for cx in oracle_complexes():
            everything = scan_faces(cx)
            for m in cx.faces:
                sigma = set(cx.ground.decode(m))
                lk = link(cx, m)
                if m == 0:
                    assert lk is cx
                    continue
                assert lk.ground.elements == tuple(e for e in cx.ground.elements if e not in sigma)
                expect = {frozenset(f - sigma) for f in everything if sigma <= f}
                assert element_faces(lk) == expect, (sorted(cx.faces), m)
                assert lk.face_count == len(expect)

    def test_induced_on_every_face_and_its_complement(self):
        for cx in oracle_complexes():
            everything = scan_faces(cx)
            ground = cx.ground.elements
            for m in cx.faces:
                face = set(cx.ground.decode(m))
                for subset in (face, set(ground) - face):
                    sub = induced_subcomplex(cx, [e for e in ground if e in subset])
                    assert sub.ground.elements == tuple(e for e in ground if e in subset)
                    expect = {frozenset(f) for f in everything if f <= subset}
                    assert element_faces(sub) == expect, (sorted(cx.faces), sorted(subset))

    def test_induced_of_void(self):
        void = SimplicialComplex.void(GroundSet(tuple(range(3))))
        sub = induced_subcomplex(void, [0, 2])
        assert sub.is_void() and sub.ground.elements == (0, 2)


class TestFamilies:
    def test_pm_single_edge(self):
        fam = enumerate_family(FamilySpec("PM", vertices=(0, 1)))
        assert [sorted(g.edges) for g in fam] == [[(0, 1)]]

    def test_pm_empty_vertexset(self):
        fam = enumerate_family(FamilySpec("PM", vertices=()))
        assert len(fam) == 1 and fam[0].edge_count == 0

    def test_pm_odd_empty(self):
        assert enumerate_family(FamilySpec("PM", vertices=(0, 1, 2))) == []

    def test_fc_singleton(self):
        fam = enumerate_family(FamilySpec("FC", vertices=(0,)))
        assert len(fam) == 1 and fam[0].edge_count == 0

    def test_fc_predicate_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(complexes_module, "is_factor_critical", lambda g, vs: False)
        with pytest.raises(InternalCheckError):
            enumerate_family(FamilySpec("FC", vertices=(0, 1, 2)))

    def test_fc_definitional(self):
        fam = enumerate_family(FamilySpec("FC", vertices=(0, 1, 2, 3, 4)))
        for g in fam:
            assert is_factor_critical(g, range(5))
        # spot: the 5-cycle belongs
        assert any(g.edges == Graph.cycle(5).edges for g in fam)

    def test_bfc_convention_and_filter(self):
        fam = enumerate_family(
            FamilySpec("BFC", x_side=(0, 1), y_side=(2,), z_subset=())
        )
        assert [sorted(g.edges) for g in fam] == [[(0, 2), (1, 2)]]

    def test_bfc_empty_side(self):
        fam = enumerate_family(FamilySpec("BFC", x_side=(), y_side=(0,), z_subset=()))
        assert len(fam) == 1 and fam[0].edge_count == 0

    def test_bfc_against_predicates(self):
        # definitional double-check for |X| <= 4, |Y| <= 3, all Z sizes
        for a in range(0, 5):
            for b in range(0, 4):
                xs, ys = tuple(range(a)), tuple(range(a, a + b))
                for zs_size in range(0, a + 1):
                    zs = tuple(range(zs_size))
                    fam = enumerate_family(FamilySpec("BFC", x_side=xs, y_side=ys, z_subset=zs))
                    if not xs or not ys:
                        assert len(fam) == 1
                        continue
                    pairs = [(x, y) for x in xs for y in ys]
                    expect = []
                    for mask in range(1 << len(pairs)):
                        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                        g = Graph.from_edges(a + b, edges)
                        if is_yz_factor_critical(g, xs, ys, zs):
                            expect.append(frozenset(g.edges))
                    assert sorted(frozenset(g.edges) for g in fam) == sorted(expect)
                    # upward closed: non-empty exactly when the complete
                    # bipartite host is a member (the empty-family oracle)
                    full = Graph.from_edges(a + b, pairs)
                    assert bool(fam) == is_yz_factor_critical(full, xs, ys, zs)

    def test_nmlink_families(self):
        fam = enumerate_family(
            FamilySpec("NMLINK_COMPLETE", vertices=(0, 1, 2, 3), subgraph_h=frozenset({(0, 1)}), k=2)
        )
        for g in fam:
            assert matching_number(g) < 2 and (0, 1) in g.edges

    def test_pm_members_have_pm(self):
        fam = enumerate_family(FamilySpec("PM", vertices=(0, 1, 2, 3)))
        for g in fam:
            assert has_perfect_matching(g, range(4))

    @pytest.mark.parametrize("edges", [
        complete_edge_list(5),
        bipartite_edge_list((0, 1, 2), (3, 4, 5)),
    ], ids=["K5", "K3,3"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_nmlink_walk_against_submask_filter(self, edges, k):
        # every h in the host, inside the whole host and inside a seeded
        # random edge set: the cut above h from the host's NM_k levels
        # against the filter of all submasks through the nu table
        host = edge_host(GroundSet(tuple(edges)))
        full = (1 << len(edges)) - 1
        rng = random.Random(k)
        for h in range(full + 1):
            for within in (full, h | rng.getrandbits(len(edges))):
                free = within & ~h
                want = sorted(h | s for s in range(free + 1)
                              if s & ~free == 0 and host.nu[h | s] < k)
                assert complexes_module._nmlink_masks(host, within, h, k) == want, (h, within)


def hall_by_nu(host, masks, cover, other, surplus):
    """Hall's condition from the vertex mask ``cover`` into ``other`` with
    surplus 0 or 1, through the one nu-table filter on each graph's edges
    between the two: surplus one is nu = |cover| after deleting any one
    vertex of ``other``, surplus zero is nu = |cover|."""
    cross = masks & host.bits_between(cover, other)
    return complexes_module._nu_kept(host, cross, other if surplus else 0, cover.bit_count())


class TestEdgeHost:
    def test_decompose_matches_definition_on_k33(self):
        # every subgraph of K3,3: the builders' decomposer against the
        # definitional one on a bipartite ground
        xs, ys = (0, 1, 2), (3, 4, 5)
        host = edge_host(GroundSet(tuple(bipartite_edge_list(xs, ys))))
        assert len(host.edges) == 9
        for mask in range(1 << 9):
            _, _, a, c, comps = host.decompose_masks(mask, vertex_bits(xs + ys))
            ge = gallai_edmonds(Graph.from_edges(6, host.ground.decode(mask)))
            assert (comps, a, c) == (tuple(map(vertex_bits, ge.components)), vertex_bits(ge.a_set),
                                     vertex_bits(ge.c_set)), mask

    def test_hall_matches_oracles_on_k33(self):
        # every subgraph of K3,3 in one array, with either side as the cover
        # side: the strict form against the definitional cover-side factor
        # criticality, the perfect-matching form and the nu view against
        # the matching number
        xs, ys = (0, 1, 2), (3, 4, 5)
        host = edge_host(GroundSet(tuple(bipartite_edge_list(xs, ys))))
        masks = np.arange(1 << 9, dtype=np.int64)
        graphs = [Graph.from_edges(6, host.ground.decode(mask)) for mask in range(1 << 9)]
        nu = [matching_number(g) for g in graphs]
        assert host.nu_array[masks].tolist() == nu
        perfect = [2 * n == len(xs + ys) for n in nu]
        for cover, other in ((ys, xs), (xs, ys)):
            fc = [is_y_factor_critical(g, other, cover) for g in graphs]
            cm, om = vertex_bits(cover), vertex_bits(other)
            assert hall_by_nu(host, masks, cm, om, 1).tolist() == fc, cover
            assert hall_by_nu(host, masks, cm, om, 0).tolist() == perfect, cover

    @pytest.mark.parametrize("host_edges, sides", [
        (bipartite_edge_list((0, 1), (2, 3, 4, 5)), ((0, 1), (2, 3, 4, 5))),
        (bipartite_edge_list((0, 1, 2), (3, 4, 5, 6)), ((0, 1, 2), (3, 4, 5, 6))),
        # edges outside cover x other (inside either side, or at vertex 5)
        # must be ignored
        (complete_edge_list(6), ((0, 1), (2, 3, 4))),
        (complete_edge_list(6), ((0, 1, 2), (3, 4))),
    ], ids=["K2,4", "K3,4", "K6-2,3", "K6-3,2"])
    def test_hall_against_oracles(self, host_edges, sides):
        # every subgraph of the host, either side as the cover: surplus one
        # against cover-side factor criticality, surplus zero against a
        # matching that covers the cover side, both on the graph's edges
        # between the two sides
        host = edge_host(GroundSet(tuple(host_edges)))
        masks = np.arange(1 << len(host_edges), dtype=np.int64)
        n = max(max(e) for e in host_edges) + 1
        for cover, other in (sides, sides[::-1]):
            cm, om = vertex_bits(cover), vertex_bits(other)
            verdicts = {}
            fc, covered = [], []
            for mask in range(len(masks)):
                cross = Graph.from_edges(n, host.ground.decode(mask)).induced_bipartite(cover, other)
                if cross.edges not in verdicts:
                    verdicts[cross.edges] = (is_y_factor_critical(cross, other, cover),
                                             matching_number(cross) == len(cover))
                fc.append(verdicts[cross.edges][0])
                covered.append(verdicts[cross.edges][1])
            assert hall_by_nu(host, masks, cm, om, 1).tolist() == fc, cover
            assert hall_by_nu(host, masks, cm, om, 0).tolist() == covered, cover

    def test_hall_with_an_empty_side(self):
        # into an empty side every graph fails; from an empty cover every
        # graph passes
        for edges in (bipartite_edge_list((0, 1, 2), (3, 4, 5)), complete_edge_list(5)):
            host = edge_host(GroundSet(tuple(edges)))
            masks = np.arange(1 << len(edges), dtype=np.int64)
            for surplus in (0, 1):
                assert not hall_by_nu(host, masks, 0b111, 0, surplus).any()
                assert hall_by_nu(host, masks, 0, 0b11000, surplus).all()

    def test_memo_shares_one_host_per_ground(self):
        edges = tuple(bipartite_edge_list((0, 1), (2, 3)))
        assert edge_host(GroundSet(edges)) is edge_host(GroundSet(edges))
        assert edge_host(GroundSet(edges)) is not edge_host(GroundSet(edges[::-1]))

    def test_nu_table_read_only(self):
        # the table is a bytes object: immutable, read as Python ints
        host = edge_host(GroundSet(tuple(bipartite_edge_list((0, 1), (2, 3)))))
        with pytest.raises(TypeError):
            host.nu[0] = 1

    @pytest.mark.parametrize("edges, vertices", [
        (complete_edge_list(6), range(7)),
        (bipartite_edge_list((0, 1, 2), (3, 4, 5, 6)), range(8)),
    ], ids=["K6", "K3,4"])
    def test_bits_match_edge_scan(self, edges, vertices):
        # every vertex subset, and every ordered pair of subsets (overlapping
        # ones included), against a scan of the edges; the last vertex has
        # no edge in the host
        host = edge_host(GroundSet(tuple(edges)))
        subsets = [frozenset(c) for r in range(len(vertices) + 1)
                   for c in itertools.combinations(vertices, r)]

        def scan(keep):
            return sum(1 << i for i, (u, v) in enumerate(host.edges) if keep(u, v))

        for s in subsets:
            assert host.bits_within(vertex_bits(s)) == scan(lambda u, v: u in s and v in s), s
            assert host.bits_touching(vertex_bits(s)) == scan(lambda u, v: u in s or v in s), s
            for t in subsets:
                want = scan(lambda u, v: (u in s and v in t) or (u in t and v in s))
                assert host.bits_between(vertex_bits(s), vertex_bits(t)) == want, (s, t)

    def test_decompose_matches_definition_on_k5(self):
        host = edge_host(GroundSet(tuple(complete_edge_list(5))))
        for mask in range(1 << 10):
            nu, d, a, c, comps = host.decompose_masks(mask, 0b11111)
            g = mask_to_graph(5, mask)
            ge = gallai_edmonds(g)
            assert (comps, a, c) == (tuple(map(vertex_bits, ge.components)), vertex_bits(ge.a_set),
                                     vertex_bits(ge.c_set)), mask
            assert nu == matching_number(g) and d == sum(comps), mask


class TestFromMasks:
    def test_non_hereditary_refused(self):
        # {0, 1} and {0, 2} without {0}: ranked as given it would read
        # {-1: 1, 0: 0, 1: 1}; {0} alone lacks the empty face
        ground = GroundSet((0, 1, 2))
        faces = [0, 0b010, 0b100, 0b011, 0b110, 0b101]
        for masks in (faces, [0b001]):
            with pytest.raises(ValueError, match="face set is not hereditary"):
                SimplicialComplex.from_masks(ground, masks)
        assert SimplicialComplex.from_masks(ground, faces + [0b001]).face_count == 7

    def test_ground_past_63_elements_refused(self):
        # a face mask is an int64, so 63 elements is the widest ground
        assert SimplicialComplex.from_masks(GroundSet(tuple(range(63))), {0, 1 << 62}).face_count == 2
        with pytest.raises(CapExceededError, match="64 ground elements"):
            SimplicialComplex.from_masks(GroundSet(tuple(range(64))), {0})

    def test_every_door_refuses_the_same_width(self):
        # the full simplex refuses a 64-element ground by width even when the
        # cap would admit its 2^64 faces, and the NM walk by the same check
        ground = GroundSet(tuple(range(64)))
        with pytest.raises(CapExceededError, match="64 ground elements"):
            SimplicialComplex.full_simplex(ground, cap=1 << 70)
        with pytest.raises(CapExceededError, match="66 ground elements"):
            build_nm_complex(Graph.complete(12), 1)

    def test_constructor_takes_levels_only(self):
        # a face set is refused by the trusting constructor
        with pytest.raises(TypeError):
            SimplicialComplex(GroundSet((0, 1, 2)), frozenset({0, 1}))


class TestOrderComplex:
    def test_chain_faces(self):
        # members: {a}, {a,b}, {c}; chains: singletons + ({a} < {a,b})
        cx = order_complex([0b1, 0b11, 0b100])
        assert cx.face_count == 1 + 3 + 1

    def test_duplicates_incomparable(self):
        cx = order_complex([0b1, 0b1])
        assert cx.face_count == 1 + 2

    def test_against_brute_force_chains(self):
        # seeded families of up to 9 subsets of a 4-set, duplicates and the
        # empty set included: the faces are the index sets whose members,
        # taken pairwise, are distinct and one contains the other
        rng = random.Random(11)
        for _ in range(150):
            ms = [rng.getrandbits(4) for _ in range(rng.randint(0, 9))]
            want = set()
            for f in range(1 << len(ms)):
                idx = [i for i in range(len(ms)) if f >> i & 1]
                if all(ms[i] != ms[j] and (ms[i] & ms[j]) in (ms[i], ms[j])
                       for i, j in itertools.combinations(idx, 2)):
                    want.add(f)
            cx = order_complex(ms)
            assert cx.faces == want, ms
            assert cx.ground.elements == tuple(range(len(ms)))
