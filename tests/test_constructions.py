"""The five family constructions: validity, acyclicity, and size bounds."""

import dataclasses
import itertools
import random

import pytest

from nonmatching.complexes import EdgeHost, FamilySpec, GroundSet, edge_host, enumerate_family, vertex_bits
from nonmatching.constructions import (
    build_bfc_matching,
    build_fc_matching,
    build_link_matching_bipartite,
    build_link_matching_complete,
    build_pm_matching,
)
import nonmatching.constructions as cons
from nonmatching.errors import EmptyFamilyError
from nonmatching.graphs import (
    Graph,
    has_perfect_matching,
    is_factor_critical,
    is_y_factor_critical,
    is_yz_factor_critical,
    matching_number,
)
from nonmatching.morse import check_matching
from nonmatching.sweeps import run_morse_family


def assert_good(res):
    rep = check_matching(res.family, res.pairs)
    assert rep.valid, rep.problems
    assert rep.acyclic, "independent cycle detection failed the construction"
    assert res.bound_holds(), (
        f"max critical size {res.max_critical_size()} vs bound "
        f"{'<' if res.strict else '<='} {res.bound}"
    )
    return res


def _subsets(items):
    return [c for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


def family_edge_sets(res):
    return {frozenset(res.ground.decode(m)) for m in res.family}


def oracle_family(spec: FamilySpec, member) -> set:
    """Every subgraph of the family's host that contains h and passes the
    Graph-level predicate ``member``, as edge sets: the independent side of
    the family tests (no nu table, no vertex masks)."""
    host = spec.host_edges()
    vs = spec.vertices + spec.x_side + spec.y_side
    n = max(vs) + 1
    out = set()
    for mask in range(1 << len(host)):
        edges = frozenset(host[i] for i in range(len(host)) if mask >> i & 1)
        if spec.subgraph_h <= edges and member(Graph.from_edges(n, edges)):
            out.add(edges)
    return out


def assert_family(spec: FamilySpec, member, res=None) -> set:
    """``enumerate_family`` and, when given, a builder's family equal the oracle."""
    expect = oracle_family(spec, member)
    assert {frozenset(g.edges) for g in enumerate_family(spec)} == expect
    if res is not None:
        assert family_edge_sets(res) == expect
    return expect


class TestPM:
    def test_empty_vertex_set(self):
        res = build_pm_matching([])
        assert res.family == (0,) and res.criticals == (0,)
        assert res.max_critical_size() == 0 and res.bound == 0
        assert_good(res)

    def test_two_vertices(self):
        res = assert_good(build_pm_matching([0, 1]))
        assert res.criticals == (1,) and res.max_critical_size() == 1
        assert res.bound == 3 and res.strict

    def test_four_vertices(self):
        res = assert_good(build_pm_matching([0, 1, 2, 3]))
        assert res.max_critical_size() < 6

    def test_family_is_definitional(self):
        for vs in ((0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4)):
            for h in ((), ((0, 1),), ((0, 1), (1, 2))):
                if vs == (0, 1) and len(h) > 1:
                    continue
                spec = FamilySpec("PM", vertices=vs, subgraph_h=frozenset(h))
                assert_family(spec, lambda g: has_perfect_matching(g, vs),
                              build_pm_matching(vs, list(h)))

    def test_odd_vertex_count_empty_family(self):
        res = build_pm_matching([0, 1, 2])
        assert res.family == () and res.pairs == ()

    def test_h_forced(self):
        res = assert_good(build_pm_matching([0, 1, 2, 3], [(0, 1)]))
        for m in res.family:
            assert (0, 1) in res.ground.decode(m)

    def test_determinism(self):
        a = build_pm_matching([0, 1, 2, 3, 4, 5], [(0, 2)])
        b = build_pm_matching([0, 1, 2, 3, 4, 5], [(0, 2)])
        assert a.pairs == b.pairs and a.criticals == b.criticals


class TestFC:
    def test_singleton(self):
        res = assert_good(build_fc_matching([0]))
        assert res.family == (0,) and res.criticals == (0,)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            build_fc_matching([0, 1])

    def test_three_vertices(self):
        # only the triangle is factor critical on three vertices
        res = assert_good(build_fc_matching([0, 1, 2]))
        assert family_edge_sets(res) == {frozenset({(0, 1), (0, 2), (1, 2)})}
        assert res.max_critical_size() == 3 <= res.bound

    def test_five_with_edge_strict(self):
        res = assert_good(build_fc_matching([0, 1, 2, 3, 4], [(0, 1)]))
        assert res.strict and res.max_critical_size() < res.bound == 7

    def test_family_is_definitional(self):
        for vs in ((0, 1, 2), (0, 1, 2, 3, 4)):
            for h in ((), ((0, 1),), ((0, 1), (1, 2))):
                spec = FamilySpec("FC", vertices=vs, subgraph_h=frozenset(h))
                assert_family(spec, lambda g: is_factor_critical(g, vs),
                              build_fc_matching(vs, list(h)))

    def test_even_vertex_set_family_is_empty(self):
        # no graph on an even vertex set is factor critical; the builder
        # refuses the set (test_even_rejected), enumerate_family gives []
        for vs in ((0, 1), (0, 1, 2, 3)):
            for h in ((), ((0, 1),)):
                spec = FamilySpec("FC", vertices=vs, subgraph_h=frozenset(h))
                assert assert_family(spec, lambda g: is_factor_critical(g, vs)) == set()


class TestBFC:
    def test_conventions(self):
        for (xs, ys) in (((), (0,)), ((0,), ())):
            res = assert_good(build_bfc_matching(xs, ys, (), []))
            assert res.family == (0,) and res.criticals == (0,)

    def test_two_one(self):
        res = assert_good(build_bfc_matching([0, 1], [2], [], []))
        assert res.max_critical_size() <= 2

    def test_strictness(self):
        res = assert_good(build_bfc_matching([0, 1, 2], [3, 4], [0], [(1, 3)]))
        assert res.strict and res.max_critical_size() < 6

    def test_empty_family_raises(self):
        with pytest.raises(EmptyFamilyError):
            build_bfc_matching([0], [1], [], [])

    def test_empty_family_guard_fires(self, monkeypatch):
        # a builder that wrongly reports an empty family is caught by the
        # sweep runner's oracle; a genuinely empty family still passes
        def empty(*args, **kwargs):
            raise EmptyFamilyError("forced")

        params = {"kind": "BFC", "x_side": [0, 1], "y_side": [2], "z_subset": [], "h": []}
        monkeypatch.setattr(cons, "build_bfc_matching", empty)
        with pytest.raises(EmptyFamilyError):
            run_morse_family(params)
        assert run_morse_family({**params, "x_side": [0], "y_side": [1]}) == {
            "passed": True, "empty_family": True}

    def test_sweep_judges_the_checked_criticals(self, monkeypatch):
        # a builder whose result drops every pair leaves the whole family
        # critical; the sweep case reads its criticals from the independent
        # check and fails on the bound
        real = cons.build_bfc_matching

        def unmatched(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), pairs=())

        params = {"kind": "BFC", "x_side": [0, 1, 2], "y_side": [3, 4], "z_subset": [0], "h": []}
        assert run_morse_family(params)["passed"]
        monkeypatch.setattr(cons, "build_bfc_matching", unmatched)
        details = run_morse_family(params)
        res = unmatched(params["x_side"], params["y_side"], params["z_subset"], [])
        rep = check_matching(res.family, res.pairs)
        assert details["criticals"] == len(rep.critical) == len(res.family) > 1
        assert details["max_critical_size"] == rep.max_critical_size
        assert details["valid"] and details["acyclic"]
        assert not details["bound_holds"] and not details["passed"]

    def test_family_is_definitional(self):
        for xs, ys in (((0, 1), (2,)), ((0, 1, 2), (3, 4))):
            for zs in ((), (0,), (0, 1)):
                for h in ((), ((1, ys[0]),), ((0, ys[0]), (1, ys[-1]))):
                    spec = FamilySpec("BFC", x_side=xs, y_side=ys, z_subset=zs,
                                      subgraph_h=frozenset(h))
                    try:
                        res = build_bfc_matching(xs, ys, zs, list(h))
                    except EmptyFamilyError:
                        res = None
                    expect = assert_family(
                        spec, lambda g: is_yz_factor_critical(g, xs, ys, zs), res)
                    assert (res is None) == (not expect)

    def test_z_constrains(self):
        with pytest.raises(ValueError):
            build_bfc_matching([0, 1], [2], [2], [])

    def test_fyc_members_are_definitional(self, monkeypatch):
        # the matched-side family of the BFC decomposition on K3,3, over
        # every matched part c_x, c_y (v0 its least y vertex, the rest of y
        # attached) and z_c, without and with one forced edge: the subgraphs
        # between c_x and y that contain the forced edges there, have a
        # perfect matching across c_x and c_y, and are z_c-factor critical
        # into y and (c_y - v0)-factor critical into c_x.  Only the member
        # list is pinned, so the fibers are left unmatched.
        monkeypatch.setattr(cons, "cluster_union", lambda *args: [])
        xs, ys = (0, 1, 2), (3, 4, 5)
        host = edge_host(cons._bipartite_ground(vertex_bits(xs), vertex_bits(ys)))
        nonempty = 0
        for c_x, c_y in itertools.product(map(set, _subsets(xs)), map(set, _subsets(ys))):
            if not c_y:
                continue
            v0 = min(c_y)
            ground = [(u, v) for u in sorted(c_x) for v in ys]
            for z_c, h in itertools.product(map(set, _subsets(sorted(c_x))), ((), ((2, v0),))):
                members, pairs = cons._fyc_matching(
                    host, vertex_bits(ys), host.mask_of(h), v0, vertex_bits(set(ys) - c_y),
                    vertex_bits(c_x), vertex_bits(c_y), vertex_bits(z_c))
                expect = []
                for edges in map(set, _subsets(ground)):
                    g = Graph.from_edges(6, edges)
                    if (set(h) & set(ground) <= edges
                            and len(c_x) == len(c_y)
                            and matching_number(g.induced_bipartite(c_x, c_y)) == len(c_x)
                            and is_y_factor_critical(g.induced_bipartite(z_c, ys), ys, z_c)
                            and is_y_factor_critical(g.induced_bipartite(c_y - {v0}, c_x), c_x, c_y - {v0})):
                        expect.append(host.mask_of(edges))
                assert list(members) == sorted(expect) and pairs == (), (c_x, c_y, z_c, h)
                nonempty += bool(expect)
        assert nonempty == 122


class TestLinkComplete:
    def test_nu_bounds_enforced(self):
        with pytest.raises(ValueError):
            build_link_matching_complete([0, 1, 2, 3], [], 2)  # nu(h) = 0
        with pytest.raises(ValueError):
            build_link_matching_complete([0, 1, 2, 3], [(0, 1), (2, 3)], 2)  # nu(h) = k

    def test_small_host_shortcut(self):
        res = assert_good(build_link_matching_complete([0, 1, 2], [(0, 1)], 2))
        assert len(res.criticals) <= 1
        if res.criticals:
            assert res.max_critical_size() == 1  # |h|

    def test_four_vertices(self):
        res = assert_good(build_link_matching_complete([0, 1, 2, 3], [(0, 1)], 2))
        assert res.max_critical_size() <= 3

    def test_five_vertices_path_h(self):
        res = assert_good(build_link_matching_complete([0, 1, 2, 3, 4], [(0, 1), (1, 2)], 2))
        assert res.max_critical_size() <= 4

    def test_family_is_definitional(self):
        for vs in ((0, 1, 2, 3), (0, 1, 2, 3, 4)):
            for k in (2, 3):
                for h in ((), ((0, 1),), ((0, 1), (1, 2)), ((0, 1), (2, 3))):
                    spec = FamilySpec("NMLINK_COMPLETE", vertices=vs,
                                      subgraph_h=frozenset(h), k=k)
                    # the builder needs 1 <= nu(h) < k
                    nu_h = matching_number(Graph.from_edges(len(vs), h))
                    res = build_link_matching_complete(vs, list(h), k) if 1 <= nu_h < k else None
                    assert_family(spec, lambda g: matching_number(g) < k, res)


class TestLinkBipartite:
    def test_small_side_shortcut(self):
        res = assert_good(build_link_matching_bipartite([0], [1, 2], [(0, 1)], 2))
        assert len(res.criticals) <= 1

    def test_k22(self):
        res = assert_good(build_link_matching_bipartite([0, 1], [2, 3], [(0, 2)], 2))
        assert res.max_critical_size() <= 2

    def test_k33(self):
        res = assert_good(build_link_matching_bipartite([0, 1, 2], [3, 4, 5], [(0, 3)], 2))
        assert res.max_critical_size() <= 2

    def test_family_is_definitional(self):
        for xs, ys in (((0, 1), (2, 3)), ((0, 1, 2), (3, 4))):
            for k in (2, 3):
                for h in ((), ((0, ys[0]),), ((0, ys[0]), (1, ys[1]))):
                    spec = FamilySpec("NMLINK_BIPARTITE", x_side=xs, y_side=ys,
                                      subgraph_h=frozenset(h), k=k)
                    nu_h = matching_number(Graph.from_edges(len(xs + ys), h))
                    res = (build_link_matching_bipartite(xs, ys, list(h), k)
                           if 1 <= nu_h < k else None)
                    assert_family(spec, lambda g: matching_number(g) < k, res)


class TestGrids:
    """Compressed versions of the acceptance grids (the full ones run in
    tests/test_acceptance.py through the sweep suites)."""

    def test_pm_grid_n4(self):
        from nonmatching.graphs import graph_isomorphism_classes

        for h in graph_isomorphism_classes(4):
            assert_good(build_pm_matching(range(4), sorted(h.edges)))

    def test_fc_grid_n5_sample(self):
        from nonmatching.graphs import graph_isomorphism_classes

        for h in graph_isomorphism_classes(5)[:12]:
            assert_good(build_fc_matching(range(5), sorted(h.edges)))

    def test_bfc_grid_32(self):
        from nonmatching.graphs import bipartite_subgraph_classes

        for h in bipartite_subgraph_classes(3, 2):
            for z in ((), (0,), (0, 1)):
                try:
                    assert_good(build_bfc_matching((0, 1, 2), (3, 4), z, sorted(h.edges)))
                except EmptyFamilyError:
                    pass


class _KeepsNothing(dict):
    """A host memo that stores nothing: every sub-solve is built afresh."""

    def __setitem__(self, key, value):
        pass


def _host_keeping_nothing(ground):
    host = EdgeHost(ground)
    host.memo = _KeepsNothing()
    return host


def _route_to(monkeypatch, ground, host):
    """Make the builders find ``host`` as the host of ``ground``; every other
    ground, such as the index hosts of the projection bridges, still gets
    its shared host."""
    monkeypatch.setattr(cons, "edge_host", lambda g: host if g == ground else edge_host(g))


def _memo_grid():
    """(builder, ground, vertex arguments, h and k) over PM, FC, BFC and link
    families on hosts up to 6 vertices and on K4,3, with seeded samples of h."""
    from nonmatching.graphs import bipartite_edge_list, bipartite_subgraph_classes, graph_isomorphism_classes

    rng = random.Random(21)
    grid = []
    for n, count in ((2, 2), (4, 11), (6, 16)):
        kn = cons._complete_ground((1 << n) - 1)
        for h in rng.sample(graph_isomorphism_classes(n), count):
            grid.append((build_pm_matching, kn, (range(n),), {"h": sorted(h.edges)}))
    for n, count in ((3, 4), (5, 10)):
        kn = cons._complete_ground((1 << n) - 1)
        for h in rng.sample(graph_isomorphism_classes(n), count):
            grid.append((build_fc_matching, kn, (range(n),), {"h": sorted(h.edges)}))
    for n, k in ((5, 2), (5, 3), (6, 2), (6, 3)):
        hs = [h for h in graph_isomorphism_classes(n) if 1 <= matching_number(h) < k]
        for h in rng.sample(hs, min(len(hs), 4)):
            grid.append((build_link_matching_complete, cons._complete_ground((1 << n) - 1),
                         (range(n),), {"h": sorted(h.edges), "k": k}))
    xs, ys = (0, 1, 2, 3), (4, 5, 6)
    k43 = GroundSet(tuple(bipartite_edge_list(xs, ys)))
    classes = bipartite_subgraph_classes(4, 3)
    for h in rng.sample(classes, 6):
        for z in ((), (0,), (0, 1, 2)):
            grid.append((build_bfc_matching, k43, (xs, ys, z), {"h": sorted(h.edges)}))
    for k in (2, 3):
        hs = [h for h in classes if 1 <= matching_number(h) < k]
        for h in rng.sample(hs, min(len(hs), 4)):
            grid.append((build_link_matching_bipartite, k43, (xs, ys), {"h": sorted(h.edges), "k": k}))
    return grid


class TestHostMemo:
    def test_memoised_builders_equal_fresh_builds(self, monkeypatch):
        # each ground's shared host, emptied first, serves the whole grid
        # twice, the second time warm and with h (and k) as keywords; every
        # result must equal the build on a host that keeps nothing
        memoised, fresh = {}, {}
        grid = _memo_grid()
        for keywords in (False, True):
            for builder, ground, sides, rest in grid:
                if ground not in memoised:
                    memoised[ground], fresh[ground] = edge_host(ground), _host_keeping_nothing(ground)
                    memoised[ground].memo.clear()
                got = []
                for host in (memoised[ground], fresh[ground]):
                    _route_to(monkeypatch, ground, host)
                    try:
                        if keywords:
                            res = builder(*sides, **rest)
                        else:
                            res = builder(*sides, *rest.values())
                    except EmptyFamilyError:
                        got.append(None)
                        continue
                    got.append((res.family, res.pairs, res.criticals, res.bound, res.strict))
                assert got[0] == got[1], (builder.__name__, sides, rest, keywords)
        assert all(host.memo for host in memoised.values())
        assert not any(host.memo for host in fresh.values())

    def test_memo_holds_no_top_level_result(self):
        h = [(0, 1), (2, 3)]
        host = edge_host(cons._complete_ground(0b111111))
        host.memo.clear()
        res = build_pm_matching(range(6), h)
        assert host.memo, "the sub-solves are kept on the shared host"
        for kept in host.memo.values():
            assert kept is not res and getattr(kept, "family", None) != res.family
        again = build_pm_matching(range(6), h)
        assert again is not res and again == res

    def test_projection_bridge_keyed_on_its_z_count(self):
        # the same groups, a side and tau with each z count in turn, on one
        # memoised host and on a host that keeps nothing
        ground = cons._complete_ground(0b111111)
        memoised, fresh = EdgeHost(ground), _host_keeping_nothing(ground)
        groups, a_side = (0b1, 0b110, 0b1000), 0b110000
        got = []
        for z_count in (0, 1):  # z-factor criticality into two a-vertices caps |z| at 1
            res, want = (cons._lifted_bfc_projection(host, groups, a_side, z_count, 0)
                         for host in (memoised, fresh))
            assert res == want, z_count
            got.append(res.family)
        assert got[0] != got[1]


# (builder, vertex arguments as ranges, the rest); every builder reaches its
# recursion on these
_DOOR_CASES = [
    (build_pm_matching, (range(6),), {"h": [(0, 1), (2, 3)]}),
    (build_fc_matching, (range(5),), {"h": [(0, 1)]}),
    (build_bfc_matching, (range(4), range(4, 7), range(2)), {"h": [(0, 4)]}),
    (build_link_matching_complete, (range(6),), {"h": [(0, 1)], "k": 3}),
    (build_link_matching_bipartite, (range(3), range(3, 6)), {"h": [(0, 3)], "k": 2}),
]


class TestDoors:
    @pytest.mark.parametrize("builder, sides, rest", _DOOR_CASES,
                             ids=[case[0].__name__ for case in _DOOR_CASES])
    def test_any_iterable_of_vertices(self, builder, sides, rest, monkeypatch):
        # a range, an unsorted tuple and a set give one result, on the
        # shared host and on a host that keeps nothing
        want = assert_good(builder(*sides, **rest))
        forms = (lambda r: tuple(r)[1:] + tuple(r)[:1], set)
        for form in forms:
            assert builder(*map(form, sides), **rest) == want, form
        _route_to(monkeypatch, want.ground, _host_keeping_nothing(want.ground))
        for form in forms:
            assert builder(*map(form, sides), **rest) == want, form

    def test_bad_arguments_refused(self):
        for call in (
            lambda: build_bfc_matching([0, 1], [1, 2], []),  # overlapping sides
            lambda: build_link_matching_bipartite([0, 1], [1, 2], [(0, 2)], 2),
            lambda: build_bfc_matching(range(2), range(2, 4), {2}),  # z outside x
        ):
            with pytest.raises(ValueError):
                call()

    def test_h_outside_the_host_refused(self):
        # the host's own edge lookup is the one check that h lies in it
        for call in (
            lambda: build_pm_matching(range(4), [(4, 5)]),
            lambda: build_fc_matching(range(3), [(3, 4)]),
            lambda: build_bfc_matching([0, 1], [2, 3], [], [(0, 1)]),  # inside one side
            lambda: build_bfc_matching([0, 1], [2, 3], [], [(0, 4)]),
            lambda: build_bfc_matching([], [2, 3], [], [(0, 2)]),  # an empty side
            lambda: build_link_matching_complete(range(4), [(4, 5)], 2),
            lambda: build_link_matching_bipartite([0, 1], [2, 3], [(0, 1)], 2),
            lambda: build_link_matching_bipartite([0, 1], [2, 3], [(0, 4)], 2),
        ):
            with pytest.raises(ValueError, match="is not a host edge"):
                call()
