"""Reduced homology, the rank engine, and Leray checks."""

import copy
import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from complex_oracles import boundary_matrix
from nonmatching.complexes import (
    GroundSet,
    SimplicialComplex,
    build_nm_complex,
    induced_subcomplex,
    link,
)
from nonmatching.errors import CapExceededError, InternalCheckError
from nonmatching.graphs import Graph, automorphisms, subdivided_complete_graph
from nonmatching.homology import (
    GF2,
    GFP,
    LARGE_PRIME,
    RATIONAL,
    FieldSpec,
    check_leray,
    check_near_leray,
    parse_field,
    reduced_betti,
    vanishing_from,
    _facet_positions,
    _field_ops,
    _reduce,
)
from nonmatching import homology


def four_cycle_complex() -> SimplicialComplex:
    return build_nm_complex(Graph.complete_bipartite(2, 2), 2)


def nonzero(table) -> dict[int, int]:
    return {d: b for d, b in table.betti.items() if b}


def from_facets(n: int, facets) -> SimplicialComplex:
    """The complex on vertices 0..n-1 generated by the given facets."""
    masks = {sum(1 << v for v in sub)
             for f in facets for r in range(len(f) + 1) for sub in itertools.combinations(f, r)}
    return SimplicialComplex.from_masks(GroundSet(tuple(range(n))), masks)


def rp2_complex() -> SimplicialComplex:
    """The 6-vertex real projective plane: H_1 and H_2 are Z/2 torsion only."""
    return from_facets(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                           (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)])


class TestFieldSpec:
    def test_parse(self):
        assert parse_field("gf2") == GF2
        assert parse_field("gf65521") == GFP(65521)
        assert parse_field("rational") == RATIONAL

    def test_prime_required(self):
        with pytest.raises(ValueError):
            FieldSpec("GFP", 65520)

    def test_unknown(self):
        with pytest.raises(ValueError):
            FieldSpec("GF3")

    def test_large_prime_accepted_quickly(self):
        # trial division up to sqrt(p) would take minutes here
        start = time.perf_counter()
        assert parse_field(f"gf{2**61 - 1}") == GFP(2**61 - 1)
        assert time.perf_counter() - start < 0.5

    def test_composites_rejected(self):
        # 561 is a Carmichael number (a Fermat liar to every coprime base);
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        for n in (561, 3215031751, 2**61 + 1, 65520, 1, 2):
            with pytest.raises(ValueError, match="not an odd prime"):
                GFP(n)

    def test_primality_beyond_certified_range_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            GFP(2**127 - 1)


class TestBoundaryMatrix:
    def test_vertex_to_empty(self):
        cx = SimplicialComplex.full_simplex(GroundSet(("e",)))
        d0 = boundary_matrix(cx, 0)
        assert d0.shape == (1, 1) and d0[0, 0] == 1

    def test_dd_zero(self):
        # composes the columns the rank engine builds: bd_d . bd_{d+1} = 0
        cx = build_nm_complex(Graph.complete(4), 2)
        levels = cx.levels
        for d in range(0, cx.dim()):
            lower = [_facet_positions(m, levels[d]) for m in levels[d + 1].tolist()]
            for m in levels[d + 2].tolist():
                total: dict[int, int] = {}
                for i, r in enumerate(_facet_positions(m, levels[d + 1])):
                    for jj, rr in enumerate(lower[r]):
                        total[rr] = total.get(rr, 0) + (-1) ** (i + jj)
                assert not any(total.values())

    def test_four_cycle_rank(self):
        # hand-checkable: the boundary of a 4-cycle's edges has rank 3
        cx = four_cycle_complex()
        m = boundary_matrix(cx, 1).astype(float)
        assert np.linalg.matrix_rank(m) == 3

    def test_out_of_range(self):
        cx = four_cycle_complex()
        with pytest.raises(ValueError):
            boundary_matrix(cx, 5)

    def test_import_without_scipy(self):
        code = "import sys, nonmatching; assert 'scipy' not in sys.modules"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestReducedBetti:
    def test_full_simplex_acyclic(self):
        cx = SimplicialComplex.full_simplex(GroundSet(tuple("abc")))
        table = reduced_betti(cx)
        assert all(b == 0 for b in table.betti.values())

    def test_empty_face_complex(self):
        cx = SimplicialComplex.from_masks(GroundSet(tuple("ab")), {0})
        assert reduced_betti(cx).betti == {-1: 1}

    def test_void_complex(self):
        cx = SimplicialComplex.void(GroundSet(tuple("ab")))
        assert reduced_betti(cx).betti == {}

    def test_four_cycle(self):
        # Euler characteristic forces beta_1 = 1 under concentration
        table = reduced_betti(four_cycle_complex())
        assert table.betti == {-1: 0, 0: 0, 1: 1}

    def test_fields_agree_on_nm(self):
        for g in (Graph.complete(4), Graph.complete_bipartite(2, 3)):
            cx = build_nm_complex(g, 2)
            t2 = reduced_betti(cx, GF2)
            tp = reduced_betti(cx, GFP(LARGE_PRIME))
            tq = reduced_betti(cx, RATIONAL)
            assert t2.betti == tp.betti == tq.betti

    def test_figure_graph(self):
        g = subdivided_complete_graph(6)
        cx = build_nm_complex(g, 3)
        table = reduced_betti(cx, GF2)
        assert table.get(4) > 0 and table.get(5) > 0
        assert all(table.get(d) == 0 for d in range(6, cx.dim() + 1))

    def test_cap(self):
        cx = build_nm_complex(Graph.complete(5), 2)
        with pytest.raises(CapExceededError):
            reduced_betti(cx, GF2, cap=10)

    def test_cone_property(self):
        # joining with a full simplex on a fresh element kills all homology
        cx = four_cycle_complex()
        apex = 1 << len(cx.ground)
        cone = SimplicialComplex.from_masks(GroundSet(cx.ground.elements + ("apex",)),
                                            cx.faces | {f | apex for f in cx.faces})
        assert cone.face_count == 2 * cx.face_count
        assert all(b == 0 for b in reduced_betti(cone).betti.values())

    def test_rational_column_reduction(self):
        # the boundary of a hollow triangle's three edges has rank 2 over Q
        ops = _field_ops(RATIONAL)
        cols = {0: [0, 1], 1: [1, 2], 2: [0, 2]}
        claim = np.full(3, -1, np.int64)
        added = _reduce(ops, claim, [(j, max(rows)) for j, rows in cols.items()], lambda j: ops.column(cols[j]))
        assert added == 2 and claim.tolist() == [-1, 0, 1]

    def test_rational_non_unit_pivot(self):
        # integer columns whose lowest entries are not +-1 (2 on the very
        # first column) take the Fraction path; ranks against numpy, and
        # every stored pivot must end in 1
        ops, pivots = recorded_pivots(_field_ops(RATIONAL))
        rng = random.Random(3)
        mats = [np.array([[1, 1, 2, 0], [2, 0, 4, 2], [0, -3, 0, -3]])]
        mats += [np.array([[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)]) for _ in range(40)]
        fractions = 0
        for mat in mats:
            cols = {j: {r: int(x) for r, x in enumerate(mat[:, j]) if x} for j in range(mat.shape[1])}
            pivots.clear()
            claim = np.full(mat.shape[0], -1, np.int64)
            added = _reduce(ops, claim, [(j, max(col)) for j, col in cols.items() if col],
                            lambda j: dict(cols[j]))
            assert added == np.count_nonzero(claim >= 0) == np.linalg.matrix_rank(mat.astype(float)), mat
            assert all(piv[r] == 1 and claim[r] >= 0 for r, piv in pivots)
            fractions += any(type(v) is not int for _, piv in pivots for v in piv.values())
        assert fractions

    def test_torsion_separates_fields(self):
        cx = rp2_complex()
        assert nonzero(reduced_betti(cx, GF2)) == {1: 1, 2: 1}
        assert nonzero(reduced_betti(cx, GFP(3))) == {}
        assert nonzero(reduced_betti(cx, RATIONAL)) == {}

    def test_large_prime(self):
        # above 2^32, where products of two residues overflow int64
        cx = build_nm_complex(subdivided_complete_graph(6), 3)
        assert nonzero(reduced_betti(cx, GFP(4294967311))) == {4: 4, 5: 5}

    def test_ranks_match_numpy_oracle(self):
        # ranks recovered from each table (top down: r_d = f_d - beta_d -
        # r_{d+1}) against float matrix_rank of the dense boundary matrices.
        # The non-matching complexes are symmetric enough to hide some
        # clearing faults, so seeded random complexes ride along.  None of
        # these seeded complexes has torsion, so all three fields agree.
        rng = random.Random(7)
        edges = sorted(Graph.complete(5).edges)
        complexes = [build_nm_complex(Graph.from_edges(5, rng.sample(edges, rng.randint(3, 10))), 2)
                     for _ in range(12)]
        complexes += [from_facets(7, [rng.sample(range(7), rng.randint(2, 4))
                                      for _ in range(rng.randint(3, 8))])
                      for _ in range(12)]
        for cx in complexes:
            counts = cx.face_counts()
            oracle = {d: int(np.linalg.matrix_rank(boundary_matrix(cx, d).astype(float)))
                      for d in range(0, cx.dim() + 1)}
            for field in (GF2, GFP(LARGE_PRIME), RATIONAL):
                table = reduced_betti(cx, field)
                ranks, above = {}, 0
                for d in range(cx.dim(), -1, -1):
                    ranks[d] = above = counts[d] - table.get(d) - above
                assert ranks == oracle, (field, sorted(cx.faces))


def recorded_pivots(ops) -> tuple:
    """A copy of a field adapter whose ``pivot`` appends each pivot it
    stores, as ``(low, column)``, to the list returned beside it."""
    ops, stored = copy.copy(ops), []
    real = ops.pivot

    def pivot(col, low):
        piv = real(col, low)
        stored.append((low, piv))
        return piv

    ops.pivot = pivot
    return ops, stored


def recorded_reductions(monkeypatch) -> list:
    """Hook ``homology._reduce`` so that each call appends to the list
    returned: the claim table as handed over (the first claims), the
    columns, the claim table after, the count returned, the keys built, and
    the pivots stored, each as ``(low, column)``."""
    real = homology._reduce
    runs = []

    def recording(ops, claim, columns, build):
        firsts, columns, built = claim.copy(), list(columns), []
        ops, pivots = recorded_pivots(ops)

        def building(key):
            built.append(key)
            return build(key)

        added = real(ops, claim, columns, building)
        runs.append((firsts, columns, claim.copy(), added, built, pivots))
        return added

    monkeypatch.setattr(homology, "_reduce", recording)
    return runs


def rank_mod(mat: np.ndarray, p: int) -> int:
    """Rank of a small integer matrix over GF(p), by dense row reduction."""
    a = mat.astype(np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        nonzero_rows = rank + np.flatnonzero(a[rank:, c])
        if not len(nonzero_rows):
            continue
        a[[rank, nonzero_rows[0]]] = a[[nonzero_rows[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        a[below] = (a[below] - np.outer(a[below, c], a[rank])) % p
        rank += 1
    return rank


def dense_ranks(cx: SimplicialComplex, field: FieldSpec) -> list[int]:
    """Ranks of bd_d for d = dim down to 0 from the dense boundary matrices:
    float matrix_rank over Q, row reduction mod p over GF(p)."""
    ranks = []
    for d in range(cx.dim(), -1, -1):
        mat = boundary_matrix(cx, d)
        if field.kind == "RATIONAL":
            ranks.append(int(np.linalg.matrix_rank(mat.astype(float))))
        else:
            ranks.append(rank_mod(mat, 2 if field.kind == "GF2" else field.p))
    return ranks


def seeded_random_complexes() -> list[SimplicialComplex]:
    rng = random.Random(17)
    return [from_facets(8, [rng.sample(range(8), rng.randint(2, 5)) for _ in range(rng.randint(4, 10))])
            for _ in range(12)]


# float matrix_rank of boundary_matrix(cx, d), d = 9 down to 0, for NM_3 of
# K6 with one edge subdivided: about 4.5 s to recompute, so pinned here and
# recomputed by the CI step "Pinned boundary ranks of subdivided K6".  The
# complex has no torsion (its table is {4: 4, 5: 5} over every field here),
# so these are its ranks over GF(2) and GF(LARGE_PRIME) too.
SUBDIVIDED_K6_RANKS = [3, 45, 300, 862, 1236, 948, 413, 105, 15, 1]


class TestDeferredColumns:
    """The engine builds a boundary column only when its lowest row (its
    largest facet) is already a pivot row, and a deferred pivot only when it
    is first needed to eliminate.  Each case records the reductions the
    engine runs, checks their ranks against the dense oracle, and asks that
    both deferred branches fire: a collision that builds a deferred pivot,
    and a reduced column that lands on a new lowest row."""

    @pytest.mark.parametrize("field", [GF2, GFP(LARGE_PRIME), RATIONAL], ids=["gf2", "gfp", "q"])
    @pytest.mark.parametrize("family", ["rp2", "nm3_subdivided_k6", "random"])
    def test_deferred_branches_against_dense_ranks(self, monkeypatch, field, family):
        if family == "rp2":
            complexes = [rp2_complex()]
        elif family == "nm3_subdivided_k6":
            complexes = [build_nm_complex(subdivided_complete_graph(6), 3)]
        else:
            complexes = seeded_random_complexes()
        runs = recorded_reductions(monkeypatch)
        low = _field_ops(field).low
        deferred_built = reached_new_low = 0
        for cx in complexes:
            runs.clear()
            reduced_betti(cx, field)
            ranks = [int(np.count_nonzero(after >= 0)) for _, _, after, _, _, _ in runs]
            if family == "nm3_subdivided_k6":
                assert ranks == SUBDIVIDED_K6_RANKS
            else:
                assert ranks == dense_ranks(cx, field), sorted(cx.faces)
            for firsts, columns, after, added, built, pivots in runs:
                assert added == np.count_nonzero(after >= 0) - np.count_nonzero(firsts >= 0)
                for r, piv in pivots:
                    assert after[r] >= 0 and low(piv) == r and piv[r] == 1
                    if field == GF2:
                        assert set(piv.values()) == {1}
                # every column handed over collides with a first claim, so a
                # key built that was not handed over is a deferred first claim
                assert all(firsts[r] >= 0 for _, r in columns)
                first_low = dict(columns)
                deferred = set(built) - set(first_low)
                assert deferred <= set(firsts[firsts >= 0].tolist())
                deferred_built += len(deferred)
                for r in np.flatnonzero((firsts < 0) & (after >= 0)).tolist():
                    assert first_low[int(after[r])] != r
                    reached_new_low += 1
        assert deferred_built and reached_new_low


class TestVanishing:
    def test_nm2_k4_from_3(self):
        assert vanishing_from(build_nm_complex(Graph.complete(4), 2), 3)

    def test_figure_from_6_but_not_5(self):
        cx = build_nm_complex(subdivided_complete_graph(6), 3)
        assert vanishing_from(cx, 6)
        assert not vanishing_from(cx, 5)


class TestLerayChecks:
    def test_near_leray_k4(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        report = check_near_leray(cx, 2, GF2, "EXHAUSTIVE")
        assert report.passed and report.checked == cx.face_count - 1

    def test_near_leray_k23_bipartite_bound(self):
        cx = build_nm_complex(Graph.complete_bipartite(2, 3), 2)
        assert check_near_leray(cx, 1, GF2, "EXHAUSTIVE").passed

    def test_near_leray_sampled(self):
        cx = build_nm_complex(Graph.complete(5), 2)
        report = check_near_leray(cx, 2, GF2, "SAMPLED", sample_count=10, seed=3)
        assert report.passed and report.checked == 10

    def test_link_of_facet_vacuous(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        facet = cx.facets()[0]
        assert vanishing_from(link(cx, facet), 0)

    def test_leray_modes_agree(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        a = check_leray(cx, 3, GF2, "LINKS")
        b = check_leray(cx, 3, GF2, "INDUCED")
        assert a.passed and b.passed

    def test_triangle_boundary_not_1_leray(self):
        # the hollow triangle: every proper subset of {a, b, c} is a face
        ground = GroundSet(tuple("abc"))
        cx = SimplicialComplex.from_masks(ground, range(7))
        assert reduced_betti(cx).betti == {-1: 0, 0: 0, 1: 1}
        a = check_leray(cx, 1, GF2, "LINKS")
        b = check_leray(cx, 1, GF2, "INDUCED")
        assert not a.passed and not b.passed
        assert check_leray(cx, 2, GF2, "LINKS").passed

    def test_full_simplex_always_leray(self):
        cx = SimplicialComplex.full_simplex(GroundSet(tuple("abcd")))
        for d0 in range(0, 3):
            assert check_leray(cx, d0, GF2, "LINKS").passed

    def test_modes_agree_small_grounds(self):
        # exhaustive agreement on several small complexes and d0 values
        hosts = [Graph.complete(4), Graph.complete_bipartite(2, 2), Graph.path(4)]
        for g in hosts:
            cx = build_nm_complex(g, 2)
            for d0 in (0, 1, 2, 3):
                a = check_leray(cx, d0, GF2, "LINKS").passed
                b = check_leray(cx, d0, GF2, "INDUCED").passed
                assert a == b

    def test_near_leray_hereditary(self):
        # link-vanishing survives vertex deletions on subgraphs of K_5
        g = Graph.complete(5)
        cx = build_nm_complex(g, 2)
        assert check_near_leray(cx, 2, GF2, "EXHAUSTIVE").passed
        for e in list(cx.ground.elements)[:5]:
            sub = induced_subcomplex(cx, [f for f in cx.ground.elements if f != e])
            assert check_near_leray(sub, 2, GF2, "EXHAUSTIVE").passed

    def test_report_json(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        report = check_near_leray(cx, 2, GF2, "EXHAUSTIVE")
        assert '"passed": true' in report.to_json()


def mask_order_reductions(cx: SimplicialComplex, field: FieldSpec) -> list[tuple[list[int], list[int], list[int]]]:
    """Per dimension, top down: the columns of bd_d left by clearing, in
    plain mask order, their lowest rows, and the pivot rows ``_reduce``
    reaches on them from a table with every row free, with the levels and
    the lowest rows taken from a scan of the face set and row dicts."""
    ops = _field_ops(field)
    levels = [sorted(m for m in cx.faces if m.bit_count() == size) for size in range(cx.dim() + 2)]
    out, cleared = [], set()
    for d in range(cx.dim(), -1, -1):
        index = {m: i for i, m in enumerate(levels[d])}
        cols = [m for j, m in enumerate(levels[d + 1]) if j not in cleared]

        def build(m, index=index):
            bits = [1 << b for b in range(m.bit_length()) if m >> b & 1]
            return ops.column([index[m ^ bit] for bit in bits])

        lows = [index[m ^ (m & -m)] for m in cols]
        claim = np.full(len(levels[d]), -1, np.int64)
        _reduce(ops, claim, zip(cols, lows), build)
        cleared = set(np.flatnonzero(claim >= 0).tolist())
        out.append((cols, lows, sorted(cleared)))
    return out


class TestFirstClaimsFirst:
    """Each dimension puts the first claim of every lowest row (the column
    of least mask with that row) in the claim table before the reduction
    runs, and hands ``_reduce`` only the colliding columns, in mask order.
    The pivot rows of a reduction are the lowest rows of the column space,
    whatever the order, so they, and the ranks, must be those of the same
    columns reduced in plain mask order."""

    @pytest.mark.parametrize("field", [GF2, GFP(LARGE_PRIME), RATIONAL], ids=["gf2", "gfp", "q"])
    def test_pivot_rows_match_mask_order(self, monkeypatch, field):
        complexes = [rp2_complex(), build_nm_complex(subdivided_complete_graph(6), 3),
                     build_nm_complex(Graph.complete(7), 3)] + seeded_random_complexes()
        runs = recorded_reductions(monkeypatch)
        collisions = 0
        for cx in complexes:
            runs.clear()
            reduced_betti(cx, field)
            oracle = mask_order_reductions(cx, field)
            assert len(runs) == len(oracle)
            for (firsts, columns, after, _, _, _), (cols, lows, want) in zip(runs, oracle):
                heads = {r: key for r, key in enumerate(firsts.tolist()) if key >= 0}
                assert sorted(list(heads.values()) + [key for key, _ in columns]) == cols
                assert np.flatnonzero(after >= 0).tolist() == want
                assert columns == sorted(columns)
                first_claim = {}
                for key, r in zip(cols, lows):
                    first_claim.setdefault(r, key)
                assert heads == first_claim
                collisions += len(columns)
        assert collisions


def random_complexes(seed: int = 11) -> list[SimplicialComplex]:
    """Seeded complexes from random facets plus a hollow simplex (a sphere of
    dimension 2 to 4): nine on 6 to 9 vertices, and one on 63, the widest
    ground a face mask holds."""
    rng = random.Random(seed)
    out = []
    for n in [rng.randint(6, 9) for _ in range(9)] + [63]:
        # on the large ground, draw from a few vertices spread over all the
        # bits, so that facets overlap and the high bits are used
        pool = rng.sample(range(n), 8) if n == 63 else list(range(n))
        facets = [rng.sample(pool, rng.randint(2, 5)) for _ in range(rng.randint(2, 5))]
        hollow = rng.sample(pool, rng.randint(4, 6))
        facets += itertools.combinations(hollow, len(hollow) - 1)
        out.append(from_facets(n, facets))
    return out


ALL_FIELDS = (GF2, GFP(LARGE_PRIME), RATIONAL)
ALL_D0 = (-1, 0, 1, 2, 3)


def nm_with_group(g: Graph, k: int) -> list:
    return [(build_nm_complex(g, k), automorphisms(g))]


# name -> ([(complex, symmetry or None)], [(fields, d0 values)]).  K4,4 at
# k=3 has 3,017 faces, and its full grid takes about 11 s (every link built
# and ranked over each field at low d0), so the other two fields run there
# only from d0 = 2, where violations remain.
LINK_ORACLE_INPUTS = {
    "K5,k=2": (lambda: nm_with_group(Graph.complete(5), 2), [(ALL_FIELDS, ALL_D0)]),
    "K2,3,k=2": (lambda: nm_with_group(Graph.complete_bipartite(2, 3), 2),
                 [(ALL_FIELDS, ALL_D0)]),
    "K3,3,k=2": (lambda: nm_with_group(Graph.complete_bipartite(3, 3), 2),
                 [(ALL_FIELDS, ALL_D0)]),
    "K4,4,k=3": (lambda: nm_with_group(Graph.complete_bipartite(4, 4), 3),
                 [((GF2,), ALL_D0), (ALL_FIELDS[1:], (2, 3))]),
    "random": (lambda: [(cx, None) for cx in random_complexes()], [(ALL_FIELDS, ALL_D0)]),
}


class TestLinkChecksAgainstLinks:
    """The link checks against the definition: build each link, ask
    ``vanishing_from`` of it, and compare the sets of failing faces.  On the
    non-matching complexes the checks also run by Aut(G)-orbit, and must
    give the same report as the per-face loop."""

    @pytest.mark.parametrize("name", sorted(LINK_ORACLE_INPUTS))
    def test_violations_match_link_walk(self, name):
        build, grid = LINK_ORACLE_INPUTS[name]
        verdicts = {True: 0, False: 0}
        for cx, symmetry in build():
            links = {m: link(cx, m) for m in cx.faces}
            near = sorted(m for m in cx.faces if m)
            sample = sorted(random.Random(5).sample(near, min(len(near), 25)))
            for fields, d0s in grid:
                for field, d0 in itertools.product(fields, d0s):
                    failing = {m for m, lk in links.items() if not vanishing_from(lk, d0, field)}
                    verdicts[False] += len(failing)
                    verdicts[True] += len(links) - len(failing)
                    reports = [
                        (check_leray(cx, d0, field, "LINKS"), sorted(cx.faces)),
                        (check_near_leray(cx, d0, field, "EXHAUSTIVE"), near),
                        (check_near_leray(cx, d0, field, "SAMPLED", 25, 5), sample),
                    ]
                    for report, faces in reports:
                        want = [cx.ground.decode(m) for m in faces if m in failing]
                        assert [v.face for v in report.violations] == want, (name, field, d0)
                        assert report.checked == report.ranked == len(faces)
                        assert report.passed == (not want)
                    if symmetry is None:
                        continue
                    by_orbit = [
                        check_leray(cx, d0, field, "LINKS", symmetry=symmetry),
                        check_near_leray(cx, d0, field, "EXHAUSTIVE", symmetry=symmetry),
                        check_near_leray(cx, d0, field, "SAMPLED", 25, 5, symmetry=symmetry),
                    ]
                    for (report, _), orbit_report in zip(reports, by_orbit):
                        assert orbit_report.violations == report.violations, (name, field, d0)
                        assert (orbit_report.checked, orbit_report.passed) == (
                            report.checked, report.passed)
                        assert orbit_report.ranked < report.ranked
        assert verdicts[True] and verdicts[False], verdicts


class TestLinkChecksByOrbit:
    """One rank per Aut(G)-orbit against the per-face loop, and the guards
    that refuse a symmetry the complex does not have."""

    def test_subdivided_k6_pins(self):
        # 7,864 non-empty faces in 364 orbits of the 48 automorphisms; at
        # d0 = 25, above every face size, no face is read and every link
        # vanishes
        g = subdivided_complete_graph(6)
        cx = build_nm_complex(g, 3)
        symmetry = automorphisms(g)
        for d0, want in ((2, 468), (3, 129), (4, 14), (5, 0), (25, 0)):
            per_face = check_near_leray(cx, d0, GF2)
            by_orbit = check_near_leray(cx, d0, GF2, symmetry=symmetry)
            assert len(by_orbit.violations) == want
            assert by_orbit.violations == per_face.violations  # faces and Betti tables
            assert (by_orbit.checked, by_orbit.ranked, per_face.ranked) == (7864, 364, 7864)
            assert by_orbit.to_json().replace('"ranked": 364', '"ranked": 7864') == per_face.to_json()

    @pytest.mark.parametrize("k, d0s", [(2, (0, 1, 2)), (3, (4, 5))])
    def test_k6_matches_per_face(self, k, d0s):
        g = Graph.complete(6)
        cx = build_nm_complex(g, k)
        for d0 in d0s:
            for check in (check_near_leray, check_leray):
                per_face = check(cx, d0, GF2)
                by_orbit = check(cx, d0, GF2, symmetry=automorphisms(g))
                assert by_orbit.violations == per_face.violations, (k, d0, check)
                assert by_orbit.checked == per_face.checked and by_orbit.ranked < per_face.ranked

    def test_ground_of_63_elements(self):
        # NM_2(K5) over a ground with 53 more edges, on vertices the group
        # fixes: the orbits are found over 63 slots, the widest ground
        cx = build_nm_complex(Graph.complete(5), 2)
        extra = tuple((5 + 2 * j, 6 + 2 * j) for j in range(53))
        wide = SimplicialComplex.from_masks(GroundSet(cx.ground.elements + extra), cx.faces)
        symmetry = [p + tuple(range(5, 111)) for p in automorphisms(Graph.complete(5))]
        for d0 in (0, 1, 2):
            for check in (check_near_leray, check_leray):
                per_face = check(wide, d0, GF2)
                by_orbit = check(wide, d0, GF2, symmetry=symmetry)
                assert by_orbit.violations == per_face.violations, (check, d0)
                assert by_orbit.checked == per_face.checked and by_orbit.ranked < per_face.ranked
        assert check_near_leray(wide, 0, GF2, symmetry=symmetry).violations

    def test_image_off_the_complex(self):
        # NM_2(K5) without the faces containing (0, 1) is not invariant under
        # Aut(K5): the image (0, 1) of the face (0, 2) is missing
        g = Graph.complete(5)
        cx = build_nm_complex(g, 2)
        bit = cx.ground.index()[(0, 1)]
        cut = SimplicialComplex.from_masks(cx.ground, (m for m in cx.faces if not m >> bit & 1))
        assert check_near_leray(cut, 1).checked == 57  # the per-face loop takes it
        for report in (lambda s: check_near_leray(cut, 1, symmetry=s),
                       lambda s: check_leray(cut, 1, symmetry=s)):
            with pytest.raises(InternalCheckError, match="not a face"):
                report(automorphisms(g))

    def test_set_without_the_identity(self):
        # the single edge (0, 1) of P5 is moved by the reversal, its only
        # non-trivial automorphism, so it is not in its own orbit under it
        g = Graph.path(5)
        cx = build_nm_complex(g, 2)
        assert len(automorphisms(g)) == 2
        assert check_near_leray(cx, 1, symmetry=automorphisms(g)).violations == \
            check_near_leray(cx, 1).violations
        with pytest.raises(InternalCheckError, match="not in its own orbit"):
            check_near_leray(cx, 1, symmetry=[(4, 3, 2, 1, 0)])
        g = subdivided_complete_graph(6)
        without = [p for p in automorphisms(g) if p != tuple(range(7))]
        with pytest.raises(InternalCheckError, match="not in its own orbit"):
            check_near_leray(build_nm_complex(g, 3), 5, symmetry=without)

    def test_overlapping_orbits(self):
        # the identity and a 3-cycle are automorphisms of K5 but not a group:
        # the orbit of the face (1, 2) meets that of (0, 1)
        cx = build_nm_complex(Graph.complete(5), 2)
        with pytest.raises(InternalCheckError, match="not a group"):
            check_near_leray(cx, 1, symmetry=[(0, 1, 2, 3, 4), (1, 2, 0, 3, 4)])

    def test_relabeling_off_the_ground(self):
        # swapping vertex 0 of subdivided K6 with the subdivision vertex 6
        # sends the edge (0, 2) to (2, 6), which is not in the ground
        cx = build_nm_complex(subdivided_complete_graph(6), 3)
        with pytest.raises(ValueError, match="outside the slots"):
            check_near_leray(cx, 5, symmetry=[tuple(range(7)), (6, 1, 2, 3, 4, 5, 0)])

    def test_induced_mode_takes_no_symmetry(self):
        cx = build_nm_complex(Graph.complete(4), 2)
        with pytest.raises(ValueError, match="LINKS"):
            check_leray(cx, 2, GF2, "INDUCED", symmetry=automorphisms(Graph.complete(4)))


class TestRankGuards:
    def test_extra_pivot_trips_negative_betti(self, monkeypatch):
        real = homology._reduce
        # one claim more than the reduction made: a pivot row that no column has
        monkeypatch.setattr(homology, "_reduce", lambda *args: real(*args) + 1)
        cx = build_nm_complex(Graph.complete(4), 2)
        with pytest.raises(InternalCheckError, match="negative betti"):
            reduced_betti(cx)
        with pytest.raises(InternalCheckError, match="negative betti"):
            vanishing_from(cx, 0)
        with pytest.raises(InternalCheckError, match="negative betti"):
            check_near_leray(cx, 0)
        with pytest.raises(InternalCheckError, match="negative betti"):
            check_leray(cx, 1)

    @pytest.mark.parametrize("field", [GFP(LARGE_PRIME), RATIONAL], ids=["gfp", "q"])
    def test_unscaled_pivot_raises_instead_of_looping(self, monkeypatch, field):
        # elimination assumes every stored pivot ends in 1; pivots stored as
        # they come must fail, not hang.  Boundary columns start with lowest
        # entry 1, so this needs a reduced column ending in another entry,
        # which the projective plane has.  Over GF(2) every entry is 1, so
        # no column ends in another entry and the guard cannot be reached.
        monkeypatch.setattr(homology._SparseField, "pivot", lambda self, col, low: col)
        with pytest.raises(InternalCheckError, match="elimination left row"):
            reduced_betti(rp2_complex(), field)

    def test_false_link_failure_trips_cross_check(self, monkeypatch):
        # every link of NM_2(K4) vanishes from 2; a fast test that says
        # otherwise is contradicted by the link's own Betti table
        cx = build_nm_complex(Graph.complete(4), 2)
        assert check_near_leray(cx, 2).passed and check_leray(cx, 3).passed
        monkeypatch.setattr(homology, "_link_vanishes", lambda *args: False)
        with pytest.raises(InternalCheckError, match="failed to vanish"):
            check_near_leray(cx, 2)
        with pytest.raises(InternalCheckError, match="failed to vanish"):
            check_leray(cx, 3)


class TestBettiTableOutput:
    def test_csv(self):
        t = reduced_betti(four_cycle_complex())
        assert t.to_csv().startswith("dim,betti\n-1,0\n")

    def test_json(self):
        t = reduced_betti(four_cycle_complex())
        assert '"1": 1' in t.to_json()
