"""Acceptance criteria, one test per criterion, each at its exact tolerance.

Every criterion drives the same registered sweep suites the CLI exposes and
prints a single PASS/FAIL line (run pytest with -s to see them inline; they
also appear in the captured output on failure).
"""

import pytest

from nonmatching import sweeps
from nonmatching.cache import digest_of
from nonmatching.complexes import EdgeHost, build_nm_complex, mask_bits
from nonmatching.graphs import subdivided_complete_graph
from nonmatching.homology import GF2, GFP, LARGE_PRIME, reduced_betti


# Result digests by (suite, seed), as printed by `nonmatching sweep <suite>
# --seed <seed> --no-cache`; a change to any case result of a suite changes
# its digest.  Seed 21 is pinned for the suites whose cases depend on the seed,
# and for rainbow, whose exhaustive cases do not: both its pins are equal.
PINNED_DIGESTS = {
    ("figure1", 0): "ea35d24117d7fc376cdc5a444e03335bbf648d17aac92bafb3fb34d7a4ae4dbb",
    ("vanishing-k2", 0): "b367477cca3765205b5fdd9899390f9c3f28e9eeb273be27f6d08110c853c28b",
    ("vanishing-k2", 21): "212a843da8e8491b248cb4d0c0e68d43d44d9666ab50c8dc7c38e9b4b1d1ef8f",
    ("bipartite-k2", 0): "f1ed039598c863e661b0b23383bd13673483d46c745f2130f9dc2f5d6797e16d",
    ("leray-k2", 0): "ca27157de536544da05fb0ad53b4c1d67a0ff0e4310839161f745498712795e3",
    ("concentration", 0): "007b1930461f91d63492c2822283cf0456a15d245fc5d25322c3797755cbc7bb",
    ("morse-bounds", 0): "20cc6cca62b2e163347443b7fb216b0491ccceafece0630c3f3bbe35fe82e1c2",
    ("morse-bounds", 21): "945decebe870c924791ca614c81f2199fd5e6b08192ca67d1457a92dffa59cdf",
    ("gallai-edmonds", 0): "d277961598ee319fe85ae48fa6c5af9f7695395a3590fa4f04dcc3f656de9e9f",
    ("rainbow", 0): "34c67b09def3de913080d3053ee1c2ff5820c3531837e9652706316b5fb99d75",
    ("rainbow", 21): "34c67b09def3de913080d3053ee1c2ff5820c3531837e9652706316b5fb99d75",
    ("combinator-laws", 0): "e30990b372e90206b81d009f052c28379aea8f3127a6a2dbf36873cd1004c089",
}


def _a_to_c(nu, d, a, c, comps):
    low = a & -a
    return nu, d, a ^ low, c | low, comps


def _c_to_a(nu, d, a, c, comps):
    low = c & -c
    return nu, d, a | low, c ^ low, comps


def _merge_first_two(nu, d, a, c, comps):
    return nu, d, a, c, (comps[0] | comps[1],) + comps[2:] if len(comps) > 1 else comps


def _drop_largest_d(nu, d, a, c, comps):
    top = 1 << d.bit_length() >> 1
    return nu, d & ~top, a, c, tuple(k & ~top for k in comps if k & ~top)


def _singleton_to_c(nu, d, a, c, comps):
    single = max((k for k in comps if k.bit_count() == 1), default=0)
    return nu, d & ~single, a, c | single, tuple(k for k in comps if k != single)


# Wrong decomposers, each wrapped around the output of
# EdgeHost.decompose_masks (vertex masks): over all 33,868 graphs on at most 6
# vertices the gallai-edmonds sweep rejects 6,480 / 26,785 / 8,573 / 9,006 /
# 8,752 masks under them.
GE_MUTATIONS = {
    "a-vertex-to-c": _a_to_c,
    "c-vertex-to-a": _c_to_a,
    "first-two-components-merged": _merge_first_two,
    "largest-d-vertex-dropped": _drop_largest_d,
    "singleton-component-to-c": _singleton_to_c,
}


def _vertex_lists(claim):
    """A decomposer row's components, A and C as the vertex lists
    :func:`sweeps.ge_violation` reads."""
    _, _, a, c, comps = claim
    return [list(mask_bits(k)) for k in comps], list(mask_bits(a)), list(mask_bits(c))


def run_suite(name: str, seed: int = 0):
    specs = sweeps.expand_suite(name, seed)
    results = [sweeps.run_case(spec) for spec in specs]
    failures = [r for r in results if not r.passed]
    # the digest the CLI prints: case payloads in spec order
    digest = digest_of(
        [{"case_id": r.case_id, "passed": r.passed, "details": r.details} for r in results]
    )
    assert digest == PINNED_DIGESTS[name, seed], f"{name} seed {seed}: result digest {digest}"
    return results, failures


def report(criterion: str, ok: bool, extra: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_1_figure_reproduction(self):
        """Homology of the subdivided complete graph in both fields."""
        results, failures = run_suite("figure1")
        tables = {}
        for field in (GF2, GFP(LARGE_PRIME)):
            cx = build_nm_complex(subdivided_complete_graph(6), 3)
            tables[field.label()] = reduced_betti(cx, field)
        detail = ", ".join(
            f"{lab}: b4={t.get(4)} b5={t.get(5)}" for lab, t in tables.items()
        )
        report("1 figure-reproduction", not failures, detail)

    def test_criterion_2_vanishing_sweep(self):
        """All graphs on <= 5 vertices at k=2 vanish from dim 3; 24 seeded
        subgraphs of the 6-vertex complete graph at k=3 vanish from dim 6."""
        results, failures = run_suite("vanishing-k2")
        report("2 vanishing-sweep", not failures, f"{len(results)} cases")

    def test_criterion_3_bipartite_sweep(self):
        """Every subgraph of the 3x3 complete bipartite host vanishes from 2."""
        results, failures = run_suite("bipartite-k2")
        checked = sum(r.details["checked"] for r in results)
        report("3 bipartite-sweep", not failures and checked == 512, f"{checked} graphs")

    def test_criterion_4_near_leray(self):
        """Exhaustive link checks at the stated dimensions, zero violations."""
        results, failures = run_suite("leray-k2")
        checked = sum(r.details["checked"] for r in results)
        report("4 near-leray", not failures, f"{checked} links over {len(results)} runs")

    def test_criterion_5_concentration(self):
        """Homology concentrated in the known single dimension, with the
        forced Betti value on the 4-cycle complex."""
        results, failures = run_suite("concentration")
        agree = all(r.details["fields_agree"] for r in results)
        report("5 concentration", not failures and agree, f"{len(results)} hosts")

    def test_criterion_6_morse_constructions(self):
        """Exhaustive family grids: valid + acyclic + bounds with strictness,
        and Morse-inequality domination for the link families."""
        results, failures = run_suite("morse-bounds")
        kinds = {}
        for spec in sweeps.expand_suite("morse-bounds", 0):
            kinds[spec.params["kind"]] = kinds.get(spec.params["kind"], 0) + 1
        detail = f"{len(results)} cases: " + ", ".join(
            f"{k}={v}" for k, v in sorted(kinds.items())
        )
        report("6 morse-constructions", not failures, detail)

    def test_criterion_7_gallai_edmonds(self):
        """All graphs on <= 6 vertices: structural properties, maximum
        matching splits, and single-edge perturbation invariance."""
        results, failures = run_suite("gallai-edmonds")
        checked = sum(r.details["checked"] for r in results)
        total = sum(1 << (n * (n - 1) // 2) for n in range(0, 7))
        report("7 gallai-edmonds", not failures and checked == total, f"{checked} graphs")

    def test_criterion_7_rejects_a_mutated_decomposer(self, monkeypatch):
        """The checks behind criterion 7 can fail: each of five mutated
        decomposers, patched in where the builders and the suite both read
        it, fails the sweep of the 5-vertex graphs."""
        real = EdgeHost.decompose_masks
        host = sweeps._ge_tables(5)[0]
        for name, mutate in GE_MUTATIONS.items():
            monkeypatch.setattr(EdgeHost, "decompose_masks",
                                lambda self, mask, vs, mutate=mutate: mutate(*real(self, mask, vs)))
            out = sweeps.run_ge_chunk({"n": 5, "lo": 0, "hi": 1 << 10})
            assert not out["passed"] and out["violations"], name
            # each failing mask names the property the mutated claim fails
            for mask, reason in out["violations"]:
                claim = host.decompose_masks(mask, 0b11111)
                assert reason == sweeps.ge_violation(5, mask, *_vertex_lists(claim)), (name, mask)

    def test_criterion_8_rainbow(self):
        """No k=2 counterexample: three sets on every K3,3 host class, and
        four sets on every graph with at most 6 vertices (the general chunks
        scan all of K6); tightness witnesses at (2,2) and (3,4)."""
        results, failures = run_suite("rainbow")
        found = sum(len(r.details.get("violations", ())) for r in results)
        general = sum(r.details["checked"] for r in results if r.case_id.startswith("general"))
        witnesses = [r for r in results if r.case_id.startswith("tight")]
        report(
            "8 rainbow",
            not failures and found == 0 and general == 41_812 and len(witnesses) == 2,
            f"{found} counterexamples, {general} general prefixes, {len(witnesses)} witnesses",
        )

    def test_criterion_9_combinator_laws(self):
        """Join criticals equal the join of criticals; projection criticals
        inject with the exact size formula; >= 100 random configs each."""
        results, failures = run_suite("combinator-laws")
        join_iters = sum(
            r.details["iterations"] for r in results if r.case_id.startswith("join")
        )
        proj_iters = sum(
            r.details["iterations"] for r in results if r.case_id.startswith("projection")
        )
        report(
            "9 combinator-laws",
            not failures and join_iters >= 100 and proj_iters >= 100,
            f"{join_iters}+{proj_iters} configurations",
        )

    @pytest.mark.parametrize("name", ["vanishing-k2", "morse-bounds", "rainbow"])
    def test_seed_dependent_suites_at_seed_21(self, name):
        """The suites whose sampled cases follow the seed, at a second seed,
        and rainbow, which must give its seed-0 digest there."""
        results, failures = run_suite(name, 21)
        report(f"{name} seed 21", not failures, f"{len(results)} cases")


def test_ge_violations_rows_are_independent():
    """One batched call over correct and mutated claims on 6 vertices, in
    one interleaved batch with differing component counts, gives each row
    the code of its own one-row call."""
    host = sweeps._ge_tables(6)[0]
    claims = []
    for mask in range(0, 1 << 15, 97):
        row = host.decompose_masks(mask, 0b111111)
        claims += [(mask, row)] + [(mask, mutate(*row)) for mutate in GE_MUTATIONS.values()]
    codes = sweeps.ge_violations(
        6, [mask for mask, _ in claims],
        [list(row[4]) + [0] * (6 - len(row[4])) for _, row in claims],
        [len(row[4]) for _, row in claims], [row[2] for _, row in claims], [row[3] for _, row in claims])
    one_row = [sweeps.ge_violation(6, mask, *_vertex_lists(row)) for mask, row in claims]
    assert [None if i < 0 else sweeps.GE_PROPERTIES[i] for i in codes.tolist()] == one_row
    assert None in one_row and len(set(one_row)) > 3
