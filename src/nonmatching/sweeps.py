"""Registered verification suites: the exhaustive desk-scale sweeps.

Each suite expands (deterministically, given a seed) into a list of case
specs, and each case runs independently and returns a JSON-able result.
The CLI persists case results in a content-addressed cache; the acceptance
tests call the same runners directly.
"""

from __future__ import annotations

import functools
import random as _random
from dataclasses import dataclass

import numpy as np

from . import constructions as cons
from . import rainbow as rb
from .complexes import (
    GroundSet,
    SimplicialComplex,
    build_nm_complex,
    edge_host,
    mask_bits,
    submasks,
    vertex_bits,
)
from .graphs import (
    Graph,
    bipartite_edge_list,
    bipartite_subgraph_classes,
    complete_edge_list,
    edge_slot_table,
    gallai_edmonds,
    graph_isomorphism_classes,
    graph_to_mask,
    is_yz_factor_critical,
    mask_to_graph,
    matching_number,
    orbit_representatives,
    relabelings,
    subdivided_complete_graph,
)
from .homology import GF2, GFP, LARGE_PRIME, check_near_leray, parse_field, reduced_betti, vanishing_from
from .morse import JoinPart, boolean_matching, check_matching, join_matching, morse_inequality_details, projection_matching


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    runner: str
    params: dict


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    passed: bool
    details: dict


# ---------------------------------------------------------------------------
# Case runners
# ---------------------------------------------------------------------------


def run_figure_reproduction(params: dict) -> dict:
    """Subdivided-complete-graph homology: nonzero in dims 4 and 5, zero above."""
    field = parse_field(params["field"])
    g = subdivided_complete_graph(6)
    cx = build_nm_complex(g, 3)
    table = reduced_betti(cx, field)
    ok = (
        table.get(4) > 0
        and table.get(5) > 0
        and all(table.get(d) == 0 for d in range(6, cx.dim() + 1))
    )
    return {"passed": ok, "betti": {str(d): b for d, b in sorted(table.betti.items())}}


def run_vanishing(params: dict) -> dict:
    g = mask_to_graph(params["n"], params["mask"])
    field = parse_field(params["field"])
    cx = build_nm_complex(g, params["k"])
    ok = vanishing_from(cx, params["d0"], field)
    return {"passed": ok, "faces": cx.face_count}


def run_vanishing_bipartite_chunk(params: dict) -> dict:
    """Vanishing for every subgraph of a complete bipartite host in a mask range."""
    a, b = params["a"], params["b"]
    host = Graph.complete_bipartite(a, b)
    edges = host.sorted_edges()
    field = parse_field(params["field"])
    bad = []
    for mask in range(params["lo"], params["hi"]):
        g = Graph.from_edges(a + b, [edges[i] for i in range(len(edges)) if mask >> i & 1],
                             host.bipartition)
        cx = build_nm_complex(g, params["k"])
        if not vanishing_from(cx, params["d0"], field):
            bad.append(mask)
    return {"passed": not bad, "checked": params["hi"] - params["lo"], "violations": bad}


def run_random_subgraph_vanishing(params: dict) -> dict:
    rng = _random.Random(params["seed"])
    slots = complete_edge_list(params["n"])
    mask = rng.randrange(1, 1 << len(slots))
    g = mask_to_graph(params["n"], mask)
    field = parse_field(params["field"])
    cx = build_nm_complex(g, params["k"])
    ok = vanishing_from(cx, params["d0"], field)
    return {"passed": ok, "mask": mask, "faces": cx.face_count}


_HOSTS = {
    "K4": lambda: Graph.complete(4),
    "K5": lambda: Graph.complete(5),
    "K22": lambda: Graph.complete_bipartite(2, 2),
    "K23": lambda: Graph.complete_bipartite(2, 3),
}


def run_near_leray(params: dict) -> dict:
    g = _HOSTS[params["host"]]()
    cx = build_nm_complex(g, params["k"])
    field = parse_field(params["field"])
    report = check_near_leray(cx, params["d0"], field, "EXHAUSTIVE")
    # hereditary consequence: links vanishing from d0 forces the complex
    # itself to vanish from d0 + 1
    consequence = vanishing_from(cx, params["d0"] + 1, field) if report.passed else True
    return {
        "passed": report.passed and consequence,
        "checked": report.checked,
        "violations": len(report.violations),
        "whole_complex_vanishes_above": consequence,
    }


def run_concentration(params: dict) -> dict:
    g = _HOSTS[params["host"]]()
    cx = build_nm_complex(g, params["k"])
    tables = {}
    for field in (GF2, GFP(LARGE_PRIME)):
        tables[field.label()] = reduced_betti(cx, field)
    dim = params["dim"]
    ok = True
    for label, table in tables.items():
        nz = table.nonzero_dims()
        if nz != [dim] and not (nz == [] and params.get("expect_beta") == 0):
            ok = False
    if params.get("expect_beta") is not None:
        ok = ok and all(t.get(dim) == params["expect_beta"] for t in tables.values())
    agree = len({tuple(sorted(t.betti.items())) for t in tables.values()}) == 1
    return {
        "passed": ok,
        "fields_agree": agree,
        "betti": {lab: {str(d): v for d, v in sorted(t.betti.items())}
                  for lab, t in tables.items()},
    }


def _link_complex_cross_check(result, field) -> bool:
    """Morse inequality against the homology of the stripped link complex.

    The family members all contain the forced subgraph, which is itself a
    member, so the common intersection recovers it; stripping it off leaves
    the link complex of the forced subgraph.
    """
    h_mask = result.family[0]
    for m in result.family:
        h_mask &= m
    stripped = [m & ~h_mask for m in result.family]
    cx = SimplicialComplex.from_masks(result.ground, stripped)
    pairs = [(s & ~h_mask, t & ~h_mask) for (s, t) in result.pairs if s != h_mask]
    return morse_inequality_details(cx, pairs, field)["holds"]


def run_morse_family(params: dict) -> dict:
    kind = params["kind"]
    h = [tuple(e) for e in params["h"]]
    if kind == "PM":
        res = cons.build_pm_matching(params["vertices"], h)
    elif kind == "FC":
        res = cons.build_fc_matching(params["vertices"], h)
    elif kind == "BFC":
        try:
            res = cons.build_bfc_matching(params["x_side"], params["y_side"], params["z_subset"], h)
        except cons.EmptyFamilyError:
            # legitimate only when the top-level family itself is empty; an
            # inner recursion running dry would be a construction bug.  The
            # property is upward closed (Hall surplus only grows with edges),
            # so the family is empty exactly when the complete bipartite host,
            # which contains h, is not a member; an empty side gives the
            # one-member family {empty graph}.
            xs, ys = params["x_side"], params["y_side"]
            if not (xs and ys) or is_yz_factor_critical(
                Graph.from_edges(max(xs + ys) + 1, bipartite_edge_list(xs, ys)),
                xs, ys, params["z_subset"],
            ):
                raise
            return {"passed": True, "empty_family": True}
    elif kind == "NMLINK_COMPLETE":
        res = cons.build_link_matching_complete(params["vertices"], h, params["k"])
    elif kind == "NMLINK_BIPARTITE":
        res = cons.build_link_matching_bipartite(params["x_side"], params["y_side"], h, params["k"])
    else:
        raise ValueError(f"unknown kind {kind}")
    # the criticals and the bound are judged on the independent check's
    # report, not on the builder's own record
    rep = check_matching(res.family, res.pairs)
    bound_holds = res.admits(rep.max_critical_size)
    ok = rep.valid and bool(rep.acyclic) and bound_holds
    details = {
        "family_size": len(res.family),
        "criticals": len(rep.critical),
        "max_critical_size": rep.max_critical_size,
        "bound": res.bound,
        "strict": res.strict,
        "valid": rep.valid,
        "acyclic": rep.acyclic,
        "bound_holds": bound_holds,
    }
    if rep.acyclic is False and rep.witness_cycle:
        details["witness_cycle"] = [f"{m:x}" for m in rep.witness_cycle]
    if kind.startswith("NMLINK") and res.family:
        cross = _link_complex_cross_check(res, GF2)
        details["morse_inequality"] = cross
        ok = ok and cross
    details["passed"] = ok
    return details


@functools.lru_cache(maxsize=None)
def _all_matchings(n: int) -> tuple[int, ...]:
    """Every matching of the complete graph on n vertices, as edge masks in
    ascending order.

    Generated directly: the least vertex left is either unmatched or matched
    to a later one.  The naive side of the decomposition checks, kept apart
    from the nu table.
    """
    slot = edge_slot_table(n)

    def extend(left: tuple[int, ...], mask: int):
        if not left:
            yield mask
            return
        v, rest = left[0], left[1:]
        yield from extend(rest, mask)
        for i, u in enumerate(rest):
            yield from extend(rest[:i] + rest[i + 1:], mask | 1 << slot[v, u])

    return tuple(sorted(extend(tuple(range(n)), 0)))


@functools.lru_cache(maxsize=None)
def _ge_tables(n: int):
    """Per host size n: the shared host of K_n, the edges within and
    touching each vertex subset (arrays indexed by vertex mask), and the
    matchings of :func:`_all_matchings` grouped by size, each group as its
    edge masks and the slots of each matching's edges."""
    host = edge_host(GroundSet(tuple(complete_edge_list(n))))
    within = np.array([host.bits_within(s) for s in range(1 << n)], np.int64)
    touch = np.array([host.bits_touching(s) for s in range(1 << n)], np.int64)
    groups: list[list[int]] = [[] for _ in range(n // 2 + 1)]
    for m in _all_matchings(n):
        groups[m.bit_count()].append(m)
    by_size = tuple((np.array(ms, np.int64),
                     np.array([list(mask_bits(m)) for m in ms], np.intp).reshape(len(ms), size))
                    for size, ms in enumerate(groups))
    return host, within, touch, by_size


# The split of the maximum matchings is checked on per-edge weights that
# count, in 3-bit fields, the edges a matching has of each kind: a kind not
# allowed, inside C, from A into D, inside component j and from A into
# component j.  A matching has at most 3 edges and every target is at most
# n <= 7 (the subset cap bounds the K_n host), so no field carries into the
# next, and one sum over a matching's edges is compared with one target.
_FIELD = 3
_BAD, _IN_C, _A_TO_D, _IN_K = range(4)


@functools.lru_cache(maxsize=None)
def _ge_layout(n: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Per host size n, for :func:`ge_violations`: the edge weight of each
    pair of vertex labels (components 0..n-1, A = n, C = n + 1), the
    endpoints of each slot of K_n, the bits the split comparison keeps
    (every field but those counting A's edges into one component, where only
    the bits above the lowest, a count past 1, are kept), and per slot the
    neighbour bit it gives each of its ends."""
    a_label, c_label = n, n + 1
    weight = np.full((n + 2, n + 2), 1 << _FIELD * _BAD, np.int64)
    weight[c_label, c_label] = 1 << _FIELD * _IN_C
    keep = (1 << _FIELD * (_IN_K + n)) - 1
    for j in range(n):
        weight[j, j] = 1 << _FIELD * (_IN_K + j)
        into = _FIELD * (_IN_K + n + j)
        weight[a_label, j] = weight[j, a_label] = 1 << _FIELD * _A_TO_D | 1 << into
        keep |= ((1 << _FIELD) - 2) << into
    ends = np.array(complete_edge_list(n), np.intp).reshape(-1, 2)
    star = np.zeros((len(ends), n), np.int64)
    star[np.arange(len(ends)), ends[:, 0]] = 1 << ends[:, 1]
    star[np.arange(len(ends)), ends[:, 1]] = 1 << ends[:, 0]
    return weight, ends, keep, star


def run_ge_chunk(params: dict) -> dict:
    """Decomposition checks for every graph mask in a range, one host size.

    The decomposer under test is :meth:`nonmatching.complexes.EdgeHost.decompose_masks`,
    the one the Morse builders use, on the shared host of the complete
    graph.  Per graph: every property of :func:`ge_violations` (one call for
    the chunk), invariance under single-edge perturbations that stay inside
    the matched-or-attachment part, and (on a deterministic subsample)
    agreement with the definitional :func:`nonmatching.graphs.gallai_edmonds`
    and of the matching number with the all-matchings oracle.  A perturbed
    graph inside the range is compared with the chunk's own decomposition
    of it; only one outside the range is decomposed again.  Each failing
    mask (the first 16) is listed with its cause: the property
    :func:`ge_violations` names, ``nu-oracle``, ``definitional-oracle`` or
    ``perturbation``.
    """
    n, lo, hi = params["n"], params["lo"], params["hi"]
    host, within, touch, _ = _ge_tables(n)
    vs = (1 << n) - 1
    rows = [host.decompose_masks(mask, vs) for mask in range(lo, hi)]
    counts = np.array([len(row[4]) for row in rows])
    width = max(n, counts.max())
    d, a, c = (np.array([row[i] for row in rows], np.int64) for i in (1, 2, 3))
    comps = np.array([row[4] + (0,) * (width - len(row[4])) for row in rows], np.int64)
    masks = np.arange(lo, hi, dtype=np.int64)
    reasons = [None if i < 0 else GE_PROPERTIES[i]
               for i in ge_violations(n, masks, comps, counts, a, c).tolist()]
    # nu against the all-matchings oracle, and the definitional operation,
    # on a subsample (both are per-graph recomputations)
    for i in range(-lo % 61, hi - lo, 61):
        if reasons[i] is None:
            mask, (nu, _, am, cm, cms) = lo + i, rows[i]
            naive = max((m.bit_count() for m in _all_matchings(n) if m & ~mask == 0), default=0)
            ge = gallai_edmonds(mask_to_graph(n, mask))
            if naive != nu:
                reasons[i] = "nu-oracle"
            elif (tuple(map(vertex_bits, ge.components)), vertex_bits(ge.a_set),
                  vertex_bits(ge.c_set)) != (cms, am, cm):
                reasons[i] = "definitional-oracle"
    # adding or deleting an A-A or A-C edge keeps the decomposition
    clean = np.flatnonzero(np.array([r is None for r in reasons], bool))
    am, cm = a[clean], c[clean]
    perturb = within[am] | (touch[am] & touch[cm] & within[am | cm])
    at, bit = np.nonzero(perturb[:, None] >> np.arange(len(host.edges)) & 1)
    at = clean[at]
    toggled = masks[at] ^ (1 << bit)
    inside = (toggled >= lo) & (toggled < hi)
    i, j = at[inside], toggled[inside] - lo
    moved = ((d[i] != d[j]) | (a[i] != a[j]) | (c[i] != c[j]) | (counts[i] != counts[j])
             | (comps[i] != comps[j]).any(axis=1))
    for row in i[moved].tolist():
        reasons[row] = "perturbation"
    for i, mask in zip(at[~inside].tolist(), toggled[~inside].tolist()):
        if reasons[i] is None and host.decompose_masks(mask, vs)[1:] != rows[i][1:]:
            reasons[i] = "perturbation"
    bad = [[lo + i, r] for i, r in enumerate(reasons) if r is not None]
    return {"passed": not bad, "checked": hi - lo, "violations": bad[:16]}


GE_PROPERTIES = (
    "partition",
    "a-is-neighborhood-of-d",
    "component-structure",
    "c-perfectly-matchable",
    "maximum-matchings-split",
    "component-count",
    "factor-critical",
    "a-matches-avoiding-any-component",
)


def ge_violations(n: int, masks, comps, counts, a, c) -> np.ndarray:
    """Per claimed decomposition of a subgraph of K_n, the index in
    :data:`GE_PROPERTIES` of the first property it fails, or -1 when it has
    them all.

    Row r claims, for the edge mask ``masks[r]`` over
    ``complete_edge_list(n)``, the components of D (``counts[r]`` vertex
    masks, ordered by least vertex, in the first columns of ``comps[r]``,
    zeros after), A (``a[r]``) and C (``c[r]``).  The properties, in the
    order checked and named as in :data:`GE_PROPERTIES`:

    - D, A and C partition the vertices (the components partition D);
    - A is the neighbourhood of D;
    - the components are the connected components of G[D];
    - G[C] has a perfect matching;
    - every maximum matching splits: |C|/2 edges inside C, (|K|-1)/2 inside
      each component K, and one edge from each vertex of A into D, at most
      one per component;
    - there are |A| + n - 2 nu(G) components;
    - each component is factor critical;
    - A matches into distinct components avoiding any one of them (Hall's
      condition on each component's neighbours in A).

    Together the properties pin the decomposition down, and in this order
    each of them can be the first to fail.  Matching numbers come from the
    nu table of the K_n host; maximum matchings from the all-matchings
    list; the components of G[D] from a closure over D's neighbour masks.
    All rows are checked at once, in arrays.
    """
    host, within, touch, by_size = _ge_tables(n)
    masks = np.asarray(masks, np.int64)
    rows = len(masks)
    comps = np.asarray(comps, np.int64)
    counts, a, c = (np.asarray(x, np.int64).reshape(rows) for x in (counts, a, c))
    code = np.full(rows, -1, np.int8)
    # partition, on the claim as given; every later check reads vertex masks
    # that are disjoint and within the n vertices
    d = np.zeros(rows, np.int64)
    bad = (a & c) != 0
    for col in comps.T:
        bad |= (d & col) != 0
        d |= col
    bad |= (d & (a | c) != 0) | ((d | a | c) != (1 << n) - 1)
    code[bad] = 0
    alive = np.flatnonzero(~bad)
    masks, comps, counts, a, c, d = (x[alive] for x in (masks, comps, counts, a, c, d))
    width = comps.shape[1]
    claimed = np.arange(width) < counts[:, None]
    verts = np.arange(n)
    pop = np.bitwise_count
    nu_table = host.nu_array
    nu = nu_table[masks]
    weight, ends, keep, star = _ge_layout(n)

    # each vertex's neighbours (a sum of distinct bits), and A = N(D)
    nbrs = (masks[:, None] >> np.arange(len(ends)) & 1) @ star
    in_d = (d[:, None] >> verts & 1) == 1
    reach = np.bitwise_or.reduce(np.where(in_d, nbrs, 0), axis=1)
    fails = [(reach & ~d) != a]

    # own[r, v]: the component of G[D] holding v (0 off D), by a closure
    # that doubles the path length it covers per round; each claimed
    # component must be the one of its least vertex, and those ascend
    own = np.where(in_d, (nbrs & d[:, None]) | 1 << verts, 0)
    while True:
        grown = own.copy()
        for v in range(n):
            grown |= (own >> v & 1) * own[:, v, None]
        if (grown == own).all():
            break
        own = grown
    low = comps & -comps
    least = pop((low - 1) & ((1 << n) - 1)).astype(np.intp)  # the least vertex; n for none
    found = np.take_along_axis(np.pad(own, ((0, 0), (0, 1))), least, axis=1)
    fails.append((claimed & ((comps == 0) | (found != comps))).any(axis=1)
                 | (claimed[:, 1:] & (low[:, 1:] <= low[:, :-1])).any(axis=1))

    a_size, c_size = pop(a).astype(np.int64), pop(c).astype(np.int64)
    fails.append(2 * nu_table[masks & within[c]] != c_size)

    # every maximum matching against the split, by the weights of its edges;
    # a component is labelled by its least vertex, A by n and C by n + 1
    own_low = own & -own
    label = np.where(in_d, pop(own_low - 1), n + (c[:, None] >> verts & 1)).astype(np.intp)
    edge_weight = weight.ravel()[label[:, ends[:, 0]] * (n + 2) + label[:, ends[:, 1]]]
    halves = np.where(claimed, (pop(comps).astype(np.int64) - 1) >> 1, 0)
    target = c_size // 2 << _FIELD * _IN_C | a_size << _FIELD * _A_TO_D
    target |= np.bitwise_or.reduce(halves << _FIELD * (_IN_K + least), axis=1)
    split = np.zeros(len(masks), bool)
    for size, (matchings, slots) in enumerate(by_size):
        at = np.flatnonzero(nu == size)
        weights = edge_weight[at]
        sums = np.zeros((len(at), len(matchings)), np.int64)
        for t in range(size):
            sums += weights[:, slots[:, t]]
        maximum = (matchings & ~masks[at, None]) == 0
        split[at] = (maximum & ((sums & keep) != target[at, None])).any(axis=1)
    fails.append(split)

    fails.append(counts != a_size + n - 2 * nu.astype(np.int64))

    # each vertex of a component, deleted from it, leaves (|K|-1)/2
    left = masks[:, None] & within[own] & ~touch[1 << verts]
    fails.append((in_d & (nu_table[left] != (pop(own).astype(np.int64) - 1) >> 1)).any(axis=1))

    # Hall: every non-empty S within A meets more components than |S|, so A
    # matches into them with any one component left out; each component
    # counts once, at its least vertex
    hall = np.zeros(len(masks), bool)
    at = np.flatnonzero((a != 0) & (counts > 0))
    firsts = own_low[at] == 1 << verts
    comp_nbrs = np.zeros((len(at), n), np.int64)
    for v in range(n):
        comp_nbrs |= (own[at] >> v & 1) * nbrs[at, v, None]
    comp_nbrs = np.where(firsts, comp_nbrs & a[at, None], 0)
    subsets = np.arange(1, 1 << n)
    hits = np.zeros((len(at), len(subsets)), np.uint8)
    for col in comp_nbrs.T:
        hits += (col[:, None] & subsets) != 0
    within_a = (subsets & ~a[at, None]) == 0
    hall[at] = (within_a & (hits <= pop(subsets))).any(axis=1)
    fails.append(hall)

    first = np.full(len(masks), -1, np.int8)
    for i in range(len(fails), 0, -1):
        first[fails[i - 1]] = i
    code[alive] = first
    return code


def ge_violation(n: int, mask: int, comps, a_set, c_set) -> str | None:
    """The first property of :data:`GE_PROPERTIES` that a claimed
    decomposition of one subgraph of K_n fails, or None: :func:`ge_violations`
    on one row.  The claim is the components of D (ordered by least vertex),
    A and C as vertex sets."""
    cms = [vertex_bits(k) for k in comps]
    am, cm = vertex_bits(a_set), vertex_bits(c_set)
    if functools.reduce(int.__or__, cms, am | cm) >> n:
        return "partition"  # a vertex outside K_n
    row = cms + [0] * (n - len(cms))
    code = ge_violations(n, [mask], [row], [len(cms)], [am], [cm])[0]
    return None if code < 0 else GE_PROPERTIES[code]


def run_rainbow13_host(params: dict) -> dict:
    """Every triple of edge sets of one bipartite host that meets the k=2
    hypotheses has a rainbow matching: the scan finds no counterexample."""
    slots = Graph.complete_bipartite(params["a"], params["b"]).sorted_edges()
    checked, found = rb.k2_counterexamples(slots, params["mask"], 3)
    return {"passed": not found, "checked": checked, "violations": found[:4]}


def run_rainbow14_chunk(params: dict) -> dict:
    """Every four edge sets of K_n, the first in [lo, hi), that meet the k=2
    hypotheses have a rainbow matching: the scan finds no counterexample.
    Sets range over all edges of K_n, so this covers every graph on at most
    n vertices."""
    slots = complete_edge_list(params["n"])
    checked, found = rb.k2_counterexamples(slots, (1 << len(slots)) - 1, 4, params["lo"], params["hi"])
    return {"passed": not found, "checked": checked, "violations": found[:4]}


def run_tightness(params: dict) -> dict:
    inst = rb.search_tightness(params["k"], True, params["m"])
    if inst is None:
        return {"passed": False, "witness": None}
    return {
        "passed": rb.is_tightness_witness(inst),
        "witness": [sorted(map(list, es)) for es in inst.edge_sets],
    }


def _random_acyclic_part(rng, ground_bits: list[int]):
    """A random non-empty family over the given bits with a toggle matching."""
    space = submasks(sum(1 << b for b in ground_bits))
    fam = sorted(rng.sample(space, rng.randint(1, len(space))))
    if rng.random() < 0.3 or not ground_bits:
        return fam, []
    e0 = rng.choice(ground_bits)
    pairs, _ = boolean_matching(fam, e0)
    return fam, pairs


def run_join_law(params: dict) -> dict:
    """Joined criticals must equal the set-join of part criticals."""
    rng = _random.Random(params["seed"])
    failures = 0
    for _ in range(params["iterations"]):
        nbits = rng.randint(3, 8)
        bits = list(range(nbits))
        rng.shuffle(bits)
        cut = sorted(rng.sample(range(1, nbits), min(rng.randint(1, 2), nbits - 1)))
        groups = []
        prev = 0
        for c in cut + [nbits]:
            groups.append(bits[prev:c])
            prev = c
        parts = []
        crit_sets = []
        for gbits in groups:
            fam, pairs = _random_acyclic_part(rng, gbits)
            gm = sum(1 << b for b in gbits)
            parts.append(JoinPart.make(gm, fam, pairs))
            matched = {f for p in pairs for f in p}
            crit_sets.append(sorted(set(fam) - matched))
        res = join_matching(parts)
        expected = {0}
        for cs in crit_sets:
            expected = {a | c for a in expected for c in cs}
        if set(res.criticals) != expected:
            failures += 1
        rep = check_matching(res.family, res.pairs)
        if not (rep.valid and rep.acyclic):
            failures += 1
    return {"passed": failures == 0, "iterations": params["iterations"], "failures": failures}


def run_projection_law(params: dict) -> dict:
    """Lifted criticals inject with |sigma| = |pi(sigma)| - |pi(tau)| + |tau|."""
    rng = _random.Random(params["seed"])
    failures = 0
    for _ in range(params["iterations"]):
        nparts = rng.randint(1, 4)
        part_sizes = [rng.randint(1, 3) for _ in range(nparts)]
        parts = []
        base = 0
        for s in part_sizes:
            parts.append(((1 << s) - 1) << base)
            base += s
        tau = 0
        for pm in parts:
            if rng.random() < 0.4:
                sub = rng.choice(submasks(pm))
                tau |= sub
        pi_tau = 0
        for i, pm in enumerate(parts):
            if tau & pm:
                pi_tau |= 1 << i
        fullq = (1 << nparts) - 1
        sup = [q for q in submasks(fullq) if q & pi_tau == pi_tau]
        q_family = sorted(rng.sample(sup, rng.randint(1, len(sup))))
        q_pairs = []
        if rng.random() < 0.7 and nparts:
            q_pairs, _ = boolean_matching(q_family, rng.randrange(nparts))
        res = projection_matching(parts, tau, q_family, q_pairs)
        # independent re-check of the size formula and injectivity
        matched_q = {f for p in q_pairs for f in p}
        q_crit = set(q_family) - matched_q
        seen_pi = set()
        for c in res.criticals:
            pc = 0
            for i, pm in enumerate(parts):
                if c & pm:
                    pc |= 1 << i
            if pc in seen_pi or pc not in q_crit:
                failures += 1
                break
            seen_pi.add(pc)
            if c.bit_count() != pc.bit_count() - pi_tau.bit_count() + tau.bit_count():
                failures += 1
                break
        rep = check_matching(res.family, res.pairs)
        if not (rep.valid and rep.acyclic):
            failures += 1
    return {"passed": failures == 0, "iterations": params["iterations"], "failures": failures}


RUNNERS = {
    "figure_reproduction": run_figure_reproduction,
    "vanishing": run_vanishing,
    "vanishing_bipartite_chunk": run_vanishing_bipartite_chunk,
    "random_subgraph_vanishing": run_random_subgraph_vanishing,
    "near_leray": run_near_leray,
    "concentration": run_concentration,
    "morse_family": run_morse_family,
    "ge_chunk": run_ge_chunk,
    "rainbow13_host": run_rainbow13_host,
    "rainbow14_chunk": run_rainbow14_chunk,
    "tightness": run_tightness,
    "join_law": run_join_law,
    "projection_law": run_projection_law,
}


def run_case(spec: CaseSpec) -> CaseResult:
    details = RUNNERS[spec.runner](spec.params)
    passed = bool(details.pop("passed"))
    return CaseResult(spec.case_id, passed, details)


# ---------------------------------------------------------------------------
# Suite definitions
# ---------------------------------------------------------------------------


def _suite_figure1(seed: int) -> list[CaseSpec]:
    return [
        CaseSpec(f"figure1-{f}", "figure_reproduction", {"field": f})
        for f in ("gf2", f"gf{LARGE_PRIME}")
    ]


def _suite_vanishing_k2(seed: int) -> list[CaseSpec]:
    cases = []
    for n in range(1, 6):
        for g in graph_isomorphism_classes(n):
            mask = graph_to_mask(g)
            cases.append(
                CaseSpec(
                    f"nm2-n{n}-m{mask}",
                    "vanishing",
                    {"n": n, "mask": mask, "k": 2, "d0": 3, "field": "gf2"},
                )
            )
    for i in range(24):
        cases.append(
            CaseSpec(
                f"nm3-k6-random-{i}",
                "random_subgraph_vanishing",
                {"n": 6, "seed": seed * 1000 + i, "k": 3, "d0": 6, "field": "gf2"},
            )
        )
    return cases


def _suite_bipartite_k2(seed: int) -> list[CaseSpec]:
    cases = []
    total = 1 << 9
    step = 64
    for lo in range(0, total, step):
        cases.append(
            CaseSpec(
                f"k33-{lo}",
                "vanishing_bipartite_chunk",
                {"a": 3, "b": 3, "lo": lo, "hi": min(lo + step, total), "k": 2,
                 "d0": 2, "field": "gf2"},
            )
        )
    return cases


def _suite_leray_k2(seed: int) -> list[CaseSpec]:
    cases = []
    for host, d0 in (("K4", 2), ("K5", 2), ("K23", 1)):
        for f in ("gf2", f"gf{LARGE_PRIME}"):
            cases.append(
                CaseSpec(
                    f"near-{host}-d{d0}-{f}",
                    "near_leray",
                    {"host": host, "k": 2, "d0": d0, "field": f},
                )
            )
    return cases


def _suite_concentration(seed: int) -> list[CaseSpec]:
    return [
        CaseSpec("conc-K4", "concentration", {"host": "K4", "k": 2, "dim": 2}),
        CaseSpec("conc-K5", "concentration", {"host": "K5", "k": 2, "dim": 2}),
        CaseSpec("conc-K22", "concentration",
                 {"host": "K22", "k": 2, "dim": 1, "expect_beta": 1}),
        CaseSpec("conc-K23", "concentration", {"host": "K23", "k": 2, "dim": 1}),
    ]


def _edges_of(g: Graph) -> list[list[int]]:
    return [list(e) for e in g.sorted_edges()]


def _suite_morse_bounds(seed: int) -> list[CaseSpec]:
    rng = _random.Random(seed)
    cases = []
    for n in (0, 2, 4, 6):
        for g in graph_isomorphism_classes(n):
            cases.append(
                CaseSpec(
                    f"pm-n{n}-{len(cases)}",
                    "morse_family",
                    {"kind": "PM", "vertices": list(range(n)), "h": _edges_of(g)},
                )
            )
    for n in (1, 3, 5):
        for g in graph_isomorphism_classes(n):
            cases.append(
                CaseSpec(
                    f"fc-n{n}-{len(cases)}",
                    "morse_family",
                    {"kind": "FC", "vertices": list(range(n)), "h": _edges_of(g)},
                )
            )
    for a in range(0, 5):
        for b in range(0, 4):
            classes = bipartite_subgraph_classes(a, b) if a and b else [Graph.empty(max(a + b, 1))]
            for z_size in range(0, a + 1):
                pool = classes
                if len(pool) > 10:
                    # keep the empty and one-edge classes for the strictness clause
                    pool = classes[:2] + rng.sample(classes[2:], 8)
                for g in pool:
                    cases.append(
                        CaseSpec(
                            f"bfc-{a}x{b}-z{z_size}-{len(cases)}",
                            "morse_family",
                            {
                                "kind": "BFC",
                                "x_side": list(range(a)),
                                "y_side": list(range(a, a + b)),
                                "z_subset": list(range(z_size)),
                                "h": _edges_of(g),
                            },
                        )
                    )
    for n in range(2, 6):
        for g in graph_isomorphism_classes(n):
            if matching_number(g) == 1:
                cases.append(
                    CaseSpec(
                        f"link-n{n}-{len(cases)}",
                        "morse_family",
                        {"kind": "NMLINK_COMPLETE", "vertices": list(range(n)),
                         "h": _edges_of(g), "k": 2},
                    )
                )
    for a in range(1, 4):
        for b in range(1, 4):
            for g in bipartite_subgraph_classes(a, b):
                if matching_number(g) == 1:
                    cases.append(
                        CaseSpec(
                            f"blink-{a}x{b}-{len(cases)}",
                            "morse_family",
                            {"kind": "NMLINK_BIPARTITE", "x_side": list(range(a)),
                             "y_side": list(range(a, a + b)), "h": _edges_of(g), "k": 2},
                        )
                    )
    return cases


def _suite_gallai_edmonds(seed: int) -> list[CaseSpec]:
    cases = []
    for n in range(0, 7):
        total = 1 << (n * (n - 1) // 2)
        step = max(total // 16, 1)
        for lo in range(0, total, step):
            cases.append(
                CaseSpec(
                    f"ge-n{n}-{lo}",
                    "ge_chunk",
                    {"n": n, "lo": lo, "hi": min(lo + step, total)},
                )
            )
    return cases


def _suite_rainbow(seed: int) -> list[CaseSpec]:
    # the non-empty subgraphs of K3,3 up to relabeling, as host edge masks
    host = Graph.complete_bipartite(3, 3)
    edges = host.sorted_edges()
    masks = orbit_representatives(edges, relabelings(6, host.bipartition), range(1, 1 << len(edges)))
    cases = [
        CaseSpec(f"bip-triples-host-{mask}", "rainbow13_host", {"a": 3, "b": 3, "mask": mask})
        for mask in masks
    ]
    total = 1 << 15  # edge masks of K6
    step = -(-total // 10)
    for i in range(10):
        lo = 1 + i * step
        cases.append(
            CaseSpec(f"general-k2-chunk-{i}", "rainbow14_chunk", {"n": 6, "lo": lo, "hi": min(lo + step, total)})
        )
    cases.append(CaseSpec("tight-k2-m2", "tightness", {"k": 2, "m": 2}))
    cases.append(CaseSpec("tight-k3-m4", "tightness", {"k": 3, "m": 4}))
    return cases


def _suite_combinator_laws(seed: int) -> list[CaseSpec]:
    return [
        CaseSpec("join-laws-a", "join_law", {"seed": seed + 1, "iterations": 60}),
        CaseSpec("join-laws-b", "join_law", {"seed": seed + 2, "iterations": 60}),
        CaseSpec("projection-laws-a", "projection_law", {"seed": seed + 3, "iterations": 60}),
        CaseSpec("projection-laws-b", "projection_law", {"seed": seed + 4, "iterations": 60}),
    ]


SUITES = {
    "figure1": _suite_figure1,
    "vanishing-k2": _suite_vanishing_k2,
    "bipartite-k2": _suite_bipartite_k2,
    "leray-k2": _suite_leray_k2,
    "concentration": _suite_concentration,
    "morse-bounds": _suite_morse_bounds,
    "gallai-edmonds": _suite_gallai_edmonds,
    "rainbow": _suite_rainbow,
    "combinator-laws": _suite_combinator_laws,
}


def expand_suite(name: str, seed: int = 0) -> list[CaseSpec]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
