"""Rainbow matchings: search, theorem verification, and the labelled complex.

A rainbow matching for edge sets E_1..E_m is a matching in their union using
each chosen edge from a distinct set.  The guarantees verified here: with
pairwise-union matching number at least k, 2k-1 sets suffice on a bipartite
host and 3k-2 sets on a general host; 2k-2 bipartite sets and 3k-3 general
sets do not.  At k=2 one exhaustive scan, :func:`k2_counterexamples`, lists
every counterexample on a host: the sweeps run it on each K3,3 host class
and on all of K6, and it gives the k=2 tightness witnesses.  The
labelled complex, built by the same walk as every non-matching complex, and
the partition matroid on the labels connect these statements to the
vanishing results, and an exhaustive desk-scale check confirms the
topological Helly-type conclusion.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .complexes import GroundSet, SimplicialComplex, _nm_complex, edge_host
from .errors import FormatError, HypothesisError, InternalCheckError
from .graphs import (
    DEFAULT_FACE_CAP,
    Graph,
    Matching,
    adjacency_masks,
    edge_conflicts,
    normalize_edge,
    nu_within,
    parse_graph,
)


@dataclass(frozen=True)
class RainbowInstance:
    """An ordered collection of non-empty edge sets over a host graph."""

    host: Graph
    edge_sets: tuple[frozenset[tuple[int, int]], ...]
    k: int

    def __post_init__(self):
        for i, es in enumerate(self.edge_sets):
            if not es:
                raise ValueError(f"edge set {i} is empty")
            for e in es:
                if normalize_edge(*e) != e:
                    raise ValueError(f"edge {e} of set {i} is not written as {normalize_edge(*e)}")
                if e not in self.host.edges:
                    raise ValueError(f"edge {e} of set {i} is not a host edge")
        if self.k < 1:
            raise ValueError("k must be positive")

    @classmethod
    def make(cls, host: Graph, edge_sets, k: int) -> "RainbowInstance":
        sets = tuple(frozenset(normalize_edge(*e) for e in es) for es in edge_sets)
        return cls(host, sets, k)

    @property
    def m(self) -> int:
        return len(self.edge_sets)

    @property
    def bipartite_flag(self) -> bool:
        return self.host.bipartition is not None

    def union_edges(self) -> frozenset[tuple[int, int]]:
        out: frozenset = frozenset()
        for es in self.edge_sets:
            out |= es
        return out


@dataclass(frozen=True)
class RainbowCertificate:
    """Pairs (edge, source index): disjoint edges from distinct sets."""

    assignment: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        edges = [e for (e, _) in self.assignment]
        Matching(frozenset(edges))
        if len(set(edges)) != len(edges):
            raise ValueError("certificate repeats an edge")
        sources = [i for (_, i) in self.assignment]
        if len(set(sources)) != len(sources):
            raise ValueError("certificate repeats a source set")

    def __len__(self):
        return len(self.assignment)


def certificate_is_valid(inst: RainbowInstance, cert: RainbowCertificate) -> bool:
    if len(cert) != inst.k:
        return False
    for (e, i) in cert.assignment:
        if not (0 <= i < inst.m) or normalize_edge(*e) not in inst.edge_sets[i]:
            return False
    return True


def _rainbow_search(set_masks, slot_vertices, k: int):
    """Exact search for k disjoint slots taken from k distinct sets.

    ``set_masks[i]`` is set i as a bitmask over the slots, and
    ``slot_vertices[b]`` is the two-vertex bitmask of slot b.  Backtracking
    over the sets in (size, index) order; each set is first skipped, then
    contributes each of its slots, ascending, whose ends are still unused.
    Returns (slot bit, set index) pairs, or None when no such choice exists;
    the absence result is exact.
    """
    order = sorted(range(len(set_masks)), key=lambda i: (set_masks[i].bit_count(), i))
    sets = [set_masks[i] for i in order]

    def rec(pos: int, used: int, acc: tuple):
        if len(acc) == k:
            return acc
        if len(acc) + (len(sets) - pos) < k:
            return None
        got = rec(pos + 1, used, acc)
        if got is not None:
            return got
        rest = sets[pos]
        while rest:
            low = rest & -rest
            rest ^= low
            ends = slot_vertices[low.bit_length() - 1]
            if not used & ends:
                got = rec(pos + 1, used | ends, acc + ((low, order[pos]),))
                if got is not None:
                    return got
        return None

    return rec(0, 0, ())


def find_rainbow_matching(inst: RainbowInstance) -> RainbowCertificate | None:
    """Exact search for a size-k rainbow matching.

    The sets become bitmasks over the host's sorted edges, so the search
    tries each set's edges in sorted order.  The absence result is exact.
    """
    slots = inst.host.sorted_edges()
    index = {e: i for i, e in enumerate(slots)}
    set_masks = [sum(1 << index[e] for e in es) for es in inst.edge_sets]
    pairs = _rainbow_search(set_masks, [1 << u | 1 << v for (u, v) in slots], inst.k)
    if pairs is None:
        return None
    cert = RainbowCertificate(tuple((slots[bit.bit_length() - 1], i) for (bit, i) in pairs))
    if not certificate_is_valid(inst, cert):
        raise InternalCheckError("search returned an invalid rainbow certificate")
    return cert


def rainbow_brute_force(inst: RainbowInstance) -> bool:
    """Independent oracle: try every choice of k sources and k edges."""
    for sources in itertools.combinations(range(inst.m), inst.k):
        pools = [sorted(inst.edge_sets[i]) for i in sources]
        for choice in itertools.product(*pools):
            vs = [v for e in choice for v in e]
            if len(set(vs)) == len(vs) and len(set(choice)) == len(choice):
                return True
    return False


def verify_hypotheses(inst: RainbowInstance) -> bool:
    """All sets non-empty and every pairwise union has matching number >= k."""
    if any(not es for es in inst.edge_sets):
        return False
    n = inst.host.vertex_count
    full = (1 << n) - 1
    adjs = [adjacency_masks(n, es) for es in inst.edge_sets]
    for i in range(inst.m):
        for j in range(i + 1, inst.m):
            union = [a | b for a, b in zip(adjs[i], adjs[j])]
            if nu_within(union, full, {}) < inst.k:
                return False
    return True


@dataclass(frozen=True)
class Verdict:
    status: str  # SATISFIED | VIOLATION
    k: int
    m: int
    certificate: RainbowCertificate | None
    details: dict

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "k": self.k,
            "m": self.m,
            "certificate": (
                [[list(e), i] for (e, i) in self.certificate.assignment]
                if self.certificate
                else None
            ),
        }
        payload.update(self.details)
        return json.dumps(payload, sort_keys=True)


def required_set_count(k: int, bipartite: bool) -> int:
    return 2 * k - 1 if bipartite else 3 * k - 2


def verify_theorem(inst: RainbowInstance) -> Verdict:
    """Check the rainbow guarantee on one instance.

    Preconditions (raising HypothesisError when unmet): enough sets for the
    host kind, and pairwise-union matching numbers at least k.  A missing
    rainbow matching under valid hypotheses is reported as a VIOLATION
    verdict; the guarantee says this never happens.
    """
    need = required_set_count(inst.k, inst.bipartite_flag)
    if inst.m < need:
        raise HypothesisError(f"need at least {need} edge sets, got {inst.m}")
    if not verify_hypotheses(inst):
        raise HypothesisError("pairwise-union matching numbers fall below k")
    cert = find_rainbow_matching(inst)
    if cert is not None:
        return Verdict("SATISFIED", inst.k, inst.m, cert, {"bipartite": inst.bipartite_flag})
    return Verdict(
        "VIOLATION",
        inst.k,
        inst.m,
        None,
        {
            "bipartite": inst.bipartite_flag,
            "hypotheses_verified": True,
            "edge_sets": [sorted(map(list, es)) for es in inst.edge_sets],
        },
    )


# ---------------------------------------------------------------------------
# The exhaustive k=2 scan and the tightness search
# ---------------------------------------------------------------------------


def k2_counterexamples(slots, host_mask: int, m: int, lo: int = 1, hi: int | None = None):
    """Every multiset of m edge sets on a host with pairwise-union matching
    number at least 2 and no rainbow 2-matching.

    Edge sets are non-empty submasks of ``host_mask`` over ``slots`` (edges),
    listed as ascending tuples E1 <= ... <= Em of ints with E1 in [lo, hi).
    A rainbow 2-matching is two disjoint edges from two distinct sets, so each
    E_(i+1) is drawn from the edges meeting every edge of E1..Ei, and it is
    kept only when nu(E_j | E_(i+1)) >= 2 for every j <= i.  Both conditions
    pass to every sub-tuple, so the pruning loses no counterexample.
    Returns (checked, counterexamples): the number of kept prefixes, full
    tuples included, and the full tuples in ascending order.
    """
    if m < 1:
        raise ValueError("m must be positive")
    slots = tuple(slots)
    if host_mask < 0 or host_mask >> len(slots):
        raise ValueError("host mask has bits outside the slots")
    nu = edge_host(GroundSet(slots)).nu
    disjoint = [host_mask & ~c for c in edge_conflicts(slots)]  # host edges off each edge
    found = []
    checked = 0

    def extend(prefix: tuple, allowed: int, floor: int, ceiling: int):
        nonlocal checked
        s = floor
        if s & ~allowed:  # step up to the least submask of allowed above floor
            s |= (1 << (s & ~allowed).bit_length()) - 1
            s = ((s | ~allowed) + 1) & allowed
        while s and s < ceiling:
            if all(nu[p | s] >= 2 for p in prefix):
                checked += 1
                if len(prefix) + 1 == m:
                    found.append(prefix + (s,))
                else:
                    rest, reach = s, 0
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        reach |= disjoint[low.bit_length() - 1]
                    extend(prefix + (s,), allowed & ~reach, s, allowed + 1)
            s = ((s | ~allowed) + 1) & allowed  # the next submask, ascending

    extend((), host_mask, max(lo, 1), host_mask + 1 if hi is None else hi)
    return checked, found


def search_tightness(k: int, bipartite: bool = True, m: int | None = None) -> RainbowInstance | None:
    """A hypothesis-satisfying instance with no rainbow matching, or None.

    ``m`` defaults to one set fewer than the guarantee needs.  At k=2 the
    witness is the first counterexample of :func:`k2_counterexamples` on the
    even cycle with 4 vertices (bipartite) or on K4 (general), and None means
    that host has none.  For larger k on bipartite hosts the search runs
    over tuples of subsets of the two alternating perfect matchings of the
    even cycle with 2k vertices.  For larger k on general hosts nothing is
    searched and the result is None.
    """
    if m is None:
        m = required_set_count(k, bipartite) - 1
    if m <= 0:
        return None
    if k == 2:
        host = _even_cycle_host(2)[0] if bipartite else Graph.complete(4)
        slots = host.sorted_edges()
        _, found = k2_counterexamples(slots, (1 << len(slots)) - 1, m)
        if not found:
            return None
        sets = (frozenset(e for b, e in enumerate(slots) if mask >> b & 1) for mask in found[0])
        return RainbowInstance(host, tuple(sets), k)
    if not bipartite:
        return None
    host, pm1, pm2 = _even_cycle_host(k)
    candidates = [frozenset(c) for base in (pm1, pm2)
                  for r in range(1, len(base) + 1) for c in itertools.combinations(sorted(base), r)]
    for combo in itertools.product(candidates, repeat=m):
        inst = RainbowInstance(host, tuple(combo), k)
        if verify_hypotheses(inst) and find_rainbow_matching(inst) is None:
            return inst
    return None


def is_tightness_witness(inst: RainbowInstance) -> bool:
    """The instance meets the hypotheses and has no rainbow matching, by the
    search and by the brute-force oracle both."""
    return (verify_hypotheses(inst)
            and find_rainbow_matching(inst) is None
            and not rainbow_brute_force(inst))


def _even_cycle_host(k: int) -> tuple[Graph, frozenset, frozenset]:
    """The cycle with 2k vertices, classes 0..k-1 and k..2k-1, plus its two
    alternating perfect matchings."""
    n = 2 * k
    pm1 = frozenset(normalize_edge(i, k + i) for i in range(k))
    pm2 = frozenset(normalize_edge(k + i, (i + 1) % k) for i in range(k))
    host = Graph.from_edges(n, pm1 | pm2, (range(k), range(k, n)))
    return host, pm1, pm2


# ---------------------------------------------------------------------------
# Labelled complex and the Helly-type conclusion
# ---------------------------------------------------------------------------


def labelled_ground(inst: RainbowInstance) -> GroundSet:
    elements = []
    for i, es in enumerate(inst.edge_sets):
        for e in sorted(es):
            elements.append((e, i))
    return GroundSet(tuple(elements))


def labelled_nm_complex(inst: RainbowInstance, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """Complex of labelled edge subsets whose label-erased image has nu < k.

    Labelled copies of one edge under different labels are distinct ground
    elements, walked as parallel copies of that edge, so a face's nu is that
    of its erased image.  More than 63 labelled edges or ``cap`` faces raise
    :class:`CapExceededError`, as in :func:`complexes.build_nm_complex`.
    """
    ground = labelled_ground(inst)
    return _nm_complex(ground, [e for (e, _) in ground.elements], inst.k, cap)


def partition_rank(inst: RainbowInstance, labelled_subset) -> int:
    """Rank in the partition matroid on labels: how many labels are touched."""
    return len({i for (_, i) in labelled_subset})


@dataclass(frozen=True)
class HellyReport:
    satisfied: bool
    d: int
    face: tuple | None
    residual_rank: int | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "satisfied": self.satisfied,
                "d": self.d,
                "face": [[list(e), i] for (e, i) in self.face] if self.face else None,
                "residual_rank": self.residual_rank,
            },
            sort_keys=True,
        )


def verify_topological_helly_conclusion(inst: RainbowInstance, d: int) -> HellyReport:
    """Confirm, exhaustively, the Helly-type conclusion on one instance.

    Preconditions: the label-partition matroid has full rank at least d+2 and
    is a subcomplex of the labelled complex (equivalently, no rainbow
    matching of size k exists).  The conclusion asserts a face whose removal
    leaves partition rank at most d; the scan here confirms it empirically.
    """
    if inst.m < d + 2:
        raise HypothesisError(f"partition rank {inst.m} is below d+2={d + 2}")
    if find_rainbow_matching(inst) is not None:
        raise HypothesisError("a rainbow matching exists; the matroid is not a subcomplex")
    cx = labelled_nm_complex(inst)
    full = (1 << len(cx.ground)) - 1
    for m in sorted(cx.faces_from(0).tolist()):
        rank_left = partition_rank(inst, cx.ground.decode(full & ~m))
        if rank_left <= d:
            return HellyReport(True, d, cx.ground.decode(m), rank_left)
    return HellyReport(False, d, None, None)


# ---------------------------------------------------------------------------
# Instance file format
# ---------------------------------------------------------------------------


_SET_LINE = re.compile(r"set\s+(\d+)\s*:(.*)", re.IGNORECASE)
_K_LINE = re.compile(r"k\s*=\s*(\S+)", re.IGNORECASE)


def _parse_set(line: str, rest: str) -> frozenset:
    """The edges "u1 v1, u2 v2, ..." after the colon of the set line ``line``."""
    if not rest.strip():
        raise FormatError(f"empty set line {line!r}")
    edges = []
    for tok in rest.split(","):
        try:
            edges.append(normalize_edge(*map(int, tok.split())))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad edge {tok.strip()!r} in line {line!r}") from exc
    return frozenset(edges)


def parse_instance(text: str, k: int | None = None) -> RainbowInstance:
    """Host edge-list header, then one "SET i: u1 v1, u2 v2, ..." line per set.

    Sets are numbered 0, 1, 2, ... in file order.  An optional "k = <int>"
    line may follow the host block; an explicit ``k`` argument overrides it.
    Every other line belongs to the host block (see
    :func:`nonmatching.graphs.parse_graph`), so a malformed line raises a
    FormatError that names it.
    """
    host_lines = []
    sets = []
    k_line = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _K_LINE.fullmatch(line):
            if k_line is not None:
                raise FormatError(f"second k line {line!r}")
            try:
                k_line = int(m[1])
            except ValueError as exc:
                raise FormatError(f"bad k line {line!r}") from exc
        elif m := _SET_LINE.fullmatch(line):
            if int(m[1]) != len(sets):
                raise FormatError(f"set line {line!r} out of order: expected SET {len(sets)}")
            sets.append(_parse_set(line, m[2]))
        else:
            host_lines.append(line)
    host = parse_graph("\n".join(host_lines))
    kk = k if k is not None else k_line
    if kk is None:
        raise FormatError("no k given (neither in the file nor as an argument)")
    try:
        return RainbowInstance(host, tuple(sets), kk)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

