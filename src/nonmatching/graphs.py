"""Labelled simple graphs, matchings, and Gallai-Edmonds structure.

Vertices are the integers 0..n-1.  Edges are unordered pairs, normalised to
``(u, v)`` with ``u < v``.  A :class:`Graph` is immutable; every operation
returns a new object, so graphs can be shared freely across workers.

For the exhaustive sweeps the package works with *edge bitmasks*: a host
graph fixes a lexicographically ordered list of edge slots and a subgraph is
the integer whose set bits select slots.  :func:`subset_matching_numbers`
tabulates the matching number of every subgraph of a host in one pass, which
is what makes decompositions of tens of thousands of subgraphs cheap.  Its
recurrence, the NM walk and the rainbow scan read one edge-conflict table,
:func:`edge_conflicts`.

The matching number of a single graph comes from one search over *vertex*
bitmasks, :func:`nu_within`: per-vertex neighbour masks, a memo keyed by
the set of vertices still available, and branches cut by the bound
nu <= |vertices| / 2, which keeps the value exact.  :func:`matching_number`,
:func:`maximum_matching`, :func:`gallai_edmonds` and the rainbow hypothesis
check all call it.

:func:`gallai_edmonds` computes the decomposition straight from its
definition; it is the oracle for the mask-level decomposer the Morse
builders use (:meth:`nonmatching.complexes.EdgeHost.decompose_masks`, whose
parts are vertex masks).
Whether a decomposition has the structural properties is checked for a
whole chunk of graphs in one array pass, by
:func:`nonmatching.sweeps.ge_violations`: about 4 ms for 2,048 subgraphs of
K6, and 0.19-0.26 s for the gallai-edmonds suite's 33,868 graphs with their
decompositions and oracles, against 0.47-0.73 s when each graph was checked
alone (CPython 3.11.7, numpy 2.4, one core of a 2-core container).

Symmetry has one path.  :func:`relabelings` lists the vertex relabelings
(all of them, or those keeping or swapping two classes).  Their action on
edge masks is one table per (slots, relabelings): row p, column i holds
``1 << j`` for the slot j that relabeling p sends slot i to, so the images
of a mask under the whole group are one OR-reduction of the columns of its
set bits, with no loop over relabelings in Python.
:func:`orbit_representatives` keeps the first mask of each orbit met in any
iterable of masks, and :func:`canonical_form` takes the least image, from a
table memoised per (n, classes).  :func:`graph_isomorphism_classes` and
:func:`bipartite_subgraph_classes` build on these.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, FormatError, InternalCheckError

DEFAULT_SUBSET_CAP = 1 << 22
DEFAULT_FACE_CAP = 1 << 20
DEFAULT_CANONICAL_VERTEX_CAP = 8
DEFAULT_ENUMERATION_EDGE_CAP = 30


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not a valid edge")
    return (u, v) if u < v else (v, u)


def complete_edge_list(n: int) -> list[tuple[int, int]]:
    """Edges of the complete graph on 0..n-1 in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def bipartite_edge_list(x_side, y_side) -> list[tuple[int, int]]:
    """Edges of the complete bipartite graph between two disjoint vertex sets."""
    return sorted(normalize_edge(x, y) for x in x_side for y in y_side)


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 0..vertex_count-1.

    ``bipartition``, when present, is a pair of disjoint vertex sets covering
    all vertices; every edge must then cross between the two classes.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        for (u, v) in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge {(u, v)} out of range for {n} vertices")
        if self.bipartition is not None:
            x, y = self.bipartition
            if x & y:
                raise ValueError("bipartition classes overlap")
            if x | y != frozenset(range(n)):
                raise ValueError("bipartition must cover all vertices")
            for (u, v) in self.edges:
                if (u in x) == (v in x):
                    raise ValueError(f"edge {(u, v)} does not cross the bipartition")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges, bipartition=None) -> "Graph":
        es = frozenset(normalize_edge(u, v) for (u, v) in edges)
        bp = None
        if bipartition is not None:
            bp = (frozenset(bipartition[0]), frozenset(bipartition[1]))
        return cls(n, es, bp)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, complete_edge_list(n))

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        x = range(a)
        y = range(a, a + b)
        return cls.from_edges(a + b, [(u, v) for u in x for v in y], (x, y))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    # -- basic queries -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u if w == v else w for (u, w) in self.edges if v in (u, w))

    def neighborhood(self, vertices) -> frozenset[int]:
        """Vertices outside ``vertices`` adjacent to at least one of them."""
        vs = frozenset(vertices)
        out = set()
        for (u, v) in self.edges:
            if u in vs and v not in vs:
                out.add(v)
            elif v in vs and u not in vs:
                out.add(u)
        return frozenset(out)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    # -- derived graphs ----------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        e = normalize_edge(u, v)
        if e in self.edges:
            return self
        return Graph(self.vertex_count, self.edges | {e}, self.bipartition)

    def remove_edge(self, u: int, v: int) -> "Graph":
        e = normalize_edge(u, v)
        if e not in self.edges:
            return self
        return Graph(self.vertex_count, self.edges - {e}, self.bipartition)

    def induced(self, vertices) -> "Graph":
        """Keep only edges with both endpoints in ``vertices`` (labels unchanged)."""
        vs = frozenset(vertices)
        es = frozenset(e for e in self.edges if e[0] in vs and e[1] in vs)
        return Graph(self.vertex_count, es, self.bipartition)

    def induced_bipartite(self, side_a, side_b) -> "Graph":
        """Keep only edges with one endpoint in each of two disjoint vertex sets."""
        sa, sb = frozenset(side_a), frozenset(side_b)
        if sa & sb:
            raise ValueError("sides must be disjoint")
        es = frozenset(
            e for e in self.edges
            if (e[0] in sa and e[1] in sb) or (e[0] in sb and e[1] in sa)
        )
        return Graph(self.vertex_count, es, self.bipartition)

    def delete_vertex(self, v: int) -> "Graph":
        """Drop all edges at ``v``;  the label stays as an isolated vertex."""
        es = frozenset(e for e in self.edges if v not in e)
        return Graph(self.vertex_count, es, self.bipartition)

    def subdivide_edge(self, u: int, v: int) -> "Graph":
        """Replace edge uv by a path u - w - v through a fresh vertex w."""
        e = normalize_edge(u, v)
        if e not in self.edges:
            raise ValueError(f"{e} is not an edge")
        w = self.vertex_count
        es = (self.edges - {e}) | {normalize_edge(u, w), normalize_edge(v, w)}
        return Graph(self.vertex_count + 1, es, None)


def subdivided_complete_graph(n: int) -> Graph:
    """K_n with the edge (0, 1) subdivided through a new vertex n."""
    return Graph.complete(n).subdivide_edge(0, 1)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen = set()
        for (u, v) in self.edges:
            if u in seen or v in seen or u == v:
                raise ValueError("edges of a matching must be pairwise disjoint")
            seen.add(u)
            seen.add(v)

    def __len__(self):
        return len(self.edges)

    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


# ---------------------------------------------------------------------------
# Matching number
# ---------------------------------------------------------------------------


def adjacency_masks(n: int, edges) -> list[int]:
    """Per-vertex neighbour bitmasks of the graph with these edges on 0..n-1."""
    adj = [0] * n
    for (u, v) in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _vertex_mask(g: Graph, support) -> int:
    if support is None:
        return (1 << g.vertex_count) - 1
    vs = frozenset(support)
    if not vs <= frozenset(range(g.vertex_count)):
        raise ValueError("support must be a subset of the vertex set")
    return sum(1 << v for v in vs)


def nu_within(adj: list[int], avail: int, memo: dict[int, int]) -> int:
    """Matching number of the graph that ``adj`` induces on the vertex mask
    ``avail``: the one search behind every per-graph nu in the package.

    The least vertex v with a neighbour left is matched to each of its
    neighbours u in turn; vertices below v with no neighbour left are dropped
    from the rest r (which excludes v).  Leaving v unmatched is never needed:
    if a maximum matching missed v, trading the edge at a neighbour u for vu
    would give one that covers v.  Since nu never exceeds half the
    vertices, the search stops as soon as one branch reaches ceil(|r|/2), so
    the value stays exact.  ``memo`` maps a vertex mask to its nu and may be
    shared by every call on the same ``adj``.
    """
    got = memo.get(avail)
    if got is not None:
        return got
    rest = avail
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        nb = adj[v] & avail
        if nb:
            break
    else:
        memo[avail] = 0
        return 0
    top = (rest.bit_count() + 1) >> 1
    best = 0
    while nb:
        u = nb & -nb
        nb ^= u
        got = 1 + nu_within(adj, rest ^ u, memo)
        if got > best:
            best = got
            if best == top:
                break
    memo[avail] = best
    return best


def matching_number(g: Graph, support=None) -> int:
    """Maximum number of pairwise disjoint edges (within ``support`` if given).

    Exact: one call of the bound-pruned, memoised search :func:`nu_within`
    on the graph's adjacency masks; no caps because every caller is desk
    scale by construction.
    """
    avail = _vertex_mask(g, support)
    return nu_within(adjacency_masks(g.vertex_count, g.edges), avail, {})


def maximum_matching(g: Graph, support=None) -> Matching:
    """One maximum matching, as a certificate for :func:`matching_number`."""
    adj = adjacency_masks(g.vertex_count, g.edges)
    avail = _vertex_mask(g, support)
    memo: dict[int, int] = {}
    need = nu_within(adj, avail, memo)
    edges = g.sorted_edges()
    chosen: list[tuple[int, int]] = []
    while need > 0:
        # the first edge vu within reach whose rest still has nu = need - 1
        pick = next(
            (
                (v, u)
                for (v, u) in edges
                if avail >> v & avail >> u & 1
                and 1 + nu_within(adj, avail & ~(1 << v | 1 << u), memo) == need
            ),
            None,
        )
        if pick is None:  # would contradict the matching number
            raise InternalCheckError("failed to extract a maximum matching certificate")
        chosen.append(pick)
        avail &= ~(1 << pick[0] | 1 << pick[1])
        need -= 1
    return Matching(frozenset(chosen))


def maximum_matchings(g: Graph, edge_cap: int = DEFAULT_ENUMERATION_EDGE_CAP) -> list[Matching]:
    """All maximum matchings, by exhaustive search over the edge list."""
    if g.edge_count > edge_cap:
        raise CapExceededError(
            f"{g.edge_count} edges exceeds the enumeration cap {edge_cap}"
        )
    edges = g.sorted_edges()
    nu = matching_number(g)
    out: list[Matching] = []

    def rec(i: int, used: frozenset[int], acc: tuple):
        if len(acc) + (len(edges) - i) < nu:
            return
        if i == len(edges):
            if len(acc) == nu:
                out.append(Matching(frozenset(acc)))
            return
        rec(i + 1, used, acc)
        (u, v) = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, acc + ((u, v),))

    rec(0, frozenset(), ())
    if nu == 0:
        return [Matching(frozenset())]
    return out


# ---------------------------------------------------------------------------
# Perfect matchings and factor criticality
# ---------------------------------------------------------------------------


def has_perfect_matching(g: Graph, support) -> bool:
    """True iff some matching of g covers every vertex of ``support``.

    The empty support is vacuously coverable.
    """
    sup = frozenset(support)
    if not sup:
        return True
    if len(sup) % 2:
        return False
    return 2 * matching_number(g, sup) == len(sup)


def is_factor_critical(g: Graph, support) -> bool:
    """True iff deleting any single vertex of ``support`` leaves a perfectly
    matchable graph on the rest.  A single vertex with no edges qualifies."""
    sup = frozenset(support)
    return all(has_perfect_matching(g, sup - {v}) for v in sup)


def _covers_side(g: Graph, x_side, y_side) -> bool:
    """Does g[x_side, y_side] have a matching covering y_side?"""
    ys = frozenset(y_side)
    if not ys:
        return True
    h = g.induced_bipartite(x_side, ys)
    return matching_number(h, frozenset(x_side) | ys) == len(ys)


def is_y_factor_critical(g: Graph, x_side, y_side) -> bool:
    """Covered-side factor criticality for a bipartite graph.

    True iff for every vertex x of ``x_side`` the graph minus x still has a
    matching covering ``y_side``.  Evaluated twice, by the deletion definition
    and by the Hall surplus criterion |N(Y')| > |Y'| for all non-empty
    Y' of ``y_side``; the two must agree or the implementation is broken.
    The empty ``y_side`` qualifies vacuously.
    """
    xs, ys = frozenset(x_side), frozenset(y_side)
    if xs & ys:
        raise ValueError("sides must be disjoint")
    for e in g.induced(xs | ys).edges:
        if (e[0] in xs) == (e[1] in xs):
            raise ValueError(f"edge {e} does not cross the given sides")

    by_deletion = all(_covers_side(g.delete_vertex(x), xs - {x}, ys) for x in xs)
    if not xs and ys:
        # no vertex to delete: the literal quantifier is vacuous, but an
        # empty side cannot cover a non-empty one (|X| > |Y| is necessary)
        by_deletion = False

    h = g.induced_bipartite(xs, ys)
    by_hall = True
    ylist = sorted(ys)
    for r in range(1, len(ylist) + 1):
        for sub in itertools.combinations(ylist, r):
            if len(h.neighborhood(sub) & xs) <= r:
                by_hall = False
                break
        if not by_hall:
            break
    if not ys:
        by_hall = True

    if by_deletion != by_hall:
        raise InternalCheckError(
            "deletion-based and Hall-surplus criteria disagree on "
            f"x={sorted(xs)} y={sorted(ys)} edges={sorted(h.edges)}"
        )
    return by_deletion


def is_yz_factor_critical(g: Graph, x_side, y_side, z_subset) -> bool:
    """Two-level bipartite factor criticality.

    True iff g is ``y_side``-factor critical and the induced subgraph between
    ``z_subset`` and ``y_side`` is ``z_subset``-factor critical.  Empty
    ``z_subset`` reduces to plain ``y_side``-factor criticality.
    """
    zs = frozenset(z_subset)
    if not zs <= frozenset(x_side):
        raise ValueError("z_subset must be contained in x_side")
    if not is_y_factor_critical(g, x_side, y_side):
        return False
    return is_y_factor_critical(g.induced_bipartite(zs, y_side), y_side, zs)


# ---------------------------------------------------------------------------
# Gallai-Edmonds decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GallaiEdmondsDecomposition:
    """The canonical vertex partition (D_1, ..., D_r; A; C).

    ``components`` lists the connected components of the induced graph on the
    set D of vertices missed by some maximum matching, ordered by smallest
    vertex label; ``a_set`` is the neighbourhood of D; ``c_set`` the rest.
    """

    components: tuple[frozenset[int], ...]
    a_set: frozenset[int]
    c_set: frozenset[int]

    @property
    def d_set(self) -> frozenset[int]:
        return frozenset(v for comp in self.components for v in comp)

    @property
    def component_count(self) -> int:
        return len(self.components)


def _components_within(g: Graph, vertices) -> tuple[frozenset[int], ...]:
    vs = set(vertices)
    comps = []
    while vs:
        start = min(vs)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in vs and w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
        vs -= comp
    comps.sort(key=min)
    return tuple(comps)


def gallai_edmonds(g: Graph) -> GallaiEdmondsDecomposition:
    """Compute the decomposition straight from the definition.

    D is the set of vertices whose deletion does not drop the matching
    number; that needs one matching-number call per vertex, which desk scale
    affords and which keeps the code oracle-checkable.
    """
    n = g.vertex_count
    adj = adjacency_masks(n, g.edges)
    full = (1 << n) - 1
    memo: dict[int, int] = {}
    nu = nu_within(adj, full, memo)
    d = frozenset(v for v in range(n) if nu_within(adj, full & ~(1 << v), memo) == nu)
    a = g.neighborhood(d)
    c = frozenset(range(n)) - d - a
    return GallaiEdmondsDecomposition(_components_within(g, d), a, c)


# ---------------------------------------------------------------------------
# Canonical forms and enumeration
# ---------------------------------------------------------------------------


def edge_slot_table(n: int) -> dict[tuple[int, int], int]:
    return {e: i for i, e in enumerate(complete_edge_list(n))}


def graph_to_mask(g: Graph) -> int:
    slots = edge_slot_table(g.vertex_count)
    mask = 0
    for e in g.edges:
        mask |= 1 << slots[e]
    return mask


def mask_to_graph(n: int, mask: int, bipartition=None) -> Graph:
    slots = complete_edge_list(n)
    edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
    return Graph.from_edges(n, edges, bipartition)


def relabelings(n: int, classes) -> list[tuple[int, ...]]:
    """Vertex relabelings of 0..n-1, each a tuple p sending v to p[v].

    With ``classes`` None, every permutation.  With classes (X, Y) partitioning
    0..n-1, the maps sending X onto 0..|X|-1 and Y onto the rest, plus, when
    |X| = |Y|, the maps sending Y onto 0..|Y|-1 and X onto the rest.
    """
    if classes is None:
        return list(itertools.permutations(range(n)))
    x, y = sorted(classes[0]), sorted(classes[1])
    sides = [(x, y), (y, x)] if len(x) == len(y) else [(x, y)]
    out = []
    for first, second in sides:
        order = first + second
        for head in itertools.permutations(range(len(first))):
            for tail in itertools.permutations(range(len(first), n)):
                perm = [0] * n
                for v, label in zip(order, head + tail):
                    perm[v] = label
                out.append(tuple(perm))
    return out


def _slot_images(slots, perms) -> np.ndarray:
    """The relabelings' action on edge masks over ``slots``, as one table.

    Row p, column i holds ``1 << j`` for the slot j that relabeling
    ``perms[p]`` sends slot i to, so the images of a mask under every
    relabeling are the OR of the columns of its set bits.  The table is
    ``uint64``, so more than 64 slots raise :class:`CapExceededError`.
    """
    if len(slots) > 64:
        raise CapExceededError(f"{len(slots)} slots exceeds the 64 bits of a slot mask")
    labels = np.array(perms, dtype=np.intp).reshape(len(perms), -1)
    n = labels.shape[1]
    index = np.full((n, n), -1, dtype=np.int64)
    for i, (u, v) in enumerate(slots):
        index[u, v] = index[v, u] = i
    ends = np.array(slots, dtype=np.intp).reshape(len(slots), 2)
    images = index[labels[:, ends[:, 0]], labels[:, ends[:, 1]]]
    if (images < 0).any():
        raise ValueError("a relabeling sends a slot edge outside the slots")
    return np.left_shift(np.ones_like(images, dtype=np.uint64), images.astype(np.uint64))


def _orbit(table: np.ndarray, mask: int) -> np.ndarray:
    """The images of ``mask`` under every row of a :func:`_slot_images` table."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return np.bitwise_or.reduce(table[:, bits], axis=1)


@functools.lru_cache(maxsize=16)
def _canonical_table(n: int, classes) -> np.ndarray:
    """The :func:`_slot_images` table of K_n's slots under the relabelings of
    ``classes``, built once per (n, classes) and read-only, since every
    caller shares it.  Exhaustive over relabelings, hence the vertex cap."""
    if n > DEFAULT_CANONICAL_VERTEX_CAP:
        raise CapExceededError(
            f"{n} vertices exceeds the canonical-form cap {DEFAULT_CANONICAL_VERTEX_CAP}"
        )
    table = _slot_images(complete_edge_list(n), relabelings(n, classes))
    table.flags.writeable = False
    return table


def canonical_form(g: Graph):
    """Minimum edge-bitmask over all vertex relabelings.

    Isomorphic graphs map to identical encodings.  When a bipartition is
    present only the relabelings of :func:`relabelings` with those classes
    are considered, and the class sizes are part of the encoding.
    Exhaustive over permutations, hence the vertex cap.
    """
    n = g.vertex_count
    sizes = None if g.bipartition is None else tuple(len(c) for c in g.bipartition)
    images = _orbit(_canonical_table(n, g.bipartition), graph_to_mask(g))
    return (n, sizes, int(images.min()))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The vertex relabelings that map the edges of g onto themselves.

    Each relabeling of :func:`relabelings` is tried at once, as one row of
    an array: it is kept when it sends every edge of g to an edge of g.
    With a bipartition laid out as :func:`parse_graph` gives it
    (X = 0..|X|-1), only the relabelings keeping or swapping the sides are
    tried, a subgroup of Aut(g); with any other bipartition, or none, every
    permutation is.  Either way the result is a group that contains the
    identity.  Exhaustive over relabelings, hence the vertex cap.
    """
    n = g.vertex_count
    if n > DEFAULT_CANONICAL_VERTEX_CAP:
        raise CapExceededError(
            f"{n} vertices exceeds the canonical-form cap {DEFAULT_CANONICAL_VERTEX_CAP}"
        )
    classes = g.bipartition
    if classes is not None and classes[0] != frozenset(range(len(classes[0]))):
        classes = None
    adjacent = np.zeros((n, n), dtype=bool)
    ends = np.array(g.sorted_edges(), dtype=np.intp).reshape(-1, 2)
    adjacent[ends[:, 0], ends[:, 1]] = adjacent[ends[:, 1], ends[:, 0]] = True
    labels = relabelings(n, classes)
    perms = np.array(labels, dtype=np.uint8).reshape(len(labels), n)
    kept = adjacent[perms[:, ends[:, 0]], perms[:, ends[:, 1]]].all(axis=1)
    return list(map(tuple, perms[kept].tolist()))


def orbit_partition(slots, perms, masks) -> tuple[list[int], dict[int, int]]:
    """The first mask of each orbit that ``masks`` meets, in the order met,
    and a map from every mask of those orbits to its orbit's first mask.

    A mask selects edges of ``slots``; ``perms`` are vertex relabelings that
    map the slot edges onto themselves and must form a group, so the images
    of a mask under them are its whole orbit.  Two signs that they do not
    raise ``InternalCheckError``: a first mask missing from its own images,
    and an image already met in an earlier orbit.  ``masks`` may be any
    iterable; each mask costs one dict lookup, each orbit one OR-reduction.
    """
    table = _slot_images(slots, perms)
    owner: dict[int, int] = {}
    reps = []
    for mask in masks:
        if mask in owner:
            continue
        images = dict.fromkeys(_orbit(table, mask).tolist(), mask)
        met = len(owner)
        owner.update(images)
        if len(owner) != met + len(images):
            raise InternalCheckError(
                f"the orbit of {_edges_of(slots, mask)} meets an earlier orbit: "
                "the relabelings are not a group"
            )
        if owner.get(mask) != mask:
            raise InternalCheckError(f"{_edges_of(slots, mask)} is not in its own orbit")
        reps.append(mask)
    return reps, owner


def orbit_representatives(slots, perms, masks) -> list[int]:
    """The first mask of each orbit that ``masks`` meets, in the order met
    (:func:`orbit_partition`)."""
    return orbit_partition(slots, perms, masks)[0]


def _edges_of(slots, mask: int) -> list:
    return [slots[i] for i in range(mask.bit_length()) if mask >> i & 1]


def _subgraph_classes(slots, n: int, classes) -> list[int]:
    """Orbit representatives of every edge mask over ``slots`` under the
    relabelings of ``classes``, as a new list; refused before any
    enumeration when the 2^|slots| masks exceed the subset cap."""
    if (1 << len(slots)) > DEFAULT_SUBSET_CAP:
        raise CapExceededError(
            f"2^{len(slots)} subgraphs exceeds the enumeration cap {DEFAULT_SUBSET_CAP}"
        )
    return list(_subgraph_class_masks(tuple(slots), n, classes))


@functools.lru_cache(maxsize=None)
def _subgraph_class_masks(slots: tuple, n: int, classes) -> tuple[int, ...]:
    """:func:`_subgraph_classes`, computed once per (slots, n, classes)."""
    return tuple(orbit_representatives(slots, relabelings(n, classes), range(1 << len(slots))))


def graph_isomorphism_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices:
    the smallest edge bitmask of its class."""
    return [mask_to_graph(n, m) for m in _subgraph_classes(complete_edge_list(n), n, None)]


def bipartite_subgraph_classes(a: int, b: int) -> list[Graph]:
    """Representatives of subgraphs of the complete bipartite graph, up to
    relabelings preserving (or swapping, when a == b) the two classes."""
    host = Graph.complete_bipartite(a, b)
    slots = host.sorted_edges()
    reps = _subgraph_classes(slots, a + b, host.bipartition)
    return [Graph.from_edges(a + b, [slots[i] for i in range(len(slots)) if m >> i & 1],
                             host.bipartition) for m in reps]


# ---------------------------------------------------------------------------
# All-subsets matching number table
# ---------------------------------------------------------------------------


def edge_conflicts(edges) -> list[int]:
    """Per edge of a list, the mask of the edges sharing an end with it, the
    edge itself and any parallel copy of it included."""
    at: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        at[u] = at.get(u, 0) | 1 << i
        at[v] = at.get(v, 0) | 1 << i
    return [at[u] | at[v] for u, v in edges]


def subset_matching_numbers(
    edges: list[tuple[int, int]], cap: int = DEFAULT_SUBSET_CAP
) -> np.ndarray:
    """nu of every edge subset of a host, as a uint8 array indexed by bitmask.

    Recurrence on the lowest set bit b of the mask: either drop that edge, or
    take it and drop everything sharing an endpoint with it.  Both referenced
    masks are strictly smaller, so one pass in increasing order suffices;
    the inner work is vectorised per choice of lowest bit.
    """
    m = len(edges)
    if (1 << m) > cap:
        raise CapExceededError(f"2^{m} subsets exceeds the enumeration cap {cap}")
    conflict = np.array(edge_conflicts(edges), dtype=np.int64)
    nu = np.zeros(1 << m, dtype=np.uint8)
    # masks with lowest set bit b reference masks whose lowest bit is larger,
    # so sweep b from high to low
    for b in range(m - 1, -1, -1):
        hi = np.arange(1 << (m - b - 1), dtype=np.int64) << (b + 1)
        masks = hi | (1 << b)
        skip = nu[hi]
        take = nu[masks & ~conflict[b]] + 1
        nu[masks] = np.maximum(skip, take)
    return nu


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    First meaningful line: either ``n`` or ``n = |X| |Y|`` (bipartite, X is
    0..|X|-1 and Y the rest).  Every further line is an edge ``u v`` with
    0-based labels.  Blank lines and ``#`` comments are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0]
    bipartition = None
    if "=" in head:
        left, _, right = head.partition("=")
        try:
            n = int(left.strip())
            a, b = (int(t) for t in right.split())
        except ValueError as exc:
            raise FormatError(f"bad header {head!r}") from exc
        if a + b != n:
            raise FormatError(f"bipartition sizes {a}+{b} do not sum to {n}")
        bipartition = (range(a), range(a, n))
    else:
        try:
            n = int(head)
        except ValueError as exc:
            raise FormatError(f"bad header {head!r}") from exc
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {line!r}") from exc
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges, bipartition)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_graph(g: Graph) -> str:
    head = str(g.vertex_count)
    if g.bipartition is not None:
        x, y = g.bipartition
        # the text format can only express prefix-shaped classes
        if x == frozenset(range(len(x))):
            head = f"{g.vertex_count} = {len(x)} {len(y)}"
    body = "\n".join(f"{u} {v}" for (u, v) in g.sorted_edges())
    return head + ("\n" + body if body else "") + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
