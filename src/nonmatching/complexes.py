"""Simplicial complexes over edge ground sets, and the special graph families.

A complex is stored as its faces by size (:attr:`SimplicialComplex.levels`):
entry s is the sorted int64 array of the faces of size s, each a bitmask
over the positions of an ordered :class:`GroundSet` of at most 63
elements.  Ground-set order is fixed for the lifetime of a complex: it is
the orientation convention every boundary matrix uses.  The levels are the
one face layout: the rank engine, the link checks and the dimension counts
read them; membership is a ``searchsorted`` whose hit is compared, and
heredity is checked on them.  The faces between a base face and a superset
of it are one level filter, :func:`_faces_above`, one subset filter per
level; a link, an induced subcomplex, a link check and a Morse link family
are each that cut.

Every non-matching complex, the labelled one of
:func:`nonmatching.rainbow.labelled_nm_complex` included, comes from the
level walk :func:`_nm_faces` with nu memoised per face, which produces the
levels directly; it is the only face walk.  The two link families of the
Morse builders, nu below k above h, are the faces above h in NM_k of their
host, cut from its levels.  The other special graph families (PM, FC, BFC)
are closed upward, so they are filters over the submasks above h.  All
five work on the edge masks of a shared :class:`EdgeHost` and take their
vertex sets as vertex masks, for the Morse builders and
:func:`enumerate_family`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InternalCheckError
from .graphs import (
    DEFAULT_FACE_CAP,
    DEFAULT_SUBSET_CAP,
    Graph,
    bipartite_edge_list,
    edge_conflicts,
    is_factor_critical,
    normalize_edge,
    subset_matching_numbers,
)


@dataclass(frozen=True)
class GroundSet:
    """Ordered list of distinct ground elements (edges, labelled edges, ...)."""

    elements: tuple

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground elements must be distinct")

    def __len__(self):
        return len(self.elements)

    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def mask_of(self, subset) -> int:
        idx = self.index()
        mask = 0
        for e in subset:
            if e not in idx:
                raise ValueError(f"{e!r} is not a ground element")
            mask |= 1 << idx[e]
        return mask

    def decode(self, mask: int) -> tuple:
        return tuple(self.elements[i] for i in range(len(self.elements)) if mask >> i & 1)


def mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_bits(vs) -> int:
    """A set of (non-negative integer) vertices as a vertex bitmask."""
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def submasks(mask: int) -> list[int]:
    """Every submask of a bitmask, the empty one included, in ascending order."""
    out = [0]
    s = 0
    while s != mask:
        s = (s - mask) & mask
        out.append(s)
    return out


class EdgeHost:
    """One host graph over an edge ground: its nu table and bit bookkeeping.

    Position i of an edge mask is the edge ``ground.elements[i]``; bit v of a
    vertex mask is the vertex v.  Every vertex set the host takes or gives
    is a vertex mask: the edge sets it spans come from the per-vertex edge
    bits, and the decomposition's parts are vertex masks.  Hosts are shared
    through :func:`edge_host`, so the nu table is read-only.  ``memo`` holds
    the Morse builders' sub-solves on the host, so they live and die with it.
    """

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self.index = ground.index()
        self.edges = ground.elements
        # the nu table as bytes: immutable, and indexed straight to Python ints
        self.nu = subset_matching_numbers(list(self.edges)).tobytes()
        self.nu_array = np.frombuffer(self.nu, np.uint8)  # the same table, read-only
        self.bits_at: dict[int, int] = {}
        # per vertex: (edge bit, neighbour's vertex bit) for each incident edge
        self.star: dict[int, tuple[tuple[int, int], ...]] = {}
        for i, (u, v) in enumerate(self.edges):
            for a, b in ((u, v), (v, u)):
                self.bits_at[a] = self.bits_at.get(a, 0) | (1 << i)
                self.star[a] = self.star.get(a, ()) + ((1 << i, 1 << b),)
        self._all_vertices = sum(1 << v for v in self.bits_at)
        # sub-solves of the Morse builders on this host, by their mask
        # arguments, and the levels of NM_k of the host under ("nm", k)
        self.memo: dict = {}

    def mask_of(self, edges) -> int:
        m = 0
        for e in edges:
            i = self.index.get(normalize_edge(*e))
            if i is None:
                raise ValueError(f"{e!r} is not a host edge")
            m |= 1 << i
        return m

    def bits_touching(self, vmask: int) -> int:
        """The edges with at least one end in the vertex mask."""
        bits_at = self.bits_at
        out = 0
        for v in mask_bits(vmask):
            out |= bits_at.get(v, 0)
        return out

    def bits_within(self, vmask: int) -> int:
        """The edges with both ends in the vertex mask."""
        return self.bits_touching(vmask) & ~self.bits_touching(self._all_vertices & ~vmask)

    def bits_between(self, a: int, b: int) -> int:
        """The edges with one end in the vertex mask ``a`` and the other in
        ``b`` (the two may overlap)."""
        return self.bits_touching(a) & self.bits_touching(b) & self.bits_within(a | b)

    def neighbor_bits(self, mask: int, v: int) -> int:
        """Neighbours of ``v`` in the graph ``mask``, as a vertex bitmask."""
        out = 0
        for edge, other in self.star.get(v, ()):
            if mask & edge:
                out |= other
        return out

    def decompose_masks(self, mask: int, vmask: int):
        """Gallai-Edmonds data (nu, D, A, C, components) of the graph ``mask``
        on the vertices of ``vmask``, each part a vertex mask.

        D holds the vertices whose deletion keeps the matching number, A the
        vertices outside D adjacent to it, C the rest; the components of D
        are ordered by their least vertex.  D comes from the nu table, A from
        D's neighbour masks, the components from a search over them.
        """
        nu_table, bits_at, star = self.nu, self.bits_at, self.star
        nu = nu_table[mask]
        d = reach = 0
        nbrs = {}  # D's neighbour masks in the graph
        rest = vmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if nu_table[mask & ~bits_at.get(v, 0)] == nu:
                d |= bit
                nb = 0
                for edge, other in star.get(v, ()):
                    if mask & edge:
                        nb |= other
                nbrs[v] = nb
                reach |= nb
        a = reach & ~d
        comps = []
        rest = d
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = nbrs[low.bit_length() - 1] & rest & ~comp
                comp |= new
                frontier |= new
            comps.append(comp)
            rest &= ~comp
        return nu, d, a, vmask & ~d & ~a, tuple(comps)


@functools.lru_cache(maxsize=64)
def edge_host(ground: GroundSet) -> EdgeHost:
    """The shared :class:`EdgeHost` of a ground, built once per distinct ground."""
    return EdgeHost(ground)


# ---------------------------------------------------------------------------
# The special families on a host: the members containing ``h_mask``,
# ascending.  The builders and :func:`enumerate_family` share them.  PM, FC
# and BFC are filters over the submasks above h, one numpy pass each through
# :func:`_nu_kept`, which reads the host's nu table alone.
# ---------------------------------------------------------------------------


def _above(h_mask: int, free: int) -> np.ndarray:
    """The masks h_mask | s for every submask s of ``free`` minus h_mask,
    ascending."""
    return np.array(submasks(free & ~h_mask), np.int64) | h_mask


def _nu_kept(host: EdgeHost, masks: np.ndarray, deleted: int, need: int) -> np.ndarray:
    """Whether each graph of ``masks`` has matching number ``need``, and
    keeps it after deleting any one vertex of the vertex mask ``deleted``,
    as a bool array read from the host's nu table.

    On the edges between a cover side and another side, need = |cover| with
    the other side deleted is Hall's condition with surplus one from the
    cover (cover-factor criticality); with nothing deleted it is a matching
    that covers the cover side.
    """
    ok = host.nu_array[masks] == need
    for v in mask_bits(deleted):
        ok &= host.nu_array[masks & ~host.bits_at.get(v, 0)] == need
    return ok


def _pm_masks(host: EdgeHost, vs: int, h_mask: int) -> list[int]:
    """Subgraphs on the vertex mask ``vs`` with a perfect matching (none
    when |vs| is odd)."""
    if vs.bit_count() % 2:
        return []
    members = _above(h_mask, host.bits_within(vs))
    return members[_nu_kept(host, members, 0, vs.bit_count() // 2)].tolist()


def _fc_masks(host: EdgeHost, vs: int, h_mask: int) -> list[int]:
    """Factor critical subgraphs on the vertex mask ``vs``: deleting any
    vertex leaves a perfect matching on the rest (so none when |vs| is even
    and positive)."""
    members = _above(h_mask, host.bits_within(vs))
    return members[_nu_kept(host, members, vs, vs.bit_count() // 2)].tolist()


def _bfc_masks(host: EdgeHost, x: int, y: int, z: int, h_mask: int) -> list[int]:
    """(y, z)-factor critical subgraphs between the vertex masks ``x`` and
    ``y``: y-factor critical, and z-factor critical on the edges between z
    and y; an empty side gives the empty graph alone."""
    if not (x and y):
        return [0]
    members = _above(h_mask, host.bits_between(x, y))
    members = members[_nu_kept(host, members, x, y.bit_count())]
    return members[_nu_kept(host, members & host.bits_between(z, y), y, z.bit_count())].tolist()


def _nmlink_masks(host: EdgeHost, within: int, h_mask: int, k: int) -> list[int]:
    """Subgraphs of the edges ``within`` with matching number below ``k``
    that contain ``h_mask``: the faces above h in NM_k of the host, cut from
    its levels, which are walked once per k and kept in the host's memo."""
    levels = host.memo.get(("nm", k))
    if levels is None:
        # at most 2^|E| faces, as many as the host's nu table has entries
        levels = host.memo[("nm", k)] = _nm_faces(list(host.edges), k, 1 << len(host.edges))
    above = _faces_above(levels, h_mask, within & ~h_mask)
    return np.sort(np.concatenate(above)).tolist() if above else []


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Hereditary family of subsets of a ground set, stored as its faces by
    size: ``levels[s]`` is the sorted array of the faces of size s, for
    s = 0..dim+1.  The void complex (no faces at all) has no levels; every
    other complex has the empty face alone at level 0.  The arrays are int64,
    so the ground has at most 63 elements, and read-only.

    The constructor trusts its levels, as handed over by the NM walk and the
    link filters; :meth:`from_masks` is the way in from arbitrary masks, and
    checks the ground's width and heredity.  ``==`` and ``hash`` are
    taken over the ground and the levels.
    """

    ground: GroundSet
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (isinstance(self.levels, tuple) and all(isinstance(level, np.ndarray) for level in self.levels)):
            raise TypeError("levels must be a tuple of arrays; build from masks with SimplicialComplex.from_masks")
        for level in self.levels:
            level.flags.writeable = False

    def _key(self) -> tuple:
        return self.ground, tuple(tuple(level.tolist()) for level in self.levels)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def from_masks(cls, ground: GroundSet, masks) -> "SimplicialComplex":
        """The complex of the given face masks, which must form a hereditary
        family (``ValueError`` otherwise), over a ground of at most 63
        elements (:class:`CapExceededError` otherwise)."""
        _refuse_wide(len(ground))
        cx = cls(ground, _levels_of(set(masks)))
        if not cx.is_hereditary():
            raise ValueError("face set is not hereditary")
        return cx

    @classmethod
    def full_simplex(cls, ground: GroundSet, cap: int = DEFAULT_SUBSET_CAP) -> "SimplicialComplex":
        """Every subset of a ground of at most 63 elements, when there are
        at most ``cap`` of them (:class:`CapExceededError` otherwise)."""
        _refuse_wide(len(ground))
        if (1 << len(ground)) > cap:
            raise CapExceededError(f"2^{len(ground)} faces exceeds the cap {cap}")
        return cls(ground, _levels_of(range(1 << len(ground))))

    @classmethod
    def void(cls, ground: GroundSet) -> "SimplicialComplex":
        return cls(ground, ())

    @property
    def faces(self) -> frozenset[int]:
        """Every face mask, derived from the levels on each access."""
        return frozenset(self.faces_from(0).tolist())

    def faces_from(self, size: int) -> np.ndarray:
        """The faces of size >= ``size`` in one array, by size and ascending
        within a size."""
        levels = self.levels[size:]
        return np.concatenate(levels) if levels else np.zeros(0, np.int64)

    def is_void(self) -> bool:
        return not self.levels

    @property
    def face_count(self) -> int:
        return sum(map(len, self.levels))

    def dim(self) -> int:
        """Dimension of the complex; -1 for {empty face}, -2 for the void complex."""
        return len(self.levels) - 2

    def faces_of_dim(self, d: int) -> list[int]:
        """Masks of all faces of dimension d (size d+1), sorted."""
        return self.levels[d + 1].tolist() if 0 <= d + 1 < len(self.levels) else []

    def face_counts(self) -> dict[int, int]:
        return {size - 1: len(level) for size, level in enumerate(self.levels) if len(level)}

    def is_hereditary(self) -> bool:
        """Whether each face of every level, with any one of its bits
        dropped, is found in the level below."""
        return all(_found(below, _facets_of(level)).all()
                   for below, level in zip(self.levels, self.levels[1:]))

    def facets(self) -> list[int]:
        """Maximal faces, as masks, sorted: the faces of each level that are
        no facet of a face one level up."""
        covered = [np.sort(_facets_of(level)) for level in self.levels[1:]]
        out = [level[~_found(above, level)] for level, above in zip(self.levels, covered)]
        return sorted(np.concatenate(out + list(self.levels[-1:])).tolist()) if self.levels else []


def _refuse_wide(n: int) -> None:
    """The one width check of the complex doors: a face mask is an int64, so
    a ground of more than 63 elements raises :class:`CapExceededError`."""
    if n > 63:
        raise CapExceededError(f"{n} ground elements exceeds the 63 bits of a face mask")


def _levels_of(faces) -> tuple[np.ndarray, ...]:
    """The distinct face masks by size, each level sorted."""
    if not faces:
        return ()
    masks = np.fromiter(faces, np.int64, len(faces))
    sizes = np.fromiter(map(int.bit_count, faces), np.intp, len(faces))
    masks = masks[sizes.argsort()]
    ends = np.cumsum(np.bincount(sizes)).tolist()
    return tuple(np.sort(masks[a:b]) for a, b in zip([0] + ends, ends))


def _found(level: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether each of ``masks`` is in the sorted ``level``: the entry that
    ``searchsorted`` finds must equal it."""
    if not len(level):
        return np.zeros(len(masks), bool)
    return level[np.minimum(level.searchsorted(masks), len(level) - 1)] == masks


def _facets_of(level: np.ndarray) -> np.ndarray:
    """Every face of one level with one of its bits dropped, each in turn."""
    out, rest = [level[:0]], level
    for _ in range(int(level[0]).bit_count() if len(level) else 0):
        low = rest & -rest
        out.append(level ^ low)
        rest = rest ^ low
    return np.concatenate(out)


def _pack(masks: np.ndarray, allowed: int) -> np.ndarray:
    """Each mask's bits at the positions of ``allowed``, moved down in order
    so that the i-th bit of ``allowed`` becomes bit i: one shift per run of
    consecutive bits."""
    out, width = masks & 0, 0
    while allowed:
        lo = (allowed & -allowed).bit_length() - 1
        run = ((allowed >> lo) ^ ((allowed >> lo) + 1)).bit_length() - 1
        out = out | (((masks >> lo) & ((1 << run) - 1)) << width)
        width += run
        allowed ^= ((1 << run) - 1) << lo
    return out


def _faces_above(levels, base: int, allowed: int, least: int = 0) -> list[np.ndarray]:
    """The faces f with base <= f <= base | allowed among the levels of a
    complex, level by level from size |base| + ``least`` up, each ascending
    (``base`` disjoint from ``allowed``).

    Each level is one subset filter: f minus ``allowed`` must be ``base``.
    By heredity, the first level with no such face ends them.
    """
    drop = ~allowed
    out = []
    for level in levels[base.bit_count() + least:]:
        level = level[(level & drop) == base]
        if not len(level):
            break
        out.append(level)
    return out


def _faces_within(cx: SimplicialComplex, base: int, allowed: int) -> SimplicialComplex:
    """The faces f with base <= f <= base | allowed, each re-indexed onto
    the bits of ``allowed``, as a complex on the ground elements at those
    bits (``base`` is a face, disjoint from ``allowed``).

    The faces come from :func:`_faces_above`; those of all levels are packed
    in one pass and split back by level.  Within a level they agree on every
    dropped bit, so each slice stays sorted.
    """
    ground = GroundSet(tuple(cx.ground.elements[i] for i in mask_bits(allowed)))
    kept = _faces_above(cx.levels, base, allowed)
    if not kept:
        return SimplicialComplex(ground, ())
    packed = _pack(np.concatenate(kept), allowed)
    ends = list(itertools.accumulate(map(len, kept)))
    return SimplicialComplex(ground, tuple(packed[a:b] for a, b in zip([0] + ends, ends)))


def link(cx: SimplicialComplex, sigma) -> SimplicialComplex:
    """The link of a face: sets disjoint from sigma whose union with it is a face.

    The link of the empty face is the complex itself (on the same ground).
    Any other link is the faces above sigma, filtered from each level, with
    sigma's bits dropped; it is void exactly when sigma is not a face.
    """
    smask = sigma if isinstance(sigma, int) else cx.ground.mask_of(sigma)
    lk = cx if smask == 0 else _faces_within(cx, smask, ((1 << len(cx.ground)) - 1) & ~smask)
    if lk.is_void():
        raise ValueError("sigma is not a face of the complex")
    return lk


def induced_subcomplex(cx: SimplicialComplex, subset) -> SimplicialComplex:
    """Faces of the complex contained in the given subset of the ground."""
    smask = subset if isinstance(subset, int) else cx.ground.mask_of(subset)
    return _faces_within(cx, 0, smask & ((1 << len(cx.ground)) - 1))


# ---------------------------------------------------------------------------
# Non-matching complexes
# ---------------------------------------------------------------------------


_WALK_BLOCK = 1 << 16  # candidate faces tested per numpy pass of the NM walk


def build_nm_complex(g: Graph, k: int, cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """The complex of subgraphs of g with matching number strictly below k.

    When nu(g) < k the condition is vacuous and the result is the full
    simplex on the edge set.  The faces come from :func:`_nm_faces`, so the
    cost follows the face count; more than ``cap`` faces raise
    :class:`CapExceededError` as soon as the walk finds them.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    edges = g.sorted_edges()
    return _nm_complex(GroundSet(tuple(edges)), edges, k, cap)


def _nm_complex(ground: GroundSet, edges: list[tuple[int, int]], k: int, cap: int) -> SimplicialComplex:
    """The subsets of ``ground`` whose edges have matching number below k,
    where ground element i is the edge ``edges[i]``.

    Equal entries of ``edges`` are parallel copies of one edge, so a subset
    holding several of them has the nu of its distinct edges.  A face mask
    is a 64-bit integer, so more than 63 elements raise
    :class:`CapExceededError`, as do more than ``cap`` faces.
    """
    _refuse_wide(len(ground))
    return SimplicialComplex(ground, _nm_faces(edges, k, cap))


def _nm_faces(edges: list[tuple[int, int]], k: int, cap: int) -> tuple[np.ndarray, ...]:
    """The edge masks with matching number below k by size, each level an
    ascending int64 array (the layout of :attr:`SimplicialComplex.levels`),
    walked up one size at a time from the empty face with nu memoised per
    face.

    A face f of one size is extended only by the edges e above its highest
    bit, so each face is found once; the faces below 2^e are exactly those,
    a prefix of the sorted level.  Taking e or not gives

        nu(f + e) = max(nu(f), 1 + nu(f - N[e])),

    where N[e] is the edges sharing an end with e, e and any parallel copy
    of it included, so the recurrence holds with parallel edges too.  f - N[e]
    is a subset of f, so it is a face of a level already walked, the level
    of its own size; each level keeps its nu in an array beside it, and
    :func:`_nu_in_levels` looks the subsets up there, one ``searchsorted``
    per size.  The candidates of a level are taken in blocks ordered by e
    and then by f, which is the ascending order of f + e, so the new level
    comes out sorted and a refused input holds at most ``cap`` faces plus
    one block.
    """
    apart = ~np.array(edge_conflicts(edges), dtype=np.int64)  # edges off N[e]
    bits = np.left_shift(1, np.arange(len(edges), dtype=np.int64))
    levels, nus = [np.zeros(1, np.int64)], [np.zeros(1, np.uint8)]
    count = 1
    for size in itertools.count(1):
        level, level_nu = levels[-1], nus[-1]
        parents = level.searchsorted(bits)  # per edge e: the faces below 2^e
        ends = parents.cumsum()
        total = int(ends[-1]) if len(ends) else 0
        if not total:
            break
        starts = ends - parents
        found, found_nu = [], []
        for lo in range(0, total, _WALK_BLOCK):
            slot = np.arange(lo, min(lo + _WALK_BLOCK, total))
            e = ends.searchsorted(slot, side="right")
            parent = slot - starts[e]
            f = level[parent]
            up_nu = np.maximum(level_nu[parent], _nu_in_levels(f & apart[e], levels, nus) + 1)
            keep = up_nu < k
            found.append((f | bits[e])[keep])
            found_nu.append(up_nu[keep])
            count += len(found[-1])
            if count > cap:
                raise CapExceededError(
                    f"NM_{k} has more than {cap} faces (the cap), passed at size {size}")
        level = np.concatenate(found)
        if not len(level):
            break
        levels.append(level)
        nus.append(np.concatenate(found_nu))
    return tuple(levels)


def _nu_in_levels(masks: np.ndarray, levels: list[np.ndarray], nus: list[np.ndarray]) -> np.ndarray:
    """The nu of each of ``masks``, each a face, found in the level of its
    own size: the masks are grouped by size with one stable ``argsort`` and
    one ``bincount``, then each group is one ``searchsorted``."""
    sizes = np.bitwise_count(masks)
    order = sizes.argsort(kind="stable")
    out = np.empty(len(masks), np.uint8)
    lo = 0
    for size, many in enumerate(np.bincount(sizes).tolist()):
        if many:
            at = order[lo:lo + many]
            out[at] = nus[size][levels[size].searchsorted(masks[at])]
            lo += many
    return out


# ---------------------------------------------------------------------------
# The special families as Graphs: a public front on the mask families above
# ---------------------------------------------------------------------------

FAMILY_KINDS = ("PM", "FC", "BFC", "NMLINK_COMPLETE", "NMLINK_BIPARTITE")


@dataclass(frozen=True)
class FamilySpec:
    """Which family of subgraphs to enumerate, and over which host.

    kind PM:    subgraphs of the complete graph on ``vertices`` containing
                ``subgraph_h`` with a perfect matching on ``vertices``.
    kind FC:    ditto, factor critical on ``vertices``.
    kind BFC:   subgraphs of the complete bipartite graph between ``x_side``
                and ``y_side`` containing ``subgraph_h`` that are
                (y, z)-factor critical with z = ``z_subset``.
    kind NMLINK_COMPLETE / NMLINK_BIPARTITE: subgraphs of the host containing
                ``subgraph_h`` with matching number below ``k``.
    """

    kind: str
    vertices: tuple[int, ...] = ()
    x_side: tuple[int, ...] = ()
    y_side: tuple[int, ...] = ()
    z_subset: tuple[int, ...] = ()
    subgraph_h: frozenset[tuple[int, int]] = frozenset()
    k: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind in ("PM", "FC", "NMLINK_COMPLETE"):
            if self.x_side or self.y_side or self.z_subset:
                raise ValueError(f"{self.kind} takes a plain vertex set")
            host = set(self.vertices)
        else:
            if self.vertices:
                raise ValueError(f"{self.kind} takes two sides, not a vertex set")
            if set(self.x_side) & set(self.y_side):
                raise ValueError("sides must be disjoint")
            if not set(self.z_subset) <= set(self.x_side):
                raise ValueError("z_subset must be contained in x_side")
            host = set(self.x_side) | set(self.y_side)
        for (u, v) in self.subgraph_h:
            if u not in host or v not in host:
                raise ValueError(f"h edge {(u, v)} leaves the host vertex set")
            if self.kind in ("BFC", "NMLINK_BIPARTITE"):
                if (u in set(self.x_side)) == (v in set(self.x_side)):
                    raise ValueError(f"h edge {(u, v)} does not cross the host sides")
        if self.kind.startswith("NMLINK") and self.k < 1:
            raise ValueError("NMLINK families need a positive k")

    def host_edges(self) -> list[tuple[int, int]]:
        if self.kind in ("PM", "FC", "NMLINK_COMPLETE"):
            vs = sorted(self.vertices)
            return sorted(normalize_edge(u, v) for u, v in itertools.combinations(vs, 2))
        return bipartite_edge_list(self.x_side, self.y_side)


def enumerate_family(spec: FamilySpec, cap: int = DEFAULT_SUBSET_CAP) -> list[Graph]:
    """Member graphs of the family, sorted by edge mask over the host ground.

    The members come from the same mask families the Morse builders use, on
    the shared host of ``spec.host_edges()``.  Conventions: PM over the empty
    vertex set, FC over a single vertex, and BFC with an empty side each
    yield exactly the empty graph; FC over an even vertex set is empty, and
    families can also be genuinely empty (no members at all).
    """
    host_edges = spec.host_edges()
    if (1 << len(host_edges)) > cap:
        raise CapExceededError(f"2^{len(host_edges)} host subsets exceeds the cap {cap}")
    host = edge_host(GroundSet(tuple(host_edges)))
    h_mask = host.mask_of(spec.subgraph_h)
    vs, x, y = vertex_bits(spec.vertices), vertex_bits(spec.x_side), vertex_bits(spec.y_side)
    if spec.kind == "PM":
        masks = _pm_masks(host, vs, h_mask)
    elif spec.kind == "FC":
        masks = _fc_masks(host, vs, h_mask)
    elif spec.kind == "BFC":
        masks = _bfc_masks(host, x, y, vertex_bits(spec.z_subset), h_mask)
    else:
        masks = _nmlink_masks(host, (1 << len(host_edges)) - 1, h_mask, spec.k)
    n = (vs | x | y).bit_length()
    out = [Graph.from_edges(n, host.ground.decode(m)) for m in masks]
    # FC members must be factor critical in the predicate sense too; the
    # nu-table filter is equivalent, which the tests pin down.
    if spec.kind == "FC" and vs.bit_count() > 1:
        if not all(is_factor_critical(g, spec.vertices) for g in out):
            raise InternalCheckError("nu-table FC member is not factor critical")
    return out
