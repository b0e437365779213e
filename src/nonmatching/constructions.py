"""Recursive acyclic-matching constructions on the special graph families.

Five builders, one per family: graphs with a perfect matching (PM), factor
critical graphs (FC), bipartite two-level factor critical graphs (BFC), and
the two "link" families of bounded-matching-number supergraphs of a fixed
subgraph, over a complete or complete bipartite host.

Each builder materialises its family explicitly, through the member lists
it shares with :func:`nonmatching.complexes.enumerate_family`
(``_pm_masks``, ``_fc_masks``, ``_bfc_masks`` and ``_nmlink_masks``, next to
:class:`nonmatching.complexes.EdgeHost`), and runs one shared
recursion, :func:`_peel_cluster_lift`: a first-stage matching peels most of
the family (a toggle on one edge for PM, FC and BFC; toggles on the addable
edges of a free star for the link families), the unmatched members lose the
peeled face, are grouped by their Gallai-Edmonds key (computed once per
member), each group is matched by a builder-specific join of smaller
families, the groups are united by :func:`nonmatching.morse.cluster_union`,
and the result is lifted back by the peeled face.  The PM and complete-link
groups share one join, :func:`_matched_join_pairs`.  Claimed decompositions
are re-verified along the way (join structures are checked for exact
equality with the definitional member lists; cluster maps are checked
monotone on the covering pairs of each clustered family, which suffices
because every such family is convex and every key order transitive; lifts
must reproduce the unmatched members).  The bipartite
factor-criticality and perfect-matching filters are one Hall check,
:func:`nonmatching.complexes.hall_holds`, over every candidate at once.  The
guaranteed critical-size bounds, with their strictness clauses, are recorded
on the result for the caller to assert:

    PM:   |sigma| <= (3/2)|V| + |H|        (strict when V is non-empty)
    FC:   |sigma| <= (3/2)(|V|-1) + |H|    (strict when H has an edge)
    BFC:  |sigma| <= 2|Y| + |Z| + |H|      (strict when H has an edge)
    link, complete host:   |sigma| <= 3k-4+|H|
    link, bipartite host:  |sigma| <= 2k-3+|H|

Faces are bitmasks over the host ground (the complete or complete bipartite
edge list); recursive calls share the top-level host so that sub-results
compose by plain union.  Vertex sets are vertex masks (bit v is vertex v)
from the public doors down: each ``build_*`` function takes any iterable of
vertices, converts it once, and runs a mask-level solve.  The Gallai-Edmonds
key of a member is its (D, D | A, components) from
:meth:`nonmatching.complexes.EdgeHost.decompose_masks`, and the side algebra
of every split is ``&``, ``|`` and ``~`` on those masks.  Hosts, with their
nu tables, come from the memoised :func:`nonmatching.complexes.edge_host`,
so a ground is tabulated once per process; that holds for the small index
hosts of the projection bridges too.  The recursive sub-solves (the PM, FC
and BFC solves and the projection bridges) are memoised on their host,
keyed by their mask arguments, so each distinct sub-family is built and
checked once per host; a builder called without a host is not kept.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .complexes import (
    EdgeHost,
    GroundSet,
    _above,
    _bfc_masks,
    _fc_masks,
    _nmlink_masks,
    _pm_masks,
    edge_host,
    hall_holds,
    mask_bits,
    submasks,
    vertex_bits,
)
from .errors import EmptyFamilyError, InternalCheckError
from .graphs import (
    Graph,
    bipartite_edge_list,
    complete_edge_list,
)
from .morse import (
    JoinPart,
    Pair,
    boolean_matching,
    cluster_union,
    join_matching,
    projection_matching,
)


def _complete_ground(vs: int) -> GroundSet:
    return GroundSet(tuple(itertools.combinations(mask_bits(vs), 2)))


def _bipartite_ground(x: int, y: int) -> GroundSet:
    return GroundSet(tuple(bipartite_edge_list(list(mask_bits(x)), list(mask_bits(y)))))


def _h_mask(host: EdgeHost, h) -> int:
    """The subgraph ``h`` (a mask, a Graph or an edge list) as a host mask."""
    if isinstance(h, int):
        return h
    return host.mask_of(h.edges if isinstance(h, Graph) else h)


def _ge_key(host: EdgeHost, mask: int, vs: int):
    _, d, a, _, comps = host.decompose_masks(mask, vs)
    return (d, d | a, comps)


def _ge_leq(k1, k2) -> bool:
    """Partial order on decomposition keys making the key map monotone.

    Strictly comparable when the (D, D union A) pairs are nested and differ;
    equal keys compare equal; same pair with different components stays
    incomparable.
    """
    if k1 == k2:
        return True
    d1, da1, _ = k1
    d2, da2, _ = k2
    return d1 & ~d2 == 0 and da1 & ~da2 == 0 and (d1, da1) != (d2, da2)


class ConstructionError(InternalCheckError):
    pass


def _memo_on_host(fn):
    """Memoise a sub-solve ``fn(host, *args)`` in the ``memo`` of its host,
    keyed by its arguments (vertex masks, edge masks and counts).

    The results are immutable, so one object serves every caller; a call
    that raises is not kept.  ``fn.__wrapped__`` is the solve that keeps
    nothing.
    """
    @functools.wraps(fn)
    def memoised(host, *args):
        key = (fn.__name__,) + args
        out = host.memo.get(key)
        if out is None:
            out = host.memo[key] = fn(host, *args)
        return out
    return memoised


def _door(solve, host: EdgeHost | None, ground, *args, h=()) -> ConstructionResult:
    """A public builder's way in to its mask-level ``solve``: on ``host``,
    kept in its memo, or, without a host, on the shared host of
    ``ground()`` and not kept."""
    if host is None:
        host, solve = edge_host(ground()), solve.__wrapped__
    return solve(host, *args, _h_mask(host, h))


def _sides(x_side, y_side) -> tuple[int, int]:
    """Two disjoint vertex sides as vertex masks."""
    x, y = vertex_bits(x_side), vertex_bits(y_side)
    if x & y:
        raise ValueError("sides must be disjoint")
    return x, y


# ---------------------------------------------------------------------------
# Results and the shared recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionResult:
    """A built matching (``pairs``) on an explicitly materialised, sorted
    family, with the critical-size bound its construction guarantees; the
    criticals are derived from the two, not stored."""

    kind: str
    ground: GroundSet
    family: tuple[int, ...]
    pairs: tuple[Pair, ...]
    bound: int
    strict: bool

    @property
    def criticals(self) -> tuple[int, ...]:
        """The unmatched members, ascending."""
        matched = {m for pair in self.pairs for m in pair}
        return tuple(m for m in self.family if m not in matched)

    def max_critical_size(self) -> int:
        return max((m.bit_count() for m in self.criticals), default=0)

    def bound_holds(self) -> bool:
        return self.admits(self.max_critical_size())

    def admits(self, size: int) -> bool:
        """Whether critical faces of at most ``size`` elements meet the bound."""
        if not self.family:
            return True
        return size < self.bound if self.strict else size <= self.bound


def _result(kind, host, family, pairs, bound, strict) -> ConstructionResult:
    return ConstructionResult(kind, host.ground, tuple(sorted(family)), tuple(pairs), bound, strict)


def _complete_toggle(family, free: int, what: str):
    """Toggle on the least bit of ``free``; it must match the whole family."""
    pairs, _, rest = boolean_matching(family, (free & -free).bit_length() - 1)
    if rest:
        raise ConstructionError(f"{what} was not complete")
    return pairs


def _checked_join(parts, members, what: str):
    """Join the parts; the joined family must be exactly ``members``."""
    res = join_matching(parts)
    if set(res.family) != set(members):
        raise ConstructionError(f"{what} does not reproduce its members")
    return res


def _clustered_pairs(members, key_fn, leq, fiber_pairs):
    """Match each fiber of a monotone key and unite the fibers.

    Keys are computed once per member; ``fiber_pairs(key, fiber)`` matches
    one fiber, and :func:`cluster_union` checks monotonicity and acyclicity.
    Monotonicity is checked on covering pairs only, so every caller must
    pass a transitive ``leq`` and members that meet the chain condition:
    each two members sigma < tau are joined by a chain of members one edge
    apart (a convex family meets it).
    """
    key_of = {m: key_fn(m) for m in members}
    fibers: dict = {}
    for m in members:
        fibers.setdefault(key_of[m], []).append(m)
    per_key = {key: fiber_pairs(key, fiber) for key, fiber in fibers.items()}
    return cluster_union(members, key_of.__getitem__, leq, per_key)


def _peel_cluster_lift(host: EdgeHost, peel, face: int, vs: int, fiber_pairs) -> list:
    """The recursion every builder shares, after its first-stage matching.

    ``peel`` is (pairs, unmatched members); every unmatched member carries
    ``face``.  The members without ``face`` are clustered by their
    Gallai-Edmonds key on the vertex mask ``vs``, each fiber matched by
    ``fiber_pairs(key, fiber)``, and the union is lifted back by ``face``,
    which must reproduce the unmatched members exactly.
    """
    pairs0, unmatched = peel
    f_members = sorted(m & ~face for m in unmatched)
    # convex: a toggle leaves unmatched a convex part of an up-closed PM, FC
    # or BFC family, and the star peel's f1 is convex; _ge_leq is transitive
    f_pairs = _clustered_pairs(f_members, lambda m: _ge_key(host, m, vs), _ge_leq, fiber_pairs)
    if not f_members:
        return list(pairs0)
    ground = 0
    for m in f_members:
        ground |= m
    lifted = _checked_join([JoinPart.make(ground, f_members, f_pairs), JoinPart.single(face)],
                           unmatched, "toggle lift")
    return list(pairs0) + list(lifted.pairs)


def _toggle_peel(family, e0_bit: int):
    """Toggle on one edge; every member it leaves unmatched must contain it."""
    pairs0, _, unmatched = boolean_matching(family, e0_bit)
    if any(not m >> e0_bit & 1 for m in unmatched):
        raise ConstructionError("unmatched member without the toggle edge")
    return pairs0, unmatched


# ---------------------------------------------------------------------------
# Edge picks
# ---------------------------------------------------------------------------


def _pick_e0_complete(host: EdgeHost, vs: int, h_mask: int) -> tuple[int, int, int]:
    """Least non-subgraph edge, preferring an endpoint of positive h-degree.

    Returns (bit, v, w) where w is an endpoint of positive h-degree when the
    subgraph has any edge at all.
    """
    for b in mask_bits(host.bits_within(vs) & ~h_mask):
        u, v = host.edges[b]
        if not h_mask or h_mask & host.bits_at[v]:
            return b, u, v
        if h_mask & host.bits_at[u]:
            return b, v, u
    raise ConstructionError("no admissible toggle edge; host equals the subgraph")


# ---------------------------------------------------------------------------
# BFC builder
# ---------------------------------------------------------------------------


def build_bfc_matching(x_side, y_side, z_subset, h=(), *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on the two-level bipartite factor critical family.

    Members are the subgraphs of the complete bipartite graph between
    ``x_side`` and ``y_side`` containing ``h`` that are y-factor critical and
    whose restriction to ``z_subset`` x ``y_side`` is z-factor critical.
    Critical faces satisfy |sigma| <= 2|Y| + |Z| + |H|, strictly when ``h``
    has an edge.  Raises EmptyFamilyError when there are no members at all
    (as opposed to the one-member family {empty graph}).
    """
    x, y = _sides(x_side, y_side)
    z = vertex_bits(z_subset)
    if z & ~x:
        raise ValueError("z_subset must be contained in x_side")
    return _door(_bfc, host, lambda: _bipartite_ground(x, y), x, y, z, h=h)


@_memo_on_host
def _bfc(host: EdgeHost, x: int, y: int, z: int, h_mask: int) -> ConstructionResult:
    bound = 2 * y.bit_count() + z.bit_count() + h_mask.bit_count()
    strict = h_mask != 0

    if not x or not y:
        if h_mask:
            raise ValueError("subgraph cannot have edges over an empty side")
        return _result("BFC", host, [0], [], bound, strict)

    if h_mask & ~host.bits_between(x, y):
        raise ValueError("subgraph leaves the bipartite host")
    family = _bfc_masks(host, x, y, z, h_mask)
    if not family:
        raise EmptyFamilyError(
            f"no (y,z)-factor critical supergraphs for |X|={x.bit_count()} |Y|={y.bit_count()} "
            f"|Z|={z.bit_count()}"
        )

    kxz_y = host.bits_between(x & ~z, y)
    if kxz_y & ~h_mask == 0:
        # everything between X minus Z and Y is forced, so members are exactly
        # the z-factor critical graphs between Y and Z joined with that block
        res = _checked_join([_bfc_part(host, y, z, h_mask), JoinPart.single(kxz_y)],
                            family, "forced-block join")
        return _result("BFC", host, family, res.pairs, bound, strict)

    # toggle edge: v on the y side, w on the x side outside z, not in h;
    # prefer a v with h-neighbours
    def toggle_key(b):
        u, v = host.edges[b]
        v, w = (u, v) if y >> u & 1 else (v, u)
        return not h_mask & host.bits_at[v], v, w

    e0_bit = min(mask_bits(kxz_y & ~h_mask), key=toggle_key)
    _, v0, w0 = toggle_key(e0_bit)

    pairs = _peel_cluster_lift(
        host, _toggle_peel(family, e0_bit), 1 << e0_bit, x | y,
        lambda key, members: _bfc_subfamily_pairs(host, x, y, z, h_mask, v0, w0, key, members),
    )
    return _result("BFC", host, family, pairs, bound, strict)


def _bfc_subfamily_pairs(host, x, y, z, h_mask, v0, w0, key, members):
    d, da, _comps = key
    a = da & ~d
    c = (x | y) & ~da
    if not (d >> w0 & 1 and d & ~x == 0):
        raise ConstructionError("missable set must sit inside the x side")
    if a & ~y:
        raise ConstructionError("attachment set must sit inside the y side")
    if not c >> v0 & 1:
        raise ConstructionError("toggle endpoint must land in the matched part")

    part1 = _bfc_part(host, d, a, h_mask, z & d)
    fyc_members, fyc_pairs = _fyc_matching(host, y, h_mask, v0, a, x & c, y & c, z & c)
    return _checked_join(
        [part1, JoinPart.make(host.bits_between(x & c, y), fyc_members, fyc_pairs)],
        members, "missable/matched join",
    ).pairs


def _fyc_matching(host, y, h_mask, v0, a, c_x, c_y, z_c):
    """Matching on the matched-side family of the BFC decomposition.

    Members live between the matched x part and the whole y side and must
    contain the forced subgraph there, have a perfect matching across the
    matched part, and satisfy the two factor-criticality conditions.  They
    are grouped by the pair (N(v0) inside z, N(A+v0) inside z), which is a
    monotone key, and each group splits as a join of four blocks.
    """
    ground = host.bits_between(c_x, y)
    members = []
    if c_x.bit_count() == c_y.bit_count():
        cand = _above(h_mask & ground, ground)
        for cover, other, surplus in ((c_x, c_y, 0), (z_c, y, 1), (c_y & ~(1 << v0), c_x, 1)):
            cand = cand[hall_holds(host, cand, cover, other, surplus)]
        members = cand.tolist()

    def type_key(m):
        s = host.neighbor_bits(m, v0) & z_c
        st = s
        for av in mask_bits(a):
            st |= host.neighbor_bits(m, av) & z_c
        return (s, st)

    def type_leq(k1, k2):
        return k1[0] & ~k2[0] == 0 and k1[1] & ~k2[1] == 0

    def type_pairs(key, group):
        s, st = key
        return _fyc_type_pairs(host, h_mask, v0, a, c_x, c_y, z_c, s, st & ~s, group)

    # convex: each Hall filter is up-closed within the interval; type_leq is
    # the subset order on both halves, so transitive
    return tuple(members), tuple(_clustered_pairs(members, type_key, type_leq, type_pairs))


def _touched(host, edges: int, vs: int) -> int:
    """The vertices of ``vs`` that the edge mask ``edges`` meets."""
    return sum(1 << v for v in mask_bits(vs) if edges & host.bits_at.get(v, 0))


def _fyc_type_pairs(host, h_mask, v0, a, c_x, c_y, z_c, s, t, members):
    q = c_x & ~z_c
    r = z_c & ~s & ~t
    v0_bit = 1 << v0

    # block at v0: forced edges to h-neighbours and the s-part, free ones to
    # the rest of the unconstrained x part
    pv_ground = host.bits_between(c_x, v0_bit)
    n_prime = host.neighbor_bits(h_mask & pv_ground, v0)
    if n_prime & (t | r):
        raise ConstructionError("forced neighbours contradict the type")
    forced = host.bits_between(n_prime | s, v0_bit)
    free_q = host.bits_between(q & ~n_prime, v0_bit)
    if forced:
        if free_q:
            subs = submasks(free_q)
            p = _complete_toggle(subs, free_q, "free toggle block")
            pv = join_matching([JoinPart.single(forced), JoinPart.make(free_q, subs, p)])
            pv_family, pv_pairs = pv.family, pv.pairs
        else:
            pv_family, pv_pairs = (forced,), ()
    else:
        fam = [sub for sub in submasks(free_q) if sub]
        if not fam:
            raise ConstructionError("neighbourless block in a non-empty type")
        pv_pairs, _, _ = boolean_matching(fam, min(mask_bits(free_q)))
        pv_family = tuple(sorted(fam))

    # block between the z-part and the attachment set
    pa_ground = host.bits_between(z_c, a)
    h2 = h_mask & pa_ground
    n2 = _touched(host, h2, z_c)
    pa_members = []
    for sub in submasks(pa_ground & ~h2):
        m = h2 | sub
        hit = _touched(host, m, z_c)
        if t & ~hit or hit & ~(s | t):
            continue
        if not q and not hit:
            continue
        pa_members.append(m)
    if not pa_members:
        raise ConstructionError("empty attachment block in a non-empty type")
    if not a:
        pa_family, pa_pairs = tuple(pa_members), ()
    else:
        freebits = host.bits_between(n2 | s, a) & ~h2
        if freebits:
            e = min(mask_bits(freebits))
            pa_pairs, _, pa_rest = boolean_matching(pa_members, e)
            if pa_rest and pa_rest != [1 << e]:
                raise ConstructionError("attachment toggle left unexpected criticals")
            pa_family = tuple(pa_members)
        else:
            blocks = [JoinPart.single(h2)]
            t_minus = t & ~n2
            if t_minus:
                parts = [host.bits_between(1 << zv, a) for zv in mask_bits(t_minus)]
                full = (1 << len(parts)) - 1
                lift = projection_matching(parts, 0, [full], [])
                blocks.append(JoinPart.make(host.bits_between(t_minus, a), lift.family, lift.pairs))
            res = _checked_join(blocks, pa_members, "attachment block join")
            pa_family, pa_pairs = res.family, res.pairs

    # block between the unconstrained x part and the attachment set
    pq_ground = host.bits_between(q, a)
    hq = h_mask & pq_ground
    pq_family = tuple(hq | sub for sub in submasks(pq_ground & ~hq))
    pq_pairs = _interval_pairs(pq_family, pq_ground, hq)

    return _checked_join(
        [JoinPart.make(pv_ground, pv_family, pv_pairs),
         JoinPart.make(pa_ground, pa_family, pa_pairs),
         JoinPart.make(pq_ground, pq_family, pq_pairs),
         _bfc_part(host, c_x, c_y & ~v0_bit, h_mask, r)],
        members, "type join",
    ).pairs


def _bfc_part(host, x, y, h_mask, z=0) -> JoinPart:
    ground = host.bits_between(x, y)
    sub = _bfc(host, x, y, z, h_mask & ground)
    return JoinPart.make(ground, sub.family, sub.pairs)


def _fc_part(host, comp, h_mask) -> JoinPart:
    ground = host.bits_within(comp)
    sub = _fc(host, comp, h_mask & ground)
    return JoinPart.make(ground, sub.family, sub.pairs)


# ---------------------------------------------------------------------------
# Projection bridges
# ---------------------------------------------------------------------------


@_memo_on_host
def _lifted_bfc_projection(host: EdgeHost, d_groups: tuple, a: int, z_group_count: int, tau: int):
    """Matching on bipartite graphs between the missable part and the
    vertex mask ``a`` whose group-contraction is factor critical on the a
    side.

    ``d_groups`` are disjoint vertex masks; the contraction sends all edges
    between one group and one a-vertex to a single index edge.  The index
    family is a BFC family on a fresh host, matched recursively and lifted
    through the partition projection.
    """
    g_count = len(d_groups)
    a_list = list(mask_bits(a))
    # local bipartite host on fresh labels: groups then a-vertices; its edge
    # (i, j) stands for the edges between group i and the (j - g_count)-th
    # vertex of a
    local_x = (1 << g_count) - 1
    local_y = ((1 << len(a_list)) - 1) << g_count
    local = edge_host(_bipartite_ground(local_x, local_y))
    parts = [host.bits_between(d_groups[i], 1 << a_list[j - g_count]) for i, j in local.edges]
    q_h = 0
    for pos, pm in enumerate(parts):
        if tau & pm:
            q_h |= 1 << pos
    q = _bfc(local, local_x, local_y, (1 << z_group_count) - 1, q_h)
    return projection_matching(parts, tau, q.family, q.pairs)


@_memo_on_host
def _lifted_fc_projection(host: EdgeHost, a: int, c: int, tau: int):
    """Matching on graphs over (A x C) union (C x C) whose contraction of the
    whole vertex mask ``a`` to one point is factor critical; lifted from an
    FC family on a fresh host with |C|+1 vertices (contracted point labelled
    0)."""
    c_list = list(mask_bits(c))
    local_n = 1 + len(c_list)
    local_edges = complete_edge_list(local_n)
    parts = []
    for (i, j) in local_edges:
        if i == 0:
            parts.append(host.bits_between(a, 1 << c_list[j - 1]))
        else:
            parts.append(1 << host.index[c_list[i - 1], c_list[j - 1]])
    local = edge_host(GroundSet(tuple(local_edges)))
    q_h = 0
    for pos, pm in enumerate(parts):
        if tau & pm:
            q_h |= 1 << pos
    q = _fc(local, (1 << local_n) - 1, q_h)
    return projection_matching(parts, tau, q.family, q.pairs)


# ---------------------------------------------------------------------------
# PM builder
# ---------------------------------------------------------------------------


def build_pm_matching(vertices, h=(), *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on perfectly matchable supergraphs of ``h``.

    Members are the subgraphs of the complete graph on ``vertices``
    containing ``h`` with a perfect matching on all of ``vertices``.
    Critical faces satisfy |sigma| <= (3/2)|V| + |H|, strictly when the
    vertex set is non-empty.  An odd vertex set gives the empty family (and
    an empty matching on it); the empty vertex set gives {empty graph}.
    """
    vs = vertex_bits(vertices)
    return _door(_pm, host, lambda: _complete_ground(vs), vs, h=h)


@_memo_on_host
def _pm(host: EdgeHost, vs: int, h_mask: int) -> ConstructionResult:
    bound = 3 * vs.bit_count() // 2 + h_mask.bit_count()
    strict = vs != 0
    kv = host.bits_within(vs)
    if h_mask & ~kv:
        raise ValueError("subgraph leaves the host vertex set")
    family = _pm_masks(host, vs, h_mask)
    if not vs or not family or h_mask == kv:
        return _result("PM", host, family, [], bound, strict)

    e0_bit, v0, w0 = _pick_e0_complete(host, vs, h_mask)

    def fiber_pairs(key, members):
        ordered = _components_ordered_for(key[2], v0, w0)
        groups = ordered[:-2] + (ordered[-2] | ordered[-1],)
        return _matched_join_pairs(host, h_mask, vs, key, members, ordered, groups)

    pairs = _peel_cluster_lift(host, _toggle_peel(family, e0_bit), 1 << e0_bit, vs, fiber_pairs)
    return _result("PM", host, family, pairs, bound, strict)


def _components_ordered_for(comps, v0, w0):
    """Components with the ones containing v0 / w0 moved to the last two slots."""
    comp_v = next(c for c in comps if c >> v0 & 1)
    comp_w = next(c for c in comps if c >> w0 & 1)
    if comp_v == comp_w:
        raise ConstructionError("toggle endpoints landed in one missable component")
    return tuple(c for c in comps if c != comp_v and c != comp_w) + (comp_v, comp_w)


def _matched_join_pairs(host, h_mask, universe, key, members, comps, groups):
    """Matching on one Gallai-Edmonds fiber of the PM or complete-link family.

    Unless a free edge at A gives a complete toggle, members are the join of
    FC families on the components ``comps`` of D, a projection family
    between D and A, a PM family on C, and the forced edges at A.  Each of
    ``groups``, a union of components, is contracted to one index vertex of
    the projection (PM merges the components of the toggle edge's
    endpoints; the link family keeps every component apart).
    """
    d, da, _ = key
    a = da & ~d
    c = universe & ~da

    free = (host.bits_within(a) | host.bits_between(a, c)) & ~h_mask
    if free:
        return _complete_toggle(members, free, "decomposition-preserving toggle")

    parts = [_fc_part(host, comp, h_mask) for comp in comps]
    proj = _lifted_bfc_projection(host, groups, a, 0, h_mask & host.bits_between(d, a))
    subpm = _pm(host, c, h_mask & host.bits_within(c))
    parts += [
        JoinPart.make(host.bits_between(d, a), proj.family, proj.pairs),
        JoinPart.make(host.bits_within(c), subpm.family, subpm.pairs),
        JoinPart.single(host.bits_within(a)),
        JoinPart.single(host.bits_between(a, c)),
    ]
    return _checked_join(parts, members, "matched join").pairs


# ---------------------------------------------------------------------------
# FC builder
# ---------------------------------------------------------------------------


def build_fc_matching(vertices, h=(), *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on factor critical supergraphs of ``h``.

    Members are subgraphs of the complete graph on ``vertices`` containing
    ``h`` that are factor critical on all of ``vertices`` (|V| must be odd).
    Critical faces satisfy |sigma| <= (3/2)(|V|-1) + |H|, strictly when ``h``
    has an edge.
    """
    vs = vertex_bits(vertices)
    if vs.bit_count() % 2 == 0:
        raise ValueError("factor critical families need an odd vertex count")
    return _door(_fc, host, lambda: _complete_ground(vs), vs, h=h)


@_memo_on_host
def _fc(host: EdgeHost, vs: int, h_mask: int) -> ConstructionResult:
    bound = 3 * (vs.bit_count() - 1) // 2 + h_mask.bit_count()
    strict = h_mask != 0
    kv = host.bits_within(vs)
    if h_mask & ~kv:
        raise ValueError("subgraph leaves the host vertex set")
    family = _fc_masks(host, vs, h_mask)
    if vs.bit_count() == 1 or h_mask == kv:
        return _result("FC", host, family, [], bound, strict)

    e0_bit, v0, w0 = _pick_e0_complete(host, vs, h_mask)
    pairs = _peel_cluster_lift(
        host, _toggle_peel(family, e0_bit), 1 << e0_bit, vs,
        lambda key, members: _fc_subfamily_pairs(host, vs, h_mask, v0, w0, key, members),
    )
    return _result("FC", host, family, pairs, bound, strict)


def _fc_subfamily_pairs(host, vs, h_mask, v0, w0, key, members):
    d, da, comps = key
    a = da & ~d
    c = vs & ~da
    if not a:
        raise ConstructionError("near-critical members must have attachment vertices")

    free = host.bits_within(a) & ~h_mask
    if free:
        return _complete_toggle(members, free, "decomposition-preserving toggle")

    ordered = _components_ordered_for(comps, v0, w0)
    parts = [_fc_part(host, comp, h_mask) for comp in ordered]
    proj = _lifted_bfc_projection(host, ordered, a, len(ordered) - 2,
                                  h_mask & host.bits_between(d, a))
    ac_ground = host.bits_between(a, c) | host.bits_within(c)
    proj2 = _lifted_fc_projection(host, a, c, h_mask & ac_ground)
    parts += [
        JoinPart.make(host.bits_between(d, a), proj.family, proj.pairs),
        JoinPart.make(ac_ground, proj2.family, proj2.pairs),
        JoinPart.single(host.bits_within(a)),
    ]
    return _checked_join(parts, members, "factor-critical join").pairs


# ---------------------------------------------------------------------------
# Link-family builders
# ---------------------------------------------------------------------------


def _interval_pairs(family, within: int, h_mask: int):
    """Matching on an inclusion interval: complete unless it is one face."""
    free = within & ~h_mask
    return _complete_toggle(family, free, "interval toggle") if free else []


def _min_h_degree(host, vs: int, h_mask: int) -> int:
    """The vertex of ``vs`` with the fewest h-edges, the least on a tie."""
    return min(mask_bits(vs), key=lambda u: ((h_mask & host.bits_at.get(u, 0)).bit_count(), u))


def _star_peel(host, family, h_mask, v, w, k: int):
    """Complete matching on the members with an addable free star edge at v.

    The free star is the edges from ``v`` to the vertex mask ``w``.  Members
    cluster by their star-free part; each cluster is a toggle cube over its
    addable star edges.  Returns ((pairs, the other members), the h-edges
    at v); every member left over meets v in exactly those h-edges.
    """
    nu = host.nu
    s_bits = host.bits_between(w, 1 << v)
    if not s_bits:
        raise ConstructionError("minimum-degree vertex has a full star")
    f0, f1 = [], []
    addable_of_base: dict[int, int] = {}
    for m in family:
        base = m & ~s_bits
        addable = addable_of_base.get(base)
        if addable is None:
            addable = 0
            for b in mask_bits(s_bits):
                if nu[base | (1 << b)] < k:
                    addable |= 1 << b
            addable_of_base[base] = addable
        # an addable edge already present also witnesses membership in f0
        if addable & m or any(nu[m | (1 << b)] < k for b in mask_bits(s_bits & ~m)):
            f0.append(m)
        else:
            f1.append(m)

    def fiber_pairs(base, fiber):
        if not addable_of_base[base]:
            raise ConstructionError("cluster fiber with no addable star edge")
        return _complete_toggle(fiber, addable_of_base[base], "star fiber toggle")

    # convex: an edge addable to a star-free part stays addable below it;
    # the subset order is transitive
    pairs = _clustered_pairs(f0, lambda m: m & ~s_bits, lambda a, b: a & ~b == 0, fiber_pairs)
    vstar = h_mask & host.bits_at.get(v, 0)
    if any(m & host.bits_at.get(v, 0) != vstar for m in f1):
        raise ConstructionError("starless members carry stray star edges")
    return (pairs, f1), vstar


def _link_h_mask(host, within: int, h, k: int) -> int:
    """``h`` as a host mask inside the edges ``within``, with 1 <= nu(h) < k."""
    h_mask = _h_mask(host, h)
    if h_mask & ~within:
        raise ValueError("subgraph leaves the host")
    if not (1 <= host.nu[h_mask] < k):
        raise ValueError(f"need 1 <= nu(h) < k, got nu(h)={host.nu[h_mask]}, k={k}")
    return h_mask


def build_link_matching_complete(vertices, h, k: int, *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on {G within the complete host : nu(G) < k, h in G}.

    Requires 1 <= nu(h) < k.  Critical faces satisfy |sigma| <= 3k-4+|H|.
    """
    vs = vertex_bits(vertices)
    if host is None:
        host = edge_host(_complete_ground(vs))
    kv = host.bits_within(vs)
    h_mask = _link_h_mask(host, kv, h, k)
    bound = 3 * k - 4 + h_mask.bit_count()
    family = _nmlink_masks(host, kv, h_mask, k)

    if vs.bit_count() < 2 * k:
        return _result("NMLINK_COMPLETE", host, family,
                       _interval_pairs(family, kv, h_mask), bound, False)

    v = _min_h_degree(host, vs, h_mask)
    v_rest = vs & ~(1 << v)
    w = v_rest & ~host.neighbor_bits(h_mask, v)
    peel, vstar = _star_peel(host, family, h_mask, v, w, k)

    for m in peel[1]:
        if host.nu[m & ~vstar] != k - 1:
            raise ConstructionError("starless member has the wrong matching number")

    def fiber_pairs(key, members):
        if key[0] != w:
            raise ConstructionError("missable set of a starless member is not the free star")
        return _matched_join_pairs(host, h_mask & ~vstar, v_rest, key, members, key[2], key[2])

    pairs = _peel_cluster_lift(host, peel, vstar, v_rest, fiber_pairs)
    return _result("NMLINK_COMPLETE", host, family, pairs, bound, False)


def build_link_matching_bipartite(x_side, y_side, h, k: int, *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on {G within the bipartite host : nu(G) < k, h in G}.

    Requires 1 <= nu(h) < k.  Critical faces satisfy |sigma| <= 2k-3+|H|.
    """
    x, y = _sides(x_side, y_side)
    if host is None:
        host = edge_host(_bipartite_ground(x, y))
    kxy = host.bits_between(x, y)
    h_mask = _link_h_mask(host, kxy, h, k)
    bound = 2 * k - 3 + h_mask.bit_count()
    family = _nmlink_masks(host, kxy, h_mask, k)

    if min(x.bit_count(), y.bit_count()) < k:
        return _result("NMLINK_BIPARTITE", host, family,
                       _interval_pairs(family, kxy, h_mask), bound, False)

    v0 = _min_h_degree(host, x | y, h_mask)
    own, other = (y, x) if y >> v0 & 1 else (x, y)
    n_h_v = host.neighbor_bits(h_mask, v0)
    w = other & ~n_h_v
    peel, vstar = _star_peel(host, family, h_mask, v0, w, k)

    own_rest = own & ~(1 << v0)
    pairs = _peel_cluster_lift(
        host, peel, vstar, other | own_rest,
        lambda key, members: _link_bipartite_subfamily_pairs(
            host, h_mask & ~vstar, other, own_rest, w, n_h_v, key, members),
    )
    return _result("NMLINK_BIPARTITE", host, family, pairs, bound, False)


def _link_bipartite_subfamily_pairs(host, h_mask, other, own_rest, w, n_h_v, key, members):
    d, da, _comps = key
    a = da & ~d
    c = (other | own_rest) & ~da
    if d & other != w:
        raise ConstructionError("missable set on the star side is not the free star")
    a_x, a_y = a & other, a & own_rest
    c_x, c_y = c & other, c & own_rest

    if not n_h_v:
        inner = _bfc(host, other, a_y, 0, h_mask & host.bits_between(other, a_y))
        if set(inner.family) != set(members):
            raise ConstructionError("attachment family does not reproduce the subfamily")
        return inner.pairs

    if n_h_v != a_x | c_x:
        raise ConstructionError("forced neighbourhood is not the matched-or-attachment part")
    forced_cy = host.bits_between(a_x | c_x, c_y) & ~h_mask
    if forced_cy:
        raise ConstructionError("minimum-degree choice violated by a matched-side vertex")
    free = host.bits_between(a_x | c_x, a_y) & ~h_mask
    if free:
        return _complete_toggle(members, free, "decomposition-preserving toggle")

    parts = [
        _bfc_part(host, w, a_y, h_mask),
        _bfc_part(host, d & own_rest, a_x, h_mask),
        JoinPart.single(host.bits_between(a_x | c_x, a_y | c_y)),
    ]
    return _checked_join(parts, members, "bipartite link join").pairs
