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
monotone; lifts must reproduce the unmatched members).  The bipartite
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
compose by plain union.  Hosts, with their nu tables, come from the memoised
:func:`nonmatching.complexes.edge_host`, so a ground is tabulated once per
process; that holds for the small index hosts of the projection bridges too.
The recursive sub-solves (a builder called with ``host=``, the join parts
and the projection bridges) are memoised on their host by canonical
arguments, so each distinct sub-family is built and checked once per host;
a builder called without a host is not kept.
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
    normalize_edge,
)
from .morse import (
    ElementMatching,
    JoinPart,
    boolean_matching,
    cluster_union,
    join_matching,
    projection_matching,
)


def _complete_ground(vs) -> GroundSet:
    return GroundSet(tuple(sorted(normalize_edge(u, v) for u, v in itertools.combinations(sorted(vs), 2))))


def _h_mask(host: EdgeHost, h) -> int:
    """The subgraph ``h`` (a mask, a Graph or an edge list) as a host mask."""
    if isinstance(h, int):
        return h
    return host.mask_of(h.edges if isinstance(h, Graph) else h)


def _ge_key(host: EdgeHost, mask: int, vs):
    _, d, a, _, comps = host.decompose(mask, vs)
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
    return d1 <= d2 and da1 <= da2 and (d1, da1) != (d2, da2)


class ConstructionError(InternalCheckError):
    pass


def _vs(vertices) -> tuple:
    return tuple(sorted(vertices))


def _memo_on_host(canonical):
    """Memoise a sub-solve in the ``memo`` of the host it solves on.

    ``canonical(*args, **kwargs)`` gives (host, key): the host, or None for
    a call that is not kept (a builder called without a host), and the
    arguments in canonical form.  The results are immutable, so one object
    serves every caller; a call that raises is not kept.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def memoised(*args, **kwargs):
            host, key = canonical(*args, **kwargs)
            if host is None:
                return fn(*args, **kwargs)
            key = (fn.__name__, key)
            out = host.memo.get(key)
            if out is None:
                out = host.memo[key] = fn(*args, **kwargs)
            return out
        return memoised
    return wrap


def _builder_key(side_count: int):
    """The canonical arguments of a builder with ``side_count`` vertex
    arguments before ``h``: the sorted sides and the h mask."""
    def canonical(*args, h=(), host=None):
        if host is None:
            return None, None
        if len(args) > side_count:
            h = args[side_count]
        return host, (tuple(_vs(side) for side in args[:side_count]), _h_mask(host, h))
    return canonical


# ---------------------------------------------------------------------------
# Results and the shared recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionResult:
    """A built matching on an explicitly materialised family."""

    kind: str
    ground: GroundSet
    family: tuple[int, ...]
    matching: ElementMatching
    criticals: tuple[int, ...]
    bound: int
    strict: bool

    @property
    def pairs(self):
        return self.matching.pairs

    def max_critical_size(self) -> int:
        return max((m.bit_count() for m in self.criticals), default=0)

    def bound_holds(self) -> bool:
        mx = self.max_critical_size()
        if not self.family:
            return True
        return mx < self.bound if self.strict else mx <= self.bound


def _result(kind, host, family, pairs, bound, strict) -> ConstructionResult:
    matching = ElementMatching(host.ground, tuple(pairs))
    return ConstructionResult(
        kind=kind,
        ground=host.ground,
        family=tuple(sorted(family)),
        matching=matching,
        criticals=tuple(matching.critical(family)),
        bound=bound,
        strict=strict,
    )


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
    """
    key_of = {m: key_fn(m) for m in members}
    fibers: dict = {}
    for m in members:
        fibers.setdefault(key_of[m], []).append(m)
    per_key = {key: fiber_pairs(key, fiber) for key, fiber in fibers.items()}
    return cluster_union(members, key_of.__getitem__, leq, per_key)


def _peel_cluster_lift(host: EdgeHost, peel, face: int, vs, fiber_pairs) -> list:
    """The recursion every builder shares, after its first-stage matching.

    ``peel`` is (pairs, unmatched members); every unmatched member carries
    ``face``.  The members without ``face`` are clustered by their
    Gallai-Edmonds key on ``vs``, each fiber matched by
    ``fiber_pairs(key, fiber)``, and the union is lifted back by ``face``,
    which must reproduce the unmatched members exactly.
    """
    pairs0, unmatched = peel
    f_members = sorted(m & ~face for m in unmatched)
    f_pairs = _clustered_pairs(f_members, lambda m: _ge_key(host, m, vs), _ge_leq, fiber_pairs)
    if not f_members:
        return list(pairs0)
    ground = 0
    for m in f_members:
        ground |= m
    lifted = join_matching([JoinPart.make(ground, f_members, f_pairs), JoinPart.single(face)])
    if set(lifted.family) != set(unmatched):
        raise ConstructionError("toggle lift does not reproduce the unmatched part")
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


def _pick_e0_complete(host: EdgeHost, vs, h_mask: int) -> tuple[int, int, int]:
    """Least non-subgraph edge, preferring an endpoint of positive h-degree.

    Returns (bit, v, w) where w is an endpoint of positive h-degree when the
    subgraph has any edge at all.
    """
    deg = {u: (h_mask & host.bits_at.get(u, 0)).bit_count() for u in vs}
    kv = host.bits_within(vs)
    for b in mask_bits(kv & ~h_mask):
        (u, v) = host.edges[b]
        if h_mask == 0:
            return b, u, v
        if deg[u] or deg[v]:
            w = v if deg[v] else u
            other = u if w == v else v
            return b, other, w
    raise ConstructionError("no admissible toggle edge; host equals the subgraph")


# ---------------------------------------------------------------------------
# BFC builder
# ---------------------------------------------------------------------------


@_memo_on_host(_builder_key(3))
def build_bfc_matching(x_side, y_side, z_subset, h=(), *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on the two-level bipartite factor critical family.

    Members are the subgraphs of the complete bipartite graph between
    ``x_side`` and ``y_side`` containing ``h`` that are y-factor critical and
    whose restriction to ``z_subset`` x ``y_side`` is z-factor critical.
    Critical faces satisfy |sigma| <= 2|Y| + |Z| + |H|, strictly when ``h``
    has an edge.  Raises EmptyFamilyError when there are no members at all
    (as opposed to the one-member family {empty graph}).
    """
    xs, ys, zs = tuple(sorted(x_side)), tuple(sorted(y_side)), tuple(sorted(z_subset))
    if not set(zs) <= set(xs):
        raise ValueError("z_subset must be contained in x_side")
    if host is None:
        host = edge_host(GroundSet(tuple(bipartite_edge_list(xs, ys))))
    h_mask = _h_mask(host, h)
    bound = 2 * len(ys) + len(zs) + h_mask.bit_count()
    strict = h_mask.bit_count() >= 1

    if not xs or not ys:
        if h_mask:
            raise ValueError("subgraph cannot have edges over an empty side")
        return _result("BFC", host, [0], [], bound, strict)

    kxy = host.bits_between(xs, ys)
    if h_mask & ~kxy:
        raise ValueError("subgraph leaves the bipartite host")
    family = _bfc_masks(host, xs, ys, zs, h_mask)
    if not family:
        raise EmptyFamilyError(
            f"no (y,z)-factor critical supergraphs for |X|={len(xs)} |Y|={len(ys)} |Z|={len(zs)}"
        )

    x_not_z = tuple(v for v in xs if v not in zs)
    kxz_y = host.bits_between(x_not_z, ys)
    if kxz_y & ~h_mask == 0:
        # everything between X minus Z and Y is forced, so members are exactly
        # the z-factor critical graphs between Y and Z joined with that block
        res = _checked_join([_bfc_join_part(host, ys, zs, h_mask), JoinPart.single(kxz_y)],
                            family, "forced-block join")
        return _result("BFC", host, family, res.pairs, bound, strict)

    # toggle edge: v on the y side, w on the x side outside z, not in h;
    # prefer a v with h-neighbours
    cands = []
    for v in ys:
        pref = 0 if (h_mask & host.bits_at.get(v, 0)) else 1
        for w in x_not_z:
            b = host.index.get(normalize_edge(v, w))
            if b is not None and not h_mask >> b & 1:
                cands.append((pref, v, w, b))
    cands.sort()
    _, v0, w0, e0_bit = cands[0]

    pairs = _peel_cluster_lift(
        host, _toggle_peel(family, e0_bit), 1 << e0_bit, tuple(sorted(set(xs) | set(ys))),
        lambda key, members: _bfc_subfamily_pairs(host, xs, ys, zs, h_mask, v0, w0, key, members),
    )
    return _result("BFC", host, family, pairs, bound, strict)


def _bfc_subfamily_pairs(host, xs, ys, zs, h_mask, v0, w0, key, members):
    d_set, da_set, _comps = key
    a_set = da_set - d_set
    c_set = (frozenset(xs) | frozenset(ys)) - da_set
    if not (w0 in d_set and d_set <= set(xs)):
        raise ConstructionError("missable set must sit inside the x side")
    if not a_set <= set(ys):
        raise ConstructionError("attachment set must sit inside the y side")
    if v0 not in c_set:
        raise ConstructionError("toggle endpoint must land in the matched part")

    z_d = tuple(sorted(set(zs) & d_set))
    z_c = tuple(sorted(set(zs) & c_set))
    c_x = tuple(sorted(set(xs) & c_set))
    c_y = tuple(sorted(set(ys) & c_set))

    part1 = _bfc_join_part(host, d_set, a_set, h_mask, z_d)
    fyc_members, fyc_pairs = _fyc_matching(host, xs, ys, h_mask, v0, a_set, c_x, c_y, z_c)
    return _checked_join(
        [part1, JoinPart.make(host.bits_between(c_x, ys), fyc_members, fyc_pairs)],
        members, "missable/matched join",
    ).pairs


def _fyc_matching(host, xs, ys, h_mask, v0, a_set, c_x, c_y, z_c):
    """Matching on the matched-side family of the BFC decomposition.

    Members live between the matched x part and the whole y side and must
    contain the forced subgraph there, have a perfect matching across the
    matched part, and satisfy the two factor-criticality conditions.  They
    are grouped by the pair (N(v0) inside z, N(A+v0) inside z), which is a
    monotone key, and each group splits as a join of four blocks.
    """
    ground = host.bits_between(c_x, ys)
    c_y_minus = tuple(v for v in c_y if v != v0)
    z_bits = vertex_bits(z_c)
    members = []
    if len(c_x) == len(c_y):
        cand = _above(h_mask & ground, ground)
        for cover, other, surplus in ((c_x, c_y, 0), (z_c, ys, 1), (c_y_minus, c_x, 1)):
            cand = cand[hall_holds(host, cand, cover, other, surplus)]
        members = cand.tolist()

    def type_key(m):
        s = host.neighbor_bits(m, v0) & z_bits
        st = s
        for a in a_set:
            st |= host.neighbor_bits(m, a) & z_bits
        return (s, st)

    def type_leq(k1, k2):
        return k1[0] & ~k2[0] == 0 and k1[1] & ~k2[1] == 0

    def type_pairs(key, group):
        s_set, st_set = key
        return _fyc_type_pairs(host, h_mask, v0, a_set, c_x, c_y, z_c,
                               host.vertex_set(s_set), host.vertex_set(st_set & ~s_set), group)

    return tuple(members), tuple(_clustered_pairs(members, type_key, type_leq, type_pairs))


def _fyc_type_pairs(host, h_mask, v0, a_set, c_x, c_y, z_c, s_set, t_set, members):
    q_set = tuple(v for v in c_x if v not in z_c)
    r_set = tuple(v for v in z_c if v not in s_set and v not in t_set)
    c_y_minus = tuple(v for v in c_y if v != v0)

    # block at v0: forced edges to h-neighbours and the s-part, free ones to
    # the rest of the unconstrained x part
    h_v = h_mask & host.bits_at.get(v0, 0) & host.bits_between(c_x, (v0,))
    n_prime = host.vertex_set(host.neighbor_bits(h_v, v0))
    if n_prime & (set(t_set) | set(r_set)):
        raise ConstructionError("forced neighbours contradict the type")
    forced = host.bits_between(sorted(n_prime | s_set), (v0,))
    free_q = host.bits_between([q for q in q_set if q not in n_prime], (v0,))
    if forced:
        if free_q:
            subs = submasks(free_q)
            p = _complete_toggle(subs, free_q, "free toggle block")
            pv = join_matching([JoinPart.single(forced), JoinPart.make(free_q, subs, p)])
            pv_family, pv_pairs = pv.family, pv.pairs
        else:
            pv_family, pv_pairs = (forced,), ()
    else:
        fam = [s for s in submasks(free_q) if s]
        if not fam:
            raise ConstructionError("neighbourless block in a non-empty type")
        pv_pairs, _, _ = boolean_matching(fam, min(mask_bits(free_q)))
        pv_family = tuple(sorted(fam))
    pv_ground = host.bits_between(c_x, (v0,))

    # block between the z-part and the attachment set
    pa_ground = host.bits_between(z_c, a_set)
    h2 = h_mask & pa_ground
    n2 = frozenset(v for v in z_c if h2 & host.bits_at.get(v, 0))
    pa_members = []
    for s in submasks(pa_ground & ~h2):
        m = h2 | s
        hit = frozenset(v for v in z_c if m & host.bits_at.get(v, 0))
        if not (set(t_set) <= hit <= (set(s_set) | set(t_set))):
            continue
        if not q_set and not hit:
            continue
        pa_members.append(m)
    if not pa_members:
        raise ConstructionError("empty attachment block in a non-empty type")
    if not a_set:
        pa_family, pa_pairs = tuple(pa_members), ()
    else:
        freebits = host.bits_between(sorted(set(n2) | set(s_set)), a_set) & ~h2
        if freebits:
            e = min(mask_bits(freebits))
            pa_pairs, _, pa_rest = boolean_matching(pa_members, e)
            if pa_rest and pa_rest != [1 << e]:
                raise ConstructionError("attachment toggle left unexpected criticals")
            pa_family = tuple(pa_members)
        else:
            blocks = [JoinPart.single(h2)]
            t_minus = tuple(v for v in t_set if v not in n2)
            if t_minus:
                parts = [host.bits_between((z,), a_set) for z in sorted(t_minus)]
                full = (1 << len(parts)) - 1
                lift = projection_matching(parts, 0, [full], [])
                blocks.append(JoinPart.make(host.bits_between(t_minus, a_set), lift.family, lift.pairs))
            res = _checked_join(blocks, pa_members, "attachment block join")
            pa_family, pa_pairs = res.family, res.pairs

    # block between the unconstrained x part and the attachment set
    pq_ground = host.bits_between(q_set, a_set)
    hq = h_mask & pq_ground
    pq_family = tuple(hq | s for s in submasks(pq_ground & ~hq))
    pq_pairs = _interval_pairs(pq_family, pq_ground, hq)

    return _checked_join(
        [JoinPart.make(pv_ground, pv_family, pv_pairs),
         JoinPart.make(pa_ground, pa_family, pa_pairs),
         JoinPart.make(pq_ground, pq_family, pq_pairs),
         _bfc_join_part(host, c_x, c_y_minus, h_mask, r_set)],
        members, "type join",
    ).pairs


@_memo_on_host(lambda host, side_x, side_y, h_mask, z_subset=(): (
    host, (_vs(side_x), _vs(side_y), _vs(z_subset), h_mask & host.bits_between(side_x, side_y))))
def _bfc_join_part(host, side_x, side_y, h_mask, z_subset=()) -> JoinPart:
    ground = host.bits_between(side_x, side_y)
    sub = build_bfc_matching(sorted(side_x), sorted(side_y), z_subset, h_mask & ground, host=host)
    return JoinPart.make(ground, sub.family, sub.pairs)


@_memo_on_host(lambda host, comp, h_mask: (host, (_vs(comp), h_mask & host.bits_within(comp))))
def _fc_join_part(host, comp, h_mask) -> JoinPart:
    ground = host.bits_within(comp)
    sub = build_fc_matching(sorted(comp), h_mask & ground, host=host)
    return JoinPart.make(ground, sub.family, sub.pairs)


# ---------------------------------------------------------------------------
# Projection bridges
# ---------------------------------------------------------------------------


@_memo_on_host(lambda host, d_groups, a_list, z_group_count, tau: (
    host, (tuple(_vs(group) for group in d_groups), _vs(a_list), z_group_count, tau)))
def _lifted_bfc_projection(host: EdgeHost, d_groups, a_list, z_group_count: int, tau: int):
    """Matching on bipartite graphs between the missable part and ``a_list``
    whose group-contraction is factor critical on the a side.

    ``d_groups`` are disjoint vertex groups; the contraction sends all edges
    between one group and one a-vertex to a single index edge.  The index
    family is a BFC family on a fresh host, matched recursively and lifted
    through the partition projection.
    """
    g_count = len(d_groups)
    a_sorted = sorted(a_list)
    parts = []
    for gi in range(g_count):
        for a in a_sorted:
            parts.append(host.bits_between(d_groups[gi], (a,)))
    # local bipartite host on fresh labels: groups then a-vertices
    local_x = tuple(range(g_count))
    local_y = tuple(range(g_count, g_count + len(a_sorted)))
    local_edges = bipartite_edge_list(local_x, local_y)
    local = edge_host(GroundSet(tuple(local_edges)))
    # parts order must agree with the local ground order
    order_check = [
        (min(gi, g_count + ai), max(gi, g_count + ai))
        for gi in local_x
        for ai in range(len(a_sorted))
    ]
    if tuple(local_edges) != tuple(order_check):
        raise ConstructionError("projection part order drifted from the index ground")
    q_h = 0
    for pos, pm in enumerate(parts):
        if tau & pm:
            q_h |= 1 << pos
    q = build_bfc_matching(local_x, local_y, tuple(range(z_group_count)), q_h, host=local)
    return projection_matching(parts, tau, q.family, q.pairs)


@_memo_on_host(lambda host, a_set, c_list, tau: (host, (_vs(a_set), _vs(c_list), tau)))
def _lifted_fc_projection(host: EdgeHost, a_set, c_list, tau: int):
    """Matching on graphs over (A x C) union (C x C) whose contraction of the
    whole set A to one point is factor critical; lifted from an FC family on
    a fresh host with |C|+1 vertices (contracted point labelled 0)."""
    c_sorted = sorted(c_list)
    local_n = 1 + len(c_sorted)
    local_edges = complete_edge_list(local_n)
    parts = []
    for (i, j) in local_edges:
        if i == 0:
            parts.append(host.bits_between(a_set, (c_sorted[j - 1],)))
        else:
            parts.append(1 << host.index[normalize_edge(c_sorted[i - 1], c_sorted[j - 1])])
    local = edge_host(GroundSet(tuple(local_edges)))
    q_h = 0
    for pos, pm in enumerate(parts):
        if tau & pm:
            q_h |= 1 << pos
    q = build_fc_matching(tuple(range(local_n)), q_h, host=local)
    return projection_matching(parts, tau, q.family, q.pairs)


# ---------------------------------------------------------------------------
# PM builder
# ---------------------------------------------------------------------------


@_memo_on_host(_builder_key(1))
def build_pm_matching(vertices, h=(), *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on perfectly matchable supergraphs of ``h``.

    Members are the subgraphs of the complete graph on ``vertices``
    containing ``h`` with a perfect matching on all of ``vertices``.
    Critical faces satisfy |sigma| <= (3/2)|V| + |H|, strictly when the
    vertex set is non-empty.  An odd vertex set gives the empty family (and
    an empty matching on it); the empty vertex set gives {empty graph}.
    """
    vs = tuple(sorted(vertices))
    if host is None:
        host = edge_host(_complete_ground(vs))
    h_mask = _h_mask(host, h)
    bound = 3 * len(vs) // 2 + h_mask.bit_count()
    strict = len(vs) > 0
    kv = host.bits_within(vs)
    if h_mask & ~kv:
        raise ValueError("subgraph leaves the host vertex set")
    family = _pm_masks(host, vs, h_mask)
    if not vs or not family or h_mask == kv:
        return _result("PM", host, family, [], bound, strict)

    e0_bit, v0, w0 = _pick_e0_complete(host, vs, h_mask)

    def fiber_pairs(key, members):
        ordered = _components_ordered_for(key[2], v0, w0)
        d_groups = [[c] for c in ordered[:-2]] + [ordered[-2:]]
        return _matched_join_pairs(host, h_mask, vs, key, members, d_groups)

    pairs = _peel_cluster_lift(host, _toggle_peel(family, e0_bit), 1 << e0_bit, vs, fiber_pairs)
    return _result("PM", host, family, pairs, bound, strict)


def _components_ordered_for(comps, v0, w0):
    """Components with the ones containing v0 / w0 moved to the last two slots."""
    comp_v = next(c for c in comps if v0 in c)
    comp_w = next(c for c in comps if w0 in c)
    if comp_v == comp_w:
        raise ConstructionError("toggle endpoints landed in one missable component")
    others = [c for c in comps if c is not comp_v and c is not comp_w]
    return others + [comp_v, comp_w]


def _matched_join_pairs(host, h_mask, universe, key, members, d_groups):
    """Matching on one Gallai-Edmonds fiber of the PM or complete-link family.

    Unless a free edge at A gives a complete toggle, members are the join of
    FC families on the components of D, a projection family between D and
    A, a PM family on C, and the forced edges at A.  ``d_groups`` lists the
    components of D in join order, grouped: each group is contracted to one
    index vertex of the projection (PM merges the components of the toggle
    edge's endpoints; the link family keeps every component apart).
    """
    d_set, da_set, _ = key
    a_set = da_set - d_set
    c_set = frozenset(universe) - da_set

    free = (host.bits_within(a_set) | host.bits_between(a_set, c_set)) & ~h_mask
    if free:
        return _complete_toggle(members, free, "decomposition-preserving toggle")

    parts = [_fc_join_part(host, comp, h_mask) for group in d_groups for comp in group]
    proj = _lifted_bfc_projection(host, [frozenset().union(*group) for group in d_groups],
                                  sorted(a_set), 0, h_mask & host.bits_between(d_set, a_set))
    subpm = build_pm_matching(sorted(c_set), h_mask & host.bits_within(c_set), host=host)
    parts += [
        JoinPart.make(host.bits_between(d_set, a_set), proj.family, proj.pairs),
        JoinPart.make(host.bits_within(c_set), subpm.family, subpm.pairs),
        JoinPart.single(host.bits_within(a_set)),
        JoinPart.single(host.bits_between(a_set, c_set)),
    ]
    return _checked_join(parts, members, "matched join").pairs


# ---------------------------------------------------------------------------
# FC builder
# ---------------------------------------------------------------------------


@_memo_on_host(_builder_key(1))
def build_fc_matching(vertices, h=(), *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on factor critical supergraphs of ``h``.

    Members are subgraphs of the complete graph on ``vertices`` containing
    ``h`` that are factor critical on all of ``vertices`` (|V| must be odd).
    Critical faces satisfy |sigma| <= (3/2)(|V|-1) + |H|, strictly when ``h``
    has an edge.
    """
    vs = tuple(sorted(vertices))
    if len(vs) % 2 == 0:
        raise ValueError("factor critical families need an odd vertex count")
    if host is None:
        host = edge_host(_complete_ground(vs))
    h_mask = _h_mask(host, h)
    bound = 3 * (len(vs) - 1) // 2 + h_mask.bit_count()
    strict = h_mask.bit_count() >= 1
    kv = host.bits_within(vs)
    if h_mask & ~kv:
        raise ValueError("subgraph leaves the host vertex set")
    family = _fc_masks(host, vs, h_mask)
    if len(vs) == 1 or h_mask == kv:
        return _result("FC", host, family, [], bound, strict)

    e0_bit, v0, w0 = _pick_e0_complete(host, vs, h_mask)
    pairs = _peel_cluster_lift(
        host, _toggle_peel(family, e0_bit), 1 << e0_bit, vs,
        lambda key, members: _fc_subfamily_pairs(host, vs, h_mask, v0, w0, key, members),
    )
    return _result("FC", host, family, pairs, bound, strict)


def _fc_subfamily_pairs(host, vs, h_mask, v0, w0, key, members):
    d_set, da_set, comps = key
    a_set = da_set - d_set
    c_set = frozenset(vs) - da_set
    if not a_set:
        raise ConstructionError("near-critical members must have attachment vertices")

    free = host.bits_within(a_set) & ~h_mask
    if free:
        return _complete_toggle(members, free, "decomposition-preserving toggle")

    ordered = _components_ordered_for(comps, v0, w0)
    parts = [_fc_join_part(host, comp, h_mask) for comp in ordered]
    proj = _lifted_bfc_projection(host, ordered, sorted(a_set), len(ordered) - 2,
                                  h_mask & host.bits_between(d_set, a_set))
    ac_ground = host.bits_between(a_set, c_set) | host.bits_within(c_set)
    proj2 = _lifted_fc_projection(host, sorted(a_set), sorted(c_set), h_mask & ac_ground)
    parts += [
        JoinPart.make(host.bits_between(d_set, a_set), proj.family, proj.pairs),
        JoinPart.make(ac_ground, proj2.family, proj2.pairs),
        JoinPart.single(host.bits_within(a_set)),
    ]
    return _checked_join(parts, members, "factor-critical join").pairs


# ---------------------------------------------------------------------------
# Link-family builders
# ---------------------------------------------------------------------------


def _interval_pairs(family, within: int, h_mask: int):
    """Matching on an inclusion interval: complete unless it is one face."""
    free = within & ~h_mask
    return _complete_toggle(family, free, "interval toggle") if free else []


def _star_peel(host, family, h_mask, v, w_set, k: int):
    """Complete matching on the members with an addable free star edge at v.

    The free star is the edges from ``v`` to ``w_set``.  Members cluster by
    their star-free part; each cluster is a toggle cube over its addable
    star edges.  Returns ((pairs, the other members), the h-edges at v);
    every member left over meets v in exactly those h-edges.
    """
    s_bits = host.bits_between(w_set, (v,))
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
                if host.nu_of(base | (1 << b)) < k:
                    addable |= 1 << b
            addable_of_base[base] = addable
        # an addable edge already present also witnesses membership in f0
        if addable & m or any(host.nu_of(m | (1 << b)) < k for b in mask_bits(s_bits & ~m)):
            f0.append(m)
        else:
            f1.append(m)

    def fiber_pairs(base, fiber):
        if not addable_of_base[base]:
            raise ConstructionError("cluster fiber with no addable star edge")
        return _complete_toggle(fiber, addable_of_base[base], "star fiber toggle")

    pairs = _clustered_pairs(f0, lambda m: m & ~s_bits, lambda a, b: a & ~b == 0, fiber_pairs)
    vstar = h_mask & host.bits_at.get(v, 0)
    if any(m & host.bits_at.get(v, 0) != vstar for m in f1):
        raise ConstructionError("starless members carry stray star edges")
    return (pairs, f1), vstar


def build_link_matching_complete(vertices, h, k: int, *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on {G within the complete host : nu(G) < k, h in G}.

    Requires 1 <= nu(h) < k.  Critical faces satisfy |sigma| <= 3k-4+|H|.
    """
    vs = tuple(sorted(vertices))
    if host is None:
        host = edge_host(_complete_ground(vs))
    h_mask = _h_mask(host, h)
    kv = host.bits_within(vs)
    if h_mask & ~kv:
        raise ValueError("subgraph leaves the host vertex set")
    nu_h = host.nu_of(h_mask)
    if not (1 <= nu_h < k):
        raise ValueError(f"need 1 <= nu(h) < k, got nu(h)={nu_h}, k={k}")
    bound = 3 * k - 4 + h_mask.bit_count()
    family = _nmlink_masks(host, kv, h_mask, k)

    if len(vs) < 2 * k:
        return _result("NMLINK_COMPLETE", host, family,
                       _interval_pairs(family, kv, h_mask), bound, False)

    deg = {u: (h_mask & host.bits_at.get(u, 0)).bit_count() for u in vs}
    v = min(vs, key=lambda u: (deg[u], u))
    n_h_v = host.vertex_set(host.neighbor_bits(h_mask, v))
    w_set = tuple(u for u in vs if u != v and u not in n_h_v)
    peel, vstar = _star_peel(host, family, h_mask, v, w_set, k)

    v_rest = tuple(u for u in vs if u != v)
    for m in peel[1]:
        if host.nu_of(m & ~vstar) != k - 1:
            raise ConstructionError("starless member has the wrong matching number")

    def fiber_pairs(key, members):
        if key[0] != frozenset(w_set):
            raise ConstructionError("missable set of a starless member is not the free star")
        return _matched_join_pairs(host, h_mask & ~vstar, v_rest, key, members,
                                   [[c] for c in key[2]])

    pairs = _peel_cluster_lift(host, peel, vstar, v_rest, fiber_pairs)
    return _result("NMLINK_COMPLETE", host, family, pairs, bound, False)


def build_link_matching_bipartite(x_side, y_side, h, k: int, *, host: EdgeHost | None = None) -> ConstructionResult:
    """Acyclic matching on {G within the bipartite host : nu(G) < k, h in G}.

    Requires 1 <= nu(h) < k.  Critical faces satisfy |sigma| <= 2k-3+|H|.
    """
    xs, ys = tuple(sorted(x_side)), tuple(sorted(y_side))
    if host is None:
        host = edge_host(GroundSet(tuple(bipartite_edge_list(xs, ys))))
    h_mask = _h_mask(host, h)
    kxy = host.bits_between(xs, ys)
    if h_mask & ~kxy:
        raise ValueError("subgraph leaves the bipartite host")
    nu_h = host.nu_of(h_mask)
    if not (1 <= nu_h < k):
        raise ValueError(f"need 1 <= nu(h) < k, got nu(h)={nu_h}, k={k}")
    bound = 2 * k - 3 + h_mask.bit_count()
    family = _nmlink_masks(host, kxy, h_mask, k)

    if min(len(xs), len(ys)) < k:
        return _result("NMLINK_BIPARTITE", host, family,
                       _interval_pairs(family, kxy, h_mask), bound, False)

    deg = {u: (h_mask & host.bits_at.get(u, 0)).bit_count() for u in xs + ys}
    v0 = min(xs + ys, key=lambda u: (deg[u], u))
    own, other = (ys, xs) if v0 in ys else (xs, ys)
    n_h_v = host.vertex_set(host.neighbor_bits(h_mask, v0))
    w_set = tuple(u for u in other if u not in n_h_v)
    peel, vstar = _star_peel(host, family, h_mask, v0, w_set, k)

    own_rest = tuple(u for u in own if u != v0)
    pairs = _peel_cluster_lift(
        host, peel, vstar, tuple(u for u in xs + ys if u != v0),
        lambda key, members: _link_bipartite_subfamily_pairs(
            host, h_mask & ~vstar, other, own_rest, w_set, n_h_v, key, members),
    )
    return _result("NMLINK_BIPARTITE", host, family, pairs, bound, False)


def _link_bipartite_subfamily_pairs(host, h_mask, other, own_rest, w_set, n_h_v, key, members):
    d_set, da_set, _comps = key
    a_set = da_set - d_set
    universe = frozenset(other) | frozenset(own_rest)
    c_set = universe - da_set
    d_x = d_set & frozenset(other)
    if d_x != frozenset(w_set):
        raise ConstructionError("missable set on the star side is not the free star")
    a_x = a_set & frozenset(other)
    a_y = a_set & frozenset(own_rest)
    c_x = c_set & frozenset(other)
    c_y = c_set & frozenset(own_rest)
    d_y = d_set & frozenset(own_rest)

    if not n_h_v:
        inner = build_bfc_matching(other, sorted(a_y), (),
                                   h_mask & host.bits_between(other, a_y), host=host)
        if set(inner.family) != set(members):
            raise ConstructionError("attachment family does not reproduce the subfamily")
        return inner.pairs

    if frozenset(n_h_v) != a_x | c_x:
        raise ConstructionError("forced neighbourhood is not the matched-or-attachment part")
    forced_cy = host.bits_between(a_x | c_x, c_y) & ~h_mask
    if forced_cy:
        raise ConstructionError("minimum-degree choice violated by a matched-side vertex")
    free = host.bits_between(a_x | c_x, a_y) & ~h_mask
    if free:
        return _complete_toggle(members, free, "decomposition-preserving toggle")

    parts = [
        _bfc_join_part(host, d_x, a_y, h_mask),
        _bfc_join_part(host, d_y, a_x, h_mask),
        JoinPart.single(host.bits_between(a_x | c_x, a_y | c_y)),
    ]
    return _checked_join(parts, members, "bipartite link join").pairs
