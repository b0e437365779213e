"""Discrete Morse machinery: element matchings, validation, and combinators.

A family is a collection of faces, each face an integer bitmask over a fixed
ground.  An element matching pairs faces (sigma, tau) with sigma < tau
differing in exactly one element, each face in at most one pair; it is
passed around as its plain sequence of pairs.  Faces left unpaired are
critical.  The modified Hasse digraph points matched pairs upward and all
other one-element covers downward; when it is acyclic the number of
critical faces per dimension bounds the Betti numbers.

A matching is checked one way, by :func:`validate_matching` (definition
and criticals) and :func:`is_acyclic`: :func:`check_matching` reports the
outcome, and :func:`_checked` raises on any matching handed to a combinator
or the Morse inequality that fails it.  Every combinator follows a
constructive existence proof and re-checks what it claims (acyclicity,
critical-set structure) instead of trusting it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from .complexes import SimplicialComplex, mask_bits, submasks
from .errors import EmptyFamilyError, InternalCheckError, MonotonicityError
from .homology import FieldSpec, GF2, reduced_betti

Pair = tuple[int, int]


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of validating (and optionally cycle-checking) a matching."""

    valid: bool
    acyclic: bool | None
    critical: tuple[int, ...]
    max_critical_size: int
    witness_cycle: tuple[int, ...] | None = None
    problems: tuple[str, ...] = ()


def validate_matching(family, pairs) -> MatchingReport:
    """Definition-level validation: pair shape and single-use, plus criticals.

    Faces outside the family are an error; shape violations make the report
    invalid.  Acyclicity is not evaluated here (flag left unset).
    """
    fam = set(family)
    problems = []
    used: set[int] = set()
    for (s, t) in pairs:
        if s not in fam or t not in fam:
            raise ValueError(f"pair ({s:x},{t:x}) uses faces outside the family")
        if s & ~t:
            problems.append(f"pair ({s:x},{t:x}): sigma not a subset of tau")
        elif (t ^ s).bit_count() != 1:
            problems.append(f"pair ({s:x},{t:x}): size gap is not one element")
        for m in (s, t):
            if m in used:
                problems.append(f"face {m:x} used by more than one pair")
            used.add(m)
    critical = tuple(sorted(m for m in fam if m not in used))
    max_size = max((m.bit_count() for m in critical), default=0)
    return MatchingReport(
        valid=not problems,
        acyclic=None,
        critical=critical,
        max_critical_size=max_size,
        problems=tuple(problems),
    )


def is_acyclic(family, pairs) -> tuple[bool, tuple[int, ...] | None]:
    """Cycle detection on the modified Hasse digraph.

    Any directed cycle alternates matched up-steps with cover down-steps, so
    only faces that occur in pairs can lie on one; the search therefore runs
    on the digraph whose nodes are the pairs themselves, with an arc from
    (sigma, tau) to every pair whose lower face is tau less one element of
    sigma.  The pairs must form a valid matching (see
    :func:`validate_matching`).  Pairs nothing points to are peeled off
    until none is left (acyclic) or every pair left has a predecessor left;
    walking predecessors from one of those then closes a cycle.  The
    witness, when a cycle exists, is the face sequence (sigma_0, tau_0,
    sigma_1, tau_1, ...) with every (sigma_i, tau_i) matched and sigma_{i+1}
    a cover below tau_i.
    """
    plist = list(pairs)
    lower = {s: idx for idx, (s, _) in enumerate(plist)}
    succ: list[list[int]] = []
    indeg = [0] * len(plist)
    for s, t in plist:
        out = []
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            j = lower.get(t ^ low)
            if j is not None:
                out.append(j)
                indeg[j] += 1
        succ.append(out)

    ready = [i for i, d in enumerate(indeg) if not d]
    left = len(plist)
    while ready:
        i = ready.pop()
        left -= 1
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    if not left:
        return True, None

    # the pairs left are those with indeg > 0, each counting its arcs from
    # pairs left; walk one predecessor back from each until a pair repeats
    pred = {}
    for i, out in enumerate(succ):
        if indeg[i]:
            for j in out:
                if indeg[j]:
                    pred.setdefault(j, i)
    node = next(i for i, d in enumerate(indeg) if d)
    seen: dict[int, int] = {}
    walk = []
    while node not in seen:
        seen[node] = len(walk)
        walk.append(node)
        node = pred[node]
    faces: list[int] = []
    for p in reversed(walk[seen[node]:]):
        faces.extend(plist[p])
    return False, tuple(faces)


def witness_has_alternating_shape(witness, pairs) -> bool:
    """Check a cycle witness: matched up-steps alternating with covers down."""
    if witness is None or len(witness) < 6 or len(witness) % 2:
        return False
    pset = set(pairs)
    t = len(witness) // 2
    for i in range(t):
        s, tau = witness[2 * i], witness[2 * i + 1]
        s_next = witness[(2 * i + 2) % len(witness)]
        if (s, tau) not in pset:
            return False
        if s & ~tau or (tau ^ s).bit_count() != 1:
            return False
        if s_next & ~tau or (tau ^ s_next).bit_count() != 1 or s_next == s:
            return False
    return True


def check_matching(family, pairs) -> MatchingReport:
    """Full validation: the report of :func:`validate_matching` (criticals
    included) with, for a valid matching, the acyclicity verdict of
    :func:`is_acyclic` and its cycle witness, whose alternating shape is
    re-checked.  An invalid matching is reported with ``acyclic`` unset."""
    report = validate_matching(family, pairs)
    if not report.valid:
        return report
    ok, witness = is_acyclic(family, pairs)
    if not ok and not witness_has_alternating_shape(witness, pairs):
        raise InternalCheckError("cycle witness lost its alternating shape")
    return replace(report, acyclic=ok, witness_cycle=witness)


def _checked(family, pairs, what: str) -> MatchingReport:
    """The report of a matching handed to a combinator, which must be valid
    and acyclic: a ``ValueError`` that names it, "invalid <what>" or
    "cyclic <what>", otherwise."""
    rep = validate_matching(family, pairs)
    if not rep.valid:
        raise ValueError(f"invalid {what}: {rep.problems[:1]}")
    ok, _ = is_acyclic(family, pairs)
    if not ok:
        raise ValueError(f"cyclic {what}")
    return replace(rep, acyclic=True)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def boolean_matching(family, e0_bit: int) -> tuple[list[Pair], list[int], list[int]]:
    """Toggle matching on one ground element.

    Splits the family into F0 = faces whose e0-toggle partner is also in the
    family (matched completely by toggling) and F1 = the rest.  The union of
    this matching with any acyclic matching on F1 stays acyclic.
    Returns (pairs on F0, F0, F1).
    """
    fam = set(family)
    bit = 1 << e0_bit
    f0 = [m for m in fam if (m | bit) in fam and (m & ~bit) in fam]
    pairs = [(m, m | bit) for m in f0 if not m & bit]
    f0set = set(f0)
    f1 = sorted(fam - f0set)
    return pairs, sorted(f0), f1


def _verify_monotone(family, key_of, leq):
    """Check ``leq(key(sigma), key(tau))`` on every covering pair of members.

    Covering pairs (tau and tau less one element, both members) imply every
    comparable pair when each two members sigma < tau are joined by a chain
    of members, one element apart, and ``leq`` is transitive.  ``leq`` is
    called once per distinct pair of distinct keys; equal keys pass, since
    it is reflexive.
    """
    key_ids: dict = {}
    kid = {m: key_ids.setdefault(key_of[m], len(key_ids)) for m in family}
    keys = list(key_ids)
    ordered: set[tuple[int, int]] = set()
    for tau in family:
        kt = kid[tau]
        rest = tau
        while rest:
            low = rest & -rest
            rest ^= low
            ks = kid.get(tau ^ low, kt)
            if ks == kt or (ks, kt) in ordered:
                continue
            if not leq(keys[ks], keys[kt]):
                raise MonotonicityError(
                    f"key map not monotone: {tau ^ low:x} subset of {tau:x} "
                    f"but keys are not ordered"
                )
            ordered.add((ks, kt))


def cluster_union(family, key_fn, leq, part_pairs) -> list[Pair]:
    """Union of per-fiber matchings for a monotone key into a poset.

    ``key_fn`` maps faces to keys, ``leq`` is the poset order on keys
    (reflexive and transitive), ``part_pairs`` maps keys to that fiber's
    matching.  Monotonicity (sigma subset of tau implies key(sigma) <=
    key(tau)) is verified on the covering pairs of the family, which
    implies it for every pair only when the family meets the chain
    condition: every two members sigma < tau are joined by a chain of
    members, each one element larger than the last (a convex family, such
    as an interval or an up-closed family, meets it).  The union is
    re-checked for acyclicity.
    """
    fam_sorted = sorted(set(family))
    key_of = {m: key_fn(m) for m in fam_sorted}
    fibers: dict = {}
    for m in fam_sorted:
        fibers.setdefault(key_of[m], []).append(m)
    for k, pl in part_pairs.items():
        if k not in fibers and pl:
            raise ValueError("matching supplied for a key with an empty fiber")
        fiber = set(fibers.get(k, ()))
        for (s, t) in pl:
            if s not in fiber or t not in fiber:
                raise ValueError("per-part matching leaves its fiber")
    _verify_monotone(fam_sorted, key_of, leq)
    order = sorted(fibers, key=lambda k: fibers[k][0])
    pairs = [p for k in order for p in part_pairs.get(k, ())]
    ok, _ = is_acyclic(fam_sorted, pairs)
    if not ok:
        raise InternalCheckError("cluster union came out cyclic")
    return pairs


@dataclass(frozen=True)
class JoinPart:
    """One factor of a join: its ground bits, family, and acyclic matching."""

    ground_mask: int
    family: tuple[int, ...]
    pairs: tuple[Pair, ...]

    @classmethod
    def make(cls, ground_mask, family, pairs) -> "JoinPart":
        # pairs as tuples, so that the part hashes (join_matching keys its
        # part checks by value)
        return cls(ground_mask, tuple(sorted(set(family))), tuple(map(tuple, pairs)))

    @classmethod
    def single(cls, face_mask: int, ground_mask: int | None = None) -> "JoinPart":
        """A one-member family with the empty matching (one critical face)."""
        gm = face_mask if ground_mask is None else ground_mask
        return cls(gm, (face_mask,), ())


@dataclass(frozen=True)
class FamilyMatching:
    """A family, an acyclic matching on it, and its critical faces."""

    family: tuple[int, ...]
    pairs: tuple[Pair, ...]
    criticals: tuple[int, ...]


@functools.lru_cache(maxsize=4096)
def _part_criticals(part: JoinPart) -> tuple[int, ...]:
    """The critical faces of a join part, after checking that its faces lie
    in its ground and its matching is valid and acyclic.

    Kept per part value, so a part reused by many joins is checked once;
    a part that fails raises on every call.
    """
    for m in part.family:
        if m & ~part.ground_mask:
            raise ValueError("family face leaves its part ground")
    return _checked(part.family, part.pairs, "part matching").critical


def join_matching(parts) -> FamilyMatching:
    """Acyclic matching on a join of families over disjoint ground parts.

    Parts are processed sorted by critical-set size; a pair of the combined
    matching takes a matched pair of the i-th part, joined with critical
    faces from earlier parts and arbitrary faces from later parts.  The
    criticals of the output are exactly the joins of per-part criticals,
    which is asserted.
    """
    parts = [p if isinstance(p, JoinPart) else JoinPart.make(*p) for p in parts]
    used = 0
    for p in parts:
        if not p.family:
            raise EmptyFamilyError("join over an empty family part")
        if p.ground_mask & used:
            raise ValueError("join parts must have disjoint grounds")
        used |= p.ground_mask
    crit = [_part_criticals(p) for p in parts]

    order = sorted(range(len(parts)), key=lambda i: (len(crit[i]), i))
    m = len(parts)
    suffix: list[list[int]] = [[] for _ in range(m + 1)]
    suffix[m] = [0]
    for pos in range(m - 1, -1, -1):
        fam = parts[order[pos]].family
        suffix[pos] = [f | b for f in fam for b in suffix[pos + 1]]
    pairs: list[Pair] = []
    alphas = [0]
    for pos in range(m):
        i = order[pos]
        betas = suffix[pos + 1]
        for a in alphas:
            for (s, t) in parts[i].pairs:
                sa, ta = a | s, a | t
                for b in betas:
                    pairs.append((sa | b, ta | b))
        alphas = [a | c for a in alphas for c in crit[i]]
        if not alphas:
            break
    family = tuple(sorted(suffix[0]))
    criticals = tuple(sorted(alphas))
    if len(family) != len(set(family)):
        raise InternalCheckError("join family has colliding faces")
    matched = {f for pair in pairs for f in pair}
    actual = tuple(f for f in family if f not in matched)
    if actual != criticals:
        raise InternalCheckError("join criticals differ from the join of part criticals")
    return FamilyMatching(family, tuple(pairs), criticals)


def _part_choices(part_mask: int, tau: int) -> list[int]:
    """Possible intersections of a member with one part, given it meets it."""
    base = part_mask & tau
    free = part_mask & ~tau
    if base == 0:
        return [s for s in submasks(free) if s]
    return [base | s for s in submasks(free)]


def projection_matching(part_masks, tau: int, q_family, q_pairs) -> FamilyMatching:
    """Lift a matching through the partition projection map.

    The ground splits into the given parts; pi(sigma) is the set of part
    indices sigma meets.  The lifted family is F = {sigma : pi(sigma) in the
    projected family, tau subset of sigma}.  Requires every projected face to
    contain pi(tau) (that is exactly when the projected family equals pi(F)),
    and the supplied matching to be valid and acyclic.  Critical faces of the
    lift inject into projected criticals with
    |sigma| = |pi(sigma)| - |pi(tau)| + |tau|, which is asserted.
    """
    parts = list(part_masks)
    union = 0
    for pm in parts:
        if pm & union:
            raise ValueError("projection parts must be disjoint")
        union |= pm
    if tau & ~union:
        raise ValueError("tau must lie inside the partitioned ground")
    pi_tau = 0
    for i, pm in enumerate(parts):
        if pm & tau:
            pi_tau |= 1 << i
    qfam = sorted(set(q_family))
    for g in qfam:
        if pi_tau & ~g:
            raise ValueError("projected family member misses pi(tau); lift undefined")
    rep = _checked(qfam, q_pairs, "projected matching")

    def members_with_projection(gamma: int) -> list[int]:
        out = [tau]
        for i in mask_bits(gamma):
            choices = _part_choices(parts[i], tau)
            out = [m | c for m in out for c in choices]
        return out

    family: list[int] = []
    pairs: list[Pair] = []
    criticals: list[int] = []

    for (g1, g2) in q_pairs:
        i = next(mask_bits(g2 & ~g1))
        bit = parts[i] & -parts[i]
        base = members_with_projection(g1)
        subs = submasks(parts[i])
        block = [a | s for a in base for s in subs]
        family.extend(block)
        pairs.extend((m_, m_ | bit) for m_ in block if not m_ & bit)

    for gamma in rep.critical:
        # X_gamma = join over the parts of gamma of the per-part choice family
        # (tau bits sit in their own one-face factor)
        join_parts = [JoinPart.single(tau, tau)] if tau else [JoinPart.make(0, (0,), ())]
        complete = False
        for i in mask_bits(gamma):
            base = parts[i] & tau
            free = parts[i] & ~tau
            if base == 0:
                # non-empty subsets of the part: toggle leaves one singleton
                choices = [s for s in submasks(free) if s]
                e = min(mask_bits(parts[i]))
                p, _, f1 = boolean_matching(choices, e)
                join_parts.append(JoinPart.make(parts[i], choices, p))
            elif free:
                # all subsets of the free bits: the toggle matching is complete
                choices = submasks(free)
                e = min(mask_bits(free))
                p, _, f1 = boolean_matching(choices, e)
                if f1:
                    raise InternalCheckError("expected a complete toggle matching")
                complete = True
                join_parts.append(JoinPart.make(free, choices, p))
            else:
                # part fully inside tau: contributes nothing beyond tau itself
                join_parts.append(JoinPart.make(0, (0,), ()))
        res = join_matching(join_parts)
        family.extend(res.family)
        pairs.extend(res.pairs)
        criticals.extend(res.criticals)
        if complete and res.criticals:
            raise InternalCheckError("complete block produced criticals")
        for c in res.criticals:
            expect = gamma.bit_count() - pi_tau.bit_count() + tau.bit_count()
            if c.bit_count() != expect:
                raise InternalCheckError("lifted critical has the wrong size")

    if len(set(family)) != len(family):
        raise InternalCheckError("projection blocks overlap")
    pis = set()
    q_crit = set(rep.critical)
    for c in criticals:
        pc = 0
        for i, pm in enumerate(parts):
            if c & pm:
                pc |= 1 << i
        if pc in pis:
            raise InternalCheckError("lifted criticals do not inject")
        pis.add(pc)
        if pc not in q_crit:
            raise InternalCheckError("lifted critical projects outside projected criticals")
    ok, _ = is_acyclic(family, pairs)
    if not ok:
        raise InternalCheckError("projection lift came out cyclic")
    return FamilyMatching(tuple(sorted(family)), tuple(pairs), tuple(sorted(criticals)))


# ---------------------------------------------------------------------------
# Morse inequality
# ---------------------------------------------------------------------------


def morse_inequality_details(cx: SimplicialComplex, pairs, field: FieldSpec = GF2) -> dict:
    """Per-dimension comparison of critical counts against homology ranks.

    The matching must be valid and acyclic on the non-empty faces of the
    complex.  In dimensions i >= 1 the reduced and unreduced ranks agree and
    must be dominated; in dimension 0 the asserted comparison uses the
    unreduced rank while the reduced variant is reported alongside.
    """
    family = cx.faces_from(1).tolist()
    rep = _checked(family, pairs, "matching")
    crit_by_dim: dict[int, int] = {}
    for m in rep.critical:
        d = m.bit_count() - 1
        crit_by_dim[d] = crit_by_dim.get(d, 0) + 1
    betti = reduced_betti(cx, field)
    dims = sorted(set(crit_by_dim) | {d for d in betti.betti if d >= 0})
    holds = True
    comparisons = {}
    for d in dims:
        b = betti.get(d)
        if d == 0:
            h0 = b + (1 if cx.faces_of_dim(0) else 0)
            ok_d = h0 <= crit_by_dim.get(0, 0)
            comparisons[d] = {"h_unreduced": h0, "reduced": b, "critical": crit_by_dim.get(d, 0),
                              "holds": ok_d, "reduced_holds": b <= crit_by_dim.get(d, 0)}
        else:
            ok_d = b <= crit_by_dim.get(d, 0)
            comparisons[d] = {"betti": b, "critical": crit_by_dim.get(d, 0), "holds": ok_d}
        holds = holds and ok_d
    return {"holds": holds, "per_dim": comparisons, "field": field.label()}

