"""Reduced simplicial homology over finite fields and the rationals.

The chain complex uses the reduced convention: there is a chain group in
dimension -1 generated by the empty face, so the boundary of a vertex is the
empty face.  Betti numbers come from boundary ranks,

    beta_d = nullity(bd_d) - rank(bd_{d+1}),

computed by one column reduction for every field: each column is reduced by
the stored pivot column of its lowest nonzero row until it is zero or has a
new lowest row.  One field adapter supplies the column arithmetic for
every field: a column is a dict from row to coefficient, Python ints mod p
over GF(p), with p = 2 for GF(2), and ints or ``Fraction``s over Q.
Dimensions are reduced from the top down with clearing (Chen & Kerber,
"Persistent homology computation with a twist", 2011): a d-face that is the
lowest row of a reduced column of bd_{d+1} is the lowest entry of a d-cycle,
so its column of bd_d lies in the span of the columns before it and is
skipped.

Columns are built only when the reduction needs them, as in Ripser's
emergent pairs (Bauer, "Ripser: efficient computation of Vietoris-Rips
persistence barcodes", 2021).  The lowest row of a face's boundary column is
its largest facet, the face without its least element, with coefficient +1,
so the column is already a pivot scaled to lowest entry 1 in every field.
A face whose lowest row is new is kept as a deferred pivot, by its mask
alone; only a face whose lowest row is taken has its column built and
reduced, and a deferred pivot is built when it is first needed to
eliminate.  On NM_3(K7) that builds 2,638 of 23,500 columns.

The faces come sorted by size (:attr:`SimplicialComplex.levels`), so the
lowest rows of a whole dimension are one ``searchsorted`` of the largest
facets in the level below.  Along the ascending columns of one size they
never decrease.  For faces a < b of one size whose highest differing bit is
h (set in b), b's largest facet keeps bit h, so it is above a's, unless h is
b's least bit; then a has exactly one bit below h, and both facets are the
bits the two share above h.  So the first claim of each row, the first
column to reach it, is where the lowest row changes.  Each dimension keeps
one int64 claim table indexed by row: the mask of the column that holds the
row as its pivot, or -1 while the row is free.  The first claims are
written into it in one pass, as deferred pivots with raw boundary columns;
only the colliding columns enter the Python loop, in mask order, and each
row a reduced column reaches is claimed there.  The rows claimed are the
rows cleared from the next dimension down.  The order changes no result:
the pivot rows of any reduced basis of a column space are the lowest rows
of its nonzero vectors, so the ranks, the rows cleared and the Betti
tables are those of plain mask order.

Link checks read only the top of each link.  For d >= d0, the homology
H_d(lk sigma) involves bd_d and bd_{d+1}, whose rows and columns are link
faces of size >= d0.  Those are tau - sigma for the faces tau containing
sigma with |tau| >= |sigma| + d0.  So each sigma costs one vectorised
subset filter per level of the complex from that size up, the cut that
:func:`nonmatching.complexes.link` makes too, ending at the first level
with no hit; no link complex is built unless a link fails.

Given a group of vertex relabelings that are automorphisms of the complex
(Aut(G) acts simplicially on NM_k(G)), the checks rank one link per orbit:
lk(g sigma) = g lk(sigma), so the representative's verdict and Betti table
hold for every face of its orbit.  The orbits come from one slot-image
table walked once (:func:`nonmatching.graphs.orbit_partition`), and the
loop over every face stays as the oracle.
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import SimplicialComplex, _faces_above, _found, induced_subcomplex, link
from .errors import CapExceededError, InternalCheckError
from .graphs import DEFAULT_FACE_CAP, orbit_partition

LARGE_PRIME = 65521


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n < _MR_LIMIT."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(2), GF(p) for an odd prime p, or the rationals."""

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("GF2", "GFP", "RATIONAL"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "GFP":
            if self.p >= _MR_LIMIT:
                raise ValueError(
                    f"{self.p} is too large: primality is certified only below {_MR_LIMIT}"
                )
            if self.p < 3 or not _is_prime(self.p):
                raise ValueError(f"{self.p} is not an odd prime")

    def label(self) -> str:
        if self.kind == "GF2":
            return "GF(2)"
        if self.kind == "GFP":
            return f"GF({self.p})"
        return "Q"


GF2 = FieldSpec("GF2")
RATIONAL = FieldSpec("RATIONAL")


def GFP(p: int) -> FieldSpec:
    return FieldSpec("GFP", p)


def parse_field(token: str) -> FieldSpec:
    t = token.strip().lower()
    if t in ("gf2", "gf(2)", "2"):
        return GF2
    if t in ("q", "rational", "rationals"):
        return RATIONAL
    for prefix in ("gfp:", "gf", "gf("):
        if t.startswith(prefix):
            digits = t[len(prefix):].strip(")")
            if digits.isdigit():
                return GFP(int(digits))
    if t.isdigit():
        return GFP(int(t))
    raise ValueError(f"cannot parse field {token!r}")


@dataclass(frozen=True)
class BettiTable:
    """Reduced Betti numbers per dimension, over a declared field."""

    field: FieldSpec
    betti: dict[int, int]

    def get(self, d: int) -> int:
        return self.betti.get(d, 0)

    def nonzero_dims(self) -> list[int]:
        return sorted(d for d, b in self.betti.items() if b)

    def to_csv(self) -> str:
        lines = ["dim,betti"]
        for d in sorted(self.betti):
            lines.append(f"{d},{self.betti[d]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"field": self.field.label(), "betti": {str(d): self.betti[d] for d in sorted(self.betti)}},
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Boundary columns and the rank engine
# ---------------------------------------------------------------------------


def _facet_positions(m: int, rows: np.ndarray) -> list[int]:
    """The rows of the facets of face ``m`` in the sorted level ``rows``, in
    the order of the dropped element; dropping the i-th smallest element has
    sign (-1)^i.

    The first is the facet without the least element, the largest facet
    mask, so it is the column's lowest row, with coefficient +1.
    """
    facets = []
    rest = m
    while rest:
        low = rest & -rest
        facets.append(m ^ low)
        rest ^= low
    return rows.searchsorted(np.array(facets, dtype=rows.dtype)).tolist()


class _SparseField:
    """The one column form for every field: a dict from row to a nonzero
    coefficient, mod p over GF(p), with p = 2 for GF(2), and exact over Q.

    GF(p) keeps Python ints reduced mod p, which cannot overflow for any
    prime; over GF(2) the signs (1, p - 1) are (1, 1), so every entry is 1
    and every column is already a pivot.  Q (``p`` = 0) keeps Python ints,
    exact and unbounded, for as long as every pivot has lowest entry +-1,
    and ``Fraction``s only from a pivot with any other lowest entry on.
    Pivot columns are stored scaled so that their lowest entry is 1; a
    column whose lowest entry is already 1 is stored as it is.
    """

    def __init__(self, p: int = 0):
        self.p = p
        self.signs = (1, p - 1) if p else (1, -1)

    def column(self, positions):
        signs = self.signs
        return {r: signs[i & 1] for i, r in enumerate(positions)}

    low = staticmethod(max)

    def pivot(self, col, low):
        c, p = col[low], self.p
        if c == 1:
            return col
        if p:
            inv = pow(c, -1, p)
            return {r: v * inv % p for r, v in col.items()}
        if c == -1:
            return {r: -v for r, v in col.items()}
        inv = 1 / Fraction(c)
        return {r: v * inv for r, v in col.items()}

    def eliminate(self, col, piv, low):
        c, p = col[low], self.p
        for r, v in piv.items():
            nv = col.get(r, 0) - c * v
            if p:
                nv %= p
            if nv:
                col[r] = nv
            else:
                del col[r]
        if low in col:  # a pivot not scaled to lowest entry 1 would loop forever
            raise InternalCheckError(f"elimination left row {low} in the column")
        return col


def _field_ops(field: FieldSpec) -> _SparseField:
    return _SparseField({"GF2": 2, "GFP": field.p}.get(field.kind, 0))


def _reduce(ops, claim: np.ndarray, columns, build) -> int:
    """Lowest-row column reduction that builds a column only when needed.

    ``claim`` is the claim table of the rows, indexed by row: the key of the
    column that holds the row as its pivot, or -1 while the row is free.
    ``columns`` yields ``(key, low)`` for each further column, where ``low``
    is its lowest nonzero row and ``key`` a non-negative int, and
    ``build(key)`` returns the column in the form of ``ops``.  A column
    whose lowest row is free claims it as a deferred pivot, by its key
    alone; only a column whose lowest row is taken is built and reduced,
    and a deferred pivot is built the first time it is needed to eliminate.
    Each pivot built is stored scaled to lowest entry 1.  Returns the number
    of rows claimed.
    """
    added = 0
    built: dict = {}
    low, pivot, eliminate = ops.low, ops.pivot, ops.eliminate
    for key, r in columns:
        if claim[r] < 0:
            claim[r] = key
            added += 1
            continue
        col = build(key)
        while True:
            piv = built.get(r)
            if piv is None:
                piv = built[r] = pivot(build(int(claim[r])), r)
            col = eliminate(col, piv, r)
            if not col:
                break
            r = low(col)
            if claim[r] < 0:
                claim[r] = key
                added += 1
                built[r] = pivot(col, r)
                break
    return added


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------


def _betti_of_sizes(levels, field: FieldSpec, lo: int, cap: int) -> dict[int, int]:
    """Reduced Betti numbers in dimensions lo..dim of faces laid out by size.

    ``levels[s]`` is the ascending array of the faces of size s (the layout
    of :attr:`SimplicialComplex.levels`), and dim is ``len(levels) - 2``.
    Only the levels of size >= max(lo, 0) are read, so the ones below may be
    left empty.  When lo > dim the table is empty and nothing is ranked;
    otherwise every face handed over counts against ``cap``.
    """
    dim = len(levels) - 2
    if lo > dim:
        return {}
    total = sum(map(len, levels))
    if total > cap:
        raise CapExceededError(f"{total} faces exceeds the linear-algebra cap {cap}")
    ops = _field_ops(field)
    column = ops.column
    ranks: dict[int, int] = {}
    claim = None
    for d in range(dim, max(lo, 0) - 1, -1):
        rows, cols = levels[d], levels[d + 1]
        if claim is not None:
            cols = cols[claim < 0]  # clearing: the rows claimed one dimension up
        # the lowest rows never decrease along the columns, so a row's first
        # claim is where they change; the first claims go straight into the
        # claim table, the colliding columns to the reduction in mask order
        lows = rows.searchsorted(cols ^ (cols & -cols))
        first = np.ones(len(lows), bool)
        first[1:] = lows[1:] != lows[:-1]
        claim = np.full(len(rows), -1, np.int64)
        claim[lows[first]] = cols[first]
        rest = ~first
        added = _reduce(ops, claim, zip(cols[rest].tolist(), lows[rest].tolist()),
                        lambda m: column(_facet_positions(m, rows)))
        ranks[d] = int(np.count_nonzero(first)) + added
    betti = {}
    for d in range(lo, dim + 1):
        f_d = len(levels[d + 1]) if d >= -1 else 0
        betti[d] = f_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if betti[d] < 0:  # rank bug guard
            raise InternalCheckError(f"negative betti at dim {d}")
    return betti


def reduced_betti(
    cx: SimplicialComplex,
    field: FieldSpec = GF2,
    cap: int = DEFAULT_FACE_CAP,
) -> BettiTable:
    """Reduced Betti numbers of the complex over the given field.

    Dimensions run from -1 (which reports 1 exactly for the one-face complex
    {empty}) up to the complex dimension.  Boundary maps are reduced from
    the top dimension down, and a d-face that is a pivot row of bd_{d+1} is
    skipped as a column of bd_d (clearing).
    """
    return BettiTable(field, _betti_of_sizes(cx.levels, field, -1, cap))


def vanishing_from(
    cx: SimplicialComplex, d0: int, field: FieldSpec = GF2, cap: int = DEFAULT_FACE_CAP
) -> bool:
    """True iff every reduced Betti number in dimension >= d0 vanishes.

    A complex of dimension below d0 is answered from its number of levels
    without ranking anything.
    """
    return not any(_betti_of_sizes(cx.levels, field, d0, cap).values())


# ---------------------------------------------------------------------------
# Leray checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceViolation:
    face: tuple
    betti: BettiTable


@dataclass(frozen=True)
class LerayReport:
    """The verdict of a Leray check.  ``checked`` counts the faces (or
    induced subcomplexes) decided and ``ranked`` the homology tests run for
    them: one per face, or one per orbit when a symmetry is given."""

    passed: bool
    d0: int
    field: FieldSpec
    mode: str
    checked: int
    violations: tuple[FaceViolation, ...]
    ranked: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "d0": self.d0,
                "field": self.field.label(),
                "mode": self.mode,
                "checked": self.checked,
                "ranked": self.ranked,
                "violations": [
                    {"face": [list(e) if isinstance(e, tuple) else e for e in v.face],
                     "betti": {str(d): b for d, b in sorted(v.betti.betti.items())}}
                    for v in self.violations
                ],
            },
            sort_keys=True,
        )


def _link_vanishes(cx: SimplicialComplex, sigma: int, d0: int, field: FieldSpec, cap: int) -> bool:
    """True iff H_d(lk sigma) = 0 for every d >= d0 (sigma a face).

    The link faces of size >= max(d0, 0) are tau ^ sigma for the faces tau
    above sigma with |tau| >= |sigma| + max(d0, 0), cut from the complex's
    levels by :func:`nonmatching.complexes._faces_above`.  Dropping sigma's
    bits keeps the order of the other elements, so the masks, and the signs
    of their boundaries, are those of the re-indexed link; the levels below
    max(d0, 0) are left empty.
    """
    least = max(d0, 0)
    tops = [level ^ sigma for level in _faces_above(cx.levels, sigma, ~sigma, least)]
    return not any(_betti_of_sizes([np.zeros(0, np.int64)] * least + tops, field, d0, cap).values())


def _orbit_cover(cx: SimplicialComplex, sigmas: list[int], symmetry) -> tuple[list[int], dict]:
    """One representative per orbit of ``sigmas`` under the vertex
    relabelings ``symmetry``, and a map from every face of those orbits to
    its representative (:func:`nonmatching.graphs.orbit_partition`,
    which refuses a set that is not a group).  An image that is not a face of
    the complex, so that ``symmetry`` is not a group of its automorphisms,
    raises ``InternalCheckError``.
    """
    reps, owner = orbit_partition(cx.ground.elements, symmetry, sigmas)
    faces = np.sort(cx.faces_from(0))
    images = list(owner)
    hit = _found(faces, np.array(images, faces.dtype))
    if not hit.all():
        off = images[int(hit.argmin())]
        raise InternalCheckError(
            f"the image {cx.ground.decode(off)} of {cx.ground.decode(owner[off])} "
            "under the symmetry is not a face"
        )
    return reps, owner


def _link_violations(cx: SimplicialComplex, sigmas: list[int], d0: int, field: FieldSpec,
                     cap: int, symmetry=None) -> tuple[tuple[FaceViolation, ...], int]:
    """The faces among ``sigmas`` whose link has homology in a dimension
    >= d0, in ascending mask order, and the number of links ranked.

    With ``symmetry`` None every link is ranked.  Otherwise ``symmetry`` is
    a group of vertex relabelings acting on the ground's edges, and one link
    per orbit is ranked (:func:`_orbit_cover`): lk(g sigma) = g lk(sigma),
    so the orbit's faces share the verdict and the Betti table of their
    representative.  Each failing representative is reported with the full
    Betti table of its link, which must show that homology: a table that
    does not is a fault of the fast test, raised as ``InternalCheckError``.
    """
    if not sigmas:
        return (), 0
    if symmetry is None:
        reps, owner = sigmas, {}
    else:
        reps, owner = _orbit_cover(cx, sigmas, symmetry)
    tables = {}
    for m in reps:
        if _link_vanishes(cx, m, d0, field, cap):
            continue
        table = reduced_betti(link(cx, m), field, cap)
        if not any(b for d, b in table.betti.items() if d >= d0):
            raise InternalCheckError(
                f"the link of {cx.ground.decode(m)} failed to vanish from {d0}, "
                f"but its Betti table {table.betti} does"
            )
        tables[m] = table
    failing = sorted(m for m in sigmas if owner.get(m, m) in tables) if tables else []
    violations = tuple(FaceViolation(cx.ground.decode(m), tables[owner.get(m, m)]) for m in failing)
    return violations, len(reps)


def check_near_leray(
    cx: SimplicialComplex,
    d0: int,
    field: FieldSpec = GF2,
    policy: str = "EXHAUSTIVE",
    sample_count: int = 0,
    seed: int = 0,
    cap: int = DEFAULT_FACE_CAP,
    symmetry=None,
) -> LerayReport:
    """Vanishing of link homology from dimension d0 on, for non-empty faces.

    ``policy`` is EXHAUSTIVE (all non-empty faces) or SAMPLED (a seeded
    sample of ``sample_count`` non-empty faces).  Each link is tested from
    the faces of the complex at least d0 above the face, so no link complex
    is built; ``cap`` limits the faces one link hands to the rank engine.  A
    failing face is reported with the full Betti table of its link.

    ``symmetry``, a group of vertex relabelings that are automorphisms of
    the complex (such as :func:`nonmatching.graphs.automorphisms` of the
    host), ranks one link per orbit of the faces checked; None ranks every
    link.  The report is the same either way, apart from ``ranked``.
    """
    faces = cx.faces_from(1)
    if policy == "SAMPLED":
        rng = _random.Random(seed)
        if sample_count < len(faces):
            # a sample of the faces in ascending mask order; which positions
            # it takes depends only on their number
            faces = np.sort(np.sort(faces)[rng.sample(range(len(faces)), sample_count)])
        label = f"SAMPLED({sample_count},{seed})"
    elif policy == "EXHAUSTIVE":
        label = "EXHAUSTIVE"
    else:
        raise ValueError(f"unknown policy {policy!r}")
    violations, ranked = _link_violations(cx, faces.tolist(), d0, field, cap, symmetry)
    return LerayReport(not violations, d0, field, f"NEAR/{label}", len(faces), violations, ranked)


def check_leray(
    cx: SimplicialComplex,
    d0: int,
    field: FieldSpec = GF2,
    mode: str = "LINKS",
    cap: int = DEFAULT_FACE_CAP,
    symmetry=None,
) -> LerayReport:
    """Decide d0-Lerayness.

    LINKS mode checks vanishing of every link, the empty face included, so it
    subsumes a plain vanishing check of the complex itself; like
    :func:`check_near_leray` it reads only the faces at least d0 above each
    face, and ranks one link per orbit of ``symmetry`` when one is given.
    INDUCED mode checks every induced subcomplex; it is exponential in
    the ground size and exists to cross-validate LINKS on tiny grounds.
    """
    violations = []
    checked = 0
    if mode == "LINKS":
        faces = cx.faces_from(0).tolist()
        checked = len(faces)
        violations, ranked = _link_violations(cx, faces, d0, field, cap, symmetry)
    elif mode == "INDUCED":
        if symmetry is not None:
            raise ValueError("a symmetry applies to LINKS mode only")
        ne = len(cx.ground)
        if ne > 20:
            raise CapExceededError(f"INDUCED mode over {ne} ground elements is not desk scale")
        for smask in range(1 << ne):
            checked += 1
            sub = induced_subcomplex(cx, smask)
            if not vanishing_from(sub, d0, field, cap):
                violations.append(
                    FaceViolation(cx.ground.decode(smask), reduced_betti(sub, field, cap))
                )
        ranked = checked
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LerayReport(not violations, d0, field, mode, checked, tuple(violations), ranked)
