"""Reduced simplicial homology over finite fields and the rationals.

The chain complex uses the reduced convention: there is a chain group in
dimension -1 generated by the empty face, so the boundary of a vertex is the
empty face.  Betti numbers come from boundary ranks,

    beta_d = nullity(bd_d) - rank(bd_{d+1}),

computed by one column reduction for every field: each column is reduced by
the stored pivot column of its lowest nonzero row until it is zero or has a
new lowest row.  A small field adapter supplies the column arithmetic:
packed-int columns reduced by XOR over GF(2), dicts of Python ints mod p
over GF(p), and dicts of ``Fraction``s over Q.  Dimensions are reduced from
the top down with clearing (Chen & Kerber, "Persistent homology computation
with a twist", 2011): a d-face that is the lowest row of a reduced column of
bd_{d+1} is the lowest entry of a d-cycle, so its column of bd_d lies in the
span of the columns before it and is skipped.

Columns are built only when the reduction needs them, as in Ripser's
emergent pairs (Bauer, "Ripser: efficient computation of Vietoris-Rips
persistence barcodes", 2021).  The lowest row of a face's boundary column is
its largest facet, the face without its least element, with coefficient +1,
so the column is already a pivot scaled to lowest entry 1 in every field.
A face whose lowest row is new is kept as a deferred pivot, by its mask
alone; only a face whose lowest row is taken has its column built and
reduced, and a deferred pivot is built when it is first needed to
eliminate.  On NM_3(K7) that builds 2,638 of 23,500 columns.

Link checks read only the top of each link.  For d >= d0, the homology
H_d(lk sigma) involves bd_d and bd_{d+1}, whose rows and columns are link
faces of size >= d0.  Those are tau - sigma for the faces tau containing
sigma with |tau| >= |sigma| + d0.  So the checks gather the large faces of
the complex once, and each sigma costs one vectorised subset filter over
them; no link complex is built unless a link fails.

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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import SimplicialComplex, induced_subcomplex, link
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


def _faces_by_size(cx: SimplicialComplex) -> list[list[int]]:
    """The face masks sorted once and split by size: entry d+1 lists the d-faces.

    The list has dim + 2 entries, so it is empty for the void complex.
    """
    by_size: list[list[int]] = []
    for m in sorted(cx.faces):
        size = m.bit_count()
        if size >= len(by_size):
            by_size.extend([] for _ in range(size + 1 - len(by_size)))
        by_size[size].append(m)
    return by_size


def _facet_positions(m: int, row_index: dict[int, int]) -> list[int]:
    """The rows of the facets of face ``m``, in the order of the dropped
    element; dropping the i-th smallest element has sign (-1)^i.

    The first is the facet without the least element, the largest facet
    mask, so it is the column's lowest row, with coefficient +1.
    """
    positions = []
    rest = m
    while rest:
        low = rest & -rest
        positions.append(row_index[m ^ low])
        rest ^= low
    return positions


class _PackedGF2:
    """GF(2): a column is an int with one bit per row, reduced by XOR."""

    @staticmethod
    def column(positions):
        col = 0
        for r in positions:
            col |= 1 << r
        return col

    @staticmethod
    def low(col):
        return col.bit_length() - 1

    @staticmethod
    def pivot(col, low):
        return col

    @staticmethod
    def eliminate(col, piv, low):
        return col ^ piv


class _SparseField:
    """GF(p) or Q: a column is a dict from row to a nonzero coefficient.

    GF(p) keeps Python ints reduced mod p, which cannot overflow for any
    prime.  Q (``p`` = 0) keeps Python ints, exact and unbounded, for as long
    as every pivot has lowest entry +-1, and ``Fraction``s only from a pivot
    with any other lowest entry on.  Pivot columns are stored scaled so that
    their lowest entry is 1; a column whose lowest entry is already 1 is
    stored as it is.
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


def _field_ops(field: FieldSpec):
    if field.kind == "GF2":
        return _PackedGF2
    return _SparseField(field.p if field.kind == "GFP" else 0)


def _reduce(ops, columns, build) -> tuple[dict, dict]:
    """Lowest-row column reduction that builds a column only when needed.

    ``columns`` yields ``(key, low)`` for each column, where ``low`` is its
    lowest nonzero row, and ``build(key)`` returns the column in the form of
    ``ops``.  A column whose lowest row no pivot holds yet becomes a deferred
    pivot, recorded by its key alone; only a column whose lowest row is taken
    is built and reduced, and a deferred pivot is built the first time it is
    needed to eliminate.  Returns the pivot rows, each with the key of the
    column that reached it, and the pivot columns built, scaled to lowest
    entry 1, keyed by pivot row.
    """
    lows: dict = {}
    built: dict = {}
    low, pivot, eliminate = ops.low, ops.pivot, ops.eliminate
    for key, r in columns:
        if r not in lows:
            lows[r] = key
            continue
        col = build(key)
        while True:
            piv = built.get(r)
            if piv is None:
                piv = built[r] = pivot(build(lows[r]), r)
            col = eliminate(col, piv, r)
            if not col:
                break
            r = low(col)
            if r not in lows:
                lows[r] = key
                built[r] = pivot(col, r)
                break
    return lows, built


def boundary_matrix(cx: SimplicialComplex, d: int) -> np.ndarray:
    """The boundary map from d-faces to (d-1)-faces as a dense +-1 int8 array.

    Rows are indexed by the sorted (d-1)-face masks and columns by the sorted
    d-face masks; the sign of dropping the j-th smallest element is (-1)^j.
    Entries are plain integers; reduce mod 2 / mod p to interpret them in a
    finite field (which changes nothing for +-1 entries except -1 = 1 mod 2).
    """
    lo, hi = -1, cx.dim() + 1
    if not (lo <= d <= hi):
        raise ValueError(f"dimension {d} out of range [{lo}, {hi}]")
    by_size = _faces_by_size(cx)
    rows = by_size[d] if d >= 0 else []
    cols = by_size[d + 1] if d + 1 < len(by_size) else []
    mat = np.zeros((len(rows), len(cols)), dtype=np.int8)
    row_index = {m: i for i, m in enumerate(rows)}
    for j, m in enumerate(cols):
        positions = _facet_positions(m, row_index)
        mat[positions, j] = [(-1) ** i for i in range(len(positions))]
    return mat


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------


def _betti_of_sizes(by_size: list[list[int]], field: FieldSpec, lo: int, cap: int) -> dict[int, int]:
    """Reduced Betti numbers in dimensions lo..dim of faces bucketed by size.

    ``by_size[s]`` lists the faces of size s in ascending mask order, and
    dim is ``len(by_size) - 2``.  Only the buckets of size >= max(lo, 0) are
    read, so the ones below may be left empty.  When lo > dim the table is
    empty and nothing is ranked; otherwise every face handed over counts
    against ``cap``.
    """
    dim = len(by_size) - 2
    if lo > dim:
        return {}
    total = sum(map(len, by_size))
    if total > cap:
        raise CapExceededError(f"{total} faces exceeds the linear-algebra cap {cap}")
    ops = _field_ops(field)
    column = ops.column
    ranks: dict[int, int] = {}
    cleared: dict = {}
    for d in range(dim, max(lo, 0) - 1, -1):
        row_index = {m: i for i, m in enumerate(by_size[d])}
        lows = ((m, row_index[m ^ (m & -m)]) for j, m in enumerate(by_size[d + 1]) if j not in cleared)
        cleared, _ = _reduce(ops, lows, lambda m: column(_facet_positions(m, row_index)))
        ranks[d] = len(cleared)
    betti = {}
    for d in range(lo, dim + 1):
        f_d = len(by_size[d + 1]) if d >= -1 else 0
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
    if cx.is_void():
        return BettiTable(field, {})
    return BettiTable(field, _betti_of_sizes(_faces_by_size(cx), field, -1, cap))


def vanishing_from(
    cx: SimplicialComplex, d0: int, field: FieldSpec = GF2, cap: int = DEFAULT_FACE_CAP
) -> bool:
    """True iff every reduced Betti number in dimension >= d0 vanishes.

    The faces are bucketed once; a complex of dimension below d0 is answered
    from the bucket count without ranking anything.
    """
    return not any(_betti_of_sizes(_faces_by_size(cx), field, d0, cap).values())


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


class _FacesAbove:
    """The faces of a complex of size >= ``floor``, largest first, ascending
    within one size, in one array for subset filters.

    The array is ``uint64`` when the ground fits in 64 bits and ``object``
    (Python ints) otherwise; the filter is the same expression on both.
    """

    def __init__(self, cx: SimplicialComplex, floor: int):
        by_size = _faces_by_size(cx)
        sizes = range(len(by_size) - 1, max(floor, 0) - 1, -1)
        big = [m for size in sizes for m in by_size[size]]
        self.masks = np.array(big, dtype=np.uint64 if len(cx.ground) <= 64 else object)
        self.sizes = np.repeat(np.array(sizes, dtype=np.int64), [len(by_size[size]) for size in sizes])
        self._neg_sizes = (-self.sizes).tolist()

    def link_vanishes(self, sigma: int, d0: int, field: FieldSpec, cap: int) -> bool:
        """True iff H_d(lk sigma) = 0 for every d >= d0 (sigma a face).

        The link faces of size >= d0 are tau ^ sigma for the faces tau above
        sigma with |tau| >= |sigma| + d0, taken from the prefix of that size.
        Dropping sigma's bits keeps the order of the other elements, so the
        masks, and the signs of their boundaries, are those of the
        re-indexed link.
        """
        k = sigma.bit_count()
        n = bisect_right(self._neg_sizes, -(k + d0))
        masks = self.masks[:n]
        hit = (masks & sigma) == sigma
        tops = (masks[hit] ^ sigma).tolist()
        sizes = (self.sizes[:n][hit] - k).tolist()
        by_size: list[list[int]] = [[] for _ in range(sizes[0] + 1)] if tops else []
        for t, size in zip(tops, sizes):
            by_size[size].append(t)
        return not any(_betti_of_sizes(by_size, field, d0, cap).values())


def _orbit_cover(cx: SimplicialComplex, sigmas: list[int], symmetry) -> tuple[list[int], dict]:
    """One representative per orbit of ``sigmas`` under the vertex
    relabelings ``symmetry``, and a map from every face of those orbits to
    its representative (:func:`nonmatching.graphs.orbit_partition`,
    which refuses a set that is not a group).  An image that is not a face of
    the complex, so that ``symmetry`` is not a group of its automorphisms,
    raises ``InternalCheckError``.
    """
    reps, owner = orbit_partition(cx.ground.elements, symmetry, sigmas)
    if not cx.faces.issuperset(owner):
        off = next(m for m in owner if m not in cx.faces)
        raise InternalCheckError(
            f"the image {cx.ground.decode(off)} of {cx.ground.decode(owner[off])} "
            "under the symmetry is not a face"
        )
    return reps, owner


def _link_violations(cx: SimplicialComplex, sigmas: list[int], d0: int, field: FieldSpec,
                     cap: int, symmetry=None) -> tuple[tuple[FaceViolation, ...], int]:
    """The faces among ``sigmas`` (ascending) whose link has homology in a
    dimension >= d0, and the number of links ranked.

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
    above = _FacesAbove(cx, min(m.bit_count() for m in reps) + d0)
    tables = {}
    for m in reps:
        if above.link_vanishes(m, d0, field, cap):
            continue
        table = reduced_betti(link(cx, m), field, cap)
        if not any(b for d, b in table.betti.items() if d >= d0):
            raise InternalCheckError(
                f"the link of {cx.ground.decode(m)} failed to vanish from {d0}, "
                f"but its Betti table {table.betti} does"
            )
        tables[m] = table
    violations = tuple(FaceViolation(cx.ground.decode(m), tables[r])
                       for m in sigmas if (r := owner.get(m, m)) in tables)
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
    faces = sorted(m for m in cx.faces if m != 0)
    if policy == "SAMPLED":
        rng = _random.Random(seed)
        if sample_count < len(faces):
            faces = sorted(rng.sample(faces, sample_count))
        label = f"SAMPLED({sample_count},{seed})"
    elif policy == "EXHAUSTIVE":
        label = "EXHAUSTIVE"
    else:
        raise ValueError(f"unknown policy {policy!r}")
    violations, ranked = _link_violations(cx, faces, d0, field, cap, symmetry)
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
        faces = sorted(cx.faces)
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
