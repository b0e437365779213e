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
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import SimplicialComplex, induced_subcomplex, link
from .errors import CapExceededError, InternalCheckError

DEFAULT_FACE_CAP = 1 << 20
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


def _boundary_columns(faces: list[int], rows: list[int], cleared=()):
    """Columns of the boundary map from ``faces`` to the sorted ``rows``.

    Yields ``(j, positions)`` for each face index j not in ``cleared``, where
    ``positions`` lists the rows of the facets in the order of the dropped
    element; dropping the i-th smallest element has sign (-1)^i.
    """
    row_index = {m: i for i, m in enumerate(rows)}
    for j, m in enumerate(faces):
        if j in cleared:
            continue
        positions = []
        rest = m
        while rest:
            low = rest & -rest
            positions.append(row_index[m ^ low])
            rest ^= low
        yield j, positions


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
    prime; Q (``p`` = 0) keeps exact ``Fraction``s.  Pivot columns are stored
    scaled so that their lowest entry is 1.
    """

    def __init__(self, p: int = 0):
        self.p = p
        self.signs = (1, p - 1) if p else (1, -1)

    def column(self, positions):
        signs = self.signs
        return {r: signs[i & 1] for i, r in enumerate(positions)}

    low = staticmethod(max)

    def pivot(self, col, low):
        p = self.p
        if p:
            inv = pow(col[low], -1, p)
            return {r: v * inv % p for r, v in col.items()}
        inv = 1 / Fraction(col[low])
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
        return col


def _field_ops(field: FieldSpec):
    if field.kind == "GF2":
        return _PackedGF2
    return _SparseField(field.p if field.kind == "GFP" else 0)


def _reduce(ops, columns) -> dict:
    """Lowest-row column reduction; returns the pivot columns keyed by pivot row."""
    pivots: dict = {}
    column, low, pivot, eliminate = ops.column, ops.low, ops.pivot, ops.eliminate
    for _, positions in columns:
        col = column(positions)
        while col:
            r = low(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = pivot(col, r)
                break
            col = eliminate(col, piv, r)
    return pivots


def boundary_matrix(cx: SimplicialComplex, d: int, field: FieldSpec | None = None) -> np.ndarray:
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
    for j, positions in _boundary_columns(cols, rows):
        mat[positions, j] = [(-1) ** i for i in range(len(positions))]
    return mat


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------


def reduced_betti(
    cx: SimplicialComplex,
    field: FieldSpec = GF2,
    cap: int = DEFAULT_FACE_CAP,
    min_dim: int | None = None,
) -> BettiTable:
    """Reduced Betti numbers of the complex over the given field.

    Dimensions run from -1 (which reports 1 exactly for the one-face complex
    {empty}) up to the complex dimension.  ``min_dim`` restricts the output
    to dimensions >= min_dim and skips the ranks below, which the sweeps use.
    Boundary maps are reduced from the top dimension down, and a d-face that
    is a pivot row of bd_{d+1} is skipped as a column of bd_d (clearing).
    The alternating sum is checked against the reduced Euler characteristic.
    """
    if cx.face_count > cap:
        raise CapExceededError(f"{cx.face_count} faces exceeds the linear-algebra cap {cap}")
    if cx.is_void():
        return BettiTable(field, {})
    by_size = _faces_by_size(cx)
    dim = len(by_size) - 2
    counts = {size - 1: len(faces) for size, faces in enumerate(by_size) if faces}
    lo = -1 if min_dim is None else min_dim
    ops = _field_ops(field)
    ranks: dict[int, int] = {}
    cleared: set[int] = set()
    for d in range(dim, max(lo, 0) - 1, -1):
        cleared = set(_reduce(ops, _boundary_columns(by_size[d + 1], by_size[d], cleared)))
        ranks[d] = len(cleared)
    betti = {}
    for d in range(lo, dim + 1):
        f_d = counts.get(d, 0)
        betti[d] = f_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if betti[d] < 0:  # pragma: no cover - rank bug guard
            raise InternalCheckError(f"negative betti at dim {d}")
    if min_dim is None:
        euler_faces = sum((-1) ** d * c for d, c in counts.items())
        euler_betti = sum((-1) ** d * b for d, b in betti.items())
        if euler_faces != euler_betti:  # pragma: no cover - rank bug guard
            raise InternalCheckError("Euler characteristic mismatch")
    return BettiTable(field, betti)


def vanishing_from(
    cx: SimplicialComplex, d0: int, field: FieldSpec = GF2, cap: int = DEFAULT_FACE_CAP
) -> bool:
    """True iff every reduced Betti number in dimension >= d0 vanishes."""
    if cx.is_void() or d0 > cx.dim():
        return True
    table = reduced_betti(cx, field, cap, min_dim=d0)
    return all(b == 0 for b in table.betti.values())


# ---------------------------------------------------------------------------
# Leray checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceViolation:
    face: tuple
    betti: BettiTable


@dataclass(frozen=True)
class LerayReport:
    passed: bool
    d0: int
    field: FieldSpec
    mode: str
    checked: int
    violations: tuple[FaceViolation, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "d0": self.d0,
                "field": self.field.label(),
                "mode": self.mode,
                "checked": self.checked,
                "violations": [
                    {"face": [list(e) if isinstance(e, tuple) else e for e in v.face],
                     "betti": {str(d): b for d, b in sorted(v.betti.betti.items())}}
                    for v in self.violations
                ],
            },
            sort_keys=True,
        )


def check_near_leray(
    cx: SimplicialComplex,
    d0: int,
    field: FieldSpec = GF2,
    policy: str = "EXHAUSTIVE",
    sample_count: int = 0,
    seed: int = 0,
    cap: int = DEFAULT_FACE_CAP,
) -> LerayReport:
    """Vanishing of link homology from dimension d0 on, for non-empty faces.

    ``policy`` is EXHAUSTIVE (all non-empty faces) or SAMPLED (a seeded
    sample of ``sample_count`` non-empty faces).
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
    violations = []
    for m in faces:
        lk = link(cx, m)
        if not vanishing_from(lk, d0, field, cap):
            table = reduced_betti(lk, field, cap)
            violations.append(FaceViolation(cx.ground.decode(m), table))
    return LerayReport(not violations, d0, field, f"NEAR/{label}", len(faces), tuple(violations))


def check_leray(
    cx: SimplicialComplex,
    d0: int,
    field: FieldSpec = GF2,
    mode: str = "LINKS",
    cap: int = DEFAULT_FACE_CAP,
) -> LerayReport:
    """Decide d0-Lerayness.

    LINKS mode checks vanishing of every link, the empty face included, so it
    subsumes a plain vanishing check of the complex itself.  INDUCED mode
    checks every induced subcomplex; it is exponential in the ground size and
    exists to cross-validate LINKS on tiny grounds.
    """
    violations = []
    checked = 0
    if mode == "LINKS":
        for m in sorted(cx.faces):
            checked += 1
            lk = link(cx, m)
            if not vanishing_from(lk, d0, field, cap):
                violations.append(FaceViolation(cx.ground.decode(m), reduced_betti(lk, field, cap)))
    elif mode == "INDUCED":
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
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LerayReport(not violations, d0, field, mode, checked, tuple(violations))
