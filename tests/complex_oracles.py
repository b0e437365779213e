"""Reference constructions for :mod:`nonmatching.complexes` and
:mod:`nonmatching.homology`, kept apart from the code they check.

``boundary_matrix`` writes out the dense boundary map face by face, with
the rows found by a dict, where the rank engine builds sparse columns on
demand and finds their rows by ``searchsorted``; ``order_complex`` grows
each chain by index and hands the chains to
``SimplicialComplex.from_masks``, which checks heredity;
``nm_levels_by_facets`` walks the levels of a non-matching complex from its
minimal non-faces, where the walk of ``build_nm_complex`` carries matching
numbers.
"""

import itertools

import numpy as np

from nonmatching.complexes import GroundSet, SimplicialComplex


def boundary_matrix(cx: SimplicialComplex, d: int) -> np.ndarray:
    """The boundary map from d-faces to (d-1)-faces as a dense +-1 int8 array.

    Rows are indexed by the sorted (d-1)-face masks and columns by the sorted
    d-face masks; the sign of dropping the j-th smallest element is (-1)^j.
    Entries are plain integers; reduce mod 2 / mod p to interpret them in a
    finite field (which changes nothing for +-1 entries except -1 = 1 mod 2).
    """
    if not -1 <= d <= cx.dim() + 1:
        raise ValueError(f"dimension {d} out of range [-1, {cx.dim() + 1}]")
    row_of = {m: i for i, m in enumerate(cx.faces_of_dim(d - 1))}
    cols = cx.faces_of_dim(d)
    mat = np.zeros((len(row_of), len(cols)), dtype=np.int8)
    for j, m in enumerate(cols):
        for i, b in enumerate(b for b in range(m.bit_length()) if m >> b & 1):
            mat[row_of[m ^ 1 << b], j] = (-1) ** i
    return mat


def order_complex(members: list[int]) -> SimplicialComplex:
    """The complex of chains of a family of sets ordered by inclusion.

    Ground elements are the member indices in the given order.  Equal
    members are incomparable.  Each chain is extended by every later index
    whose member is strictly comparable with all of the chain's.
    """
    ms = list(members)

    def comparable(a: int, b: int) -> bool:
        return a != b and (a & b) in (a, b)

    chains, stack = [0], [(0, [])]  # (chain mask, its indices)
    while stack:
        chain, idx = stack.pop()
        for i in range(idx[-1] + 1 if idx else 0, len(ms)):
            if all(comparable(ms[i], ms[j]) for j in idx):
                chains.append(chain | 1 << i)
                stack.append((chain | 1 << i, idx + [i]))
    return SimplicialComplex.from_masks(GroundSet(tuple(range(len(ms)))), chains)


def _in_sorted(level: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether each of ``masks`` is an entry of the ascending ``level``."""
    pos = np.minimum(np.searchsorted(level, masks), max(len(level) - 1, 0))
    return level[pos] == masks if len(level) else np.zeros(len(masks), bool)


def nm_levels_by_facets(edges: list[tuple[int, int]], k: int) -> tuple[np.ndarray, ...]:
    """The levels of NM_k over the ground ``edges`` (equal entries are
    parallel copies of one edge), each an ascending int64 array, found with
    no matching number at all.

    The minimal non-faces of NM_k are the k-matchings: a set with nu >= k
    holds a k-matching, and a k-matching has no proper subset with nu >= k.
    So a set is a face iff every facet of it is a face and it is not itself
    a k-matching, that is k elements no two of which share a vertex (two
    parallel copies share both).  Each level's candidates are the faces one
    size down with one element above their highest added.
    """
    touching = [(a, b) for a, b in itertools.combinations(range(len(edges)), 2)
                if set(edges[a]) & set(edges[b])]
    levels = [np.zeros(1, np.int64)]
    while True:
        level = levels[-1]
        cands = np.concatenate([level[level < 1 << b] | 1 << b for b in range(len(edges))] or [level[:0]])
        keep = np.ones(len(cands), bool)
        for b in range(len(edges)):
            has = (cands >> b & 1) == 1
            keep[has] &= _in_sorted(level, cands[has] ^ 1 << b)
        if len(levels) == k:
            shared = np.zeros(len(cands), bool)
            for a, b in touching:
                shared |= ((cands >> a) & (cands >> b) & 1) == 1
            keep &= shared
        if not keep.any():
            return tuple(levels)
        levels.append(np.sort(cands[keep]))
