"""Reference constructions for :mod:`nonmatching.complexes` and
:mod:`nonmatching.homology`, kept apart from the code they check.

``boundary_matrix`` writes out the dense boundary map face by face, with
the rows found by a dict, where the rank engine builds sparse columns on
demand and finds their rows by ``searchsorted``; ``order_complex`` grows
each chain by index and hands the chains to
``SimplicialComplex.from_masks``, which checks heredity.
"""

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
