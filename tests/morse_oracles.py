"""Reference checks for :mod:`nonmatching.morse`, kept apart from the code
they check.

``all_pairs_monotone`` compares the keys of every two members sigma subset
of tau, so unlike the package's covering-pair check it needs no chain
condition on the family and no transitivity of ``leq``; ``dfs_is_acyclic``
searches the pair digraph depth first, with the successors of a pair read
from every element of its upper face, where the package peels pairs of
in-degree 0 with successors read from the lower face.
"""

import numpy as np

from nonmatching.errors import MonotonicityError


def all_pairs_monotone(family, key_of, leq):
    """Raise MonotonicityError unless ``leq(key(sigma), key(tau))`` holds for
    every two members with sigma a subset of tau (sigma == tau included)."""
    ms = sorted(family)
    if not ms:
        return
    keys = []
    key_id = {}
    kid = np.empty(len(ms), dtype=np.int32)
    for i, m in enumerate(ms):
        k = key_of[m]
        if k not in key_id:
            key_id[k] = len(keys)
            keys.append(k)
        kid[i] = key_id[k]
    nk = len(keys)
    leqmat = np.zeros((nk, nk), dtype=bool)
    for a in range(nk):
        for b in range(nk):
            leqmat[a, b] = bool(leq(keys[a], keys[b]))
    # uint64 when every mask fits in 64 bits, Python ints otherwise; the
    # subset filter is the same expression on both
    arr = np.array(ms, dtype=np.uint64 if ms[-1].bit_length() <= 64 else object)
    chunk = 512
    for i0 in range(0, len(ms), chunk):
        a = arr[i0:i0 + chunk]
        ka = kid[i0:i0 + chunk]
        for j0 in range(0, len(ms), chunk):
            b = arr[j0:j0 + chunk]
            kb = kid[j0:j0 + chunk]
            subset = (a[:, None] & ~b[None, :]) == 0
            ok = leqmat[ka[:, None], kb[None, :]]
            bad = subset & ~ok
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                raise MonotonicityError(
                    f"key map not monotone: {ms[i0 + i]:x} subset of {ms[j0 + j]:x} "
                    f"but keys are not ordered"
                )


def dfs_is_acyclic(family, pairs):
    """(acyclic, witness) for the modified Hasse digraph of a matching, by a
    depth-first search over the pairs; the witness is a face sequence
    (sigma_0, tau_0, sigma_1, tau_1, ...) around one cycle."""
    plist = list(pairs)
    lower = {s: idx for idx, (s, _) in enumerate(plist)}
    # succ[i]: the pairs whose lower face is a cover below tau_i, other than sigma_i
    succ: list[list[int]] = []
    for s, t in plist:
        out = []
        rest = t
        while rest:
            low = rest & -rest
            rest ^= low
            j = lower.get(t ^ low)
            if j is not None and t ^ low != s:
                out.append(j)
        succ.append(out)

    color = [0] * len(plist)  # 0 unseen, 1 on the current chain, 2 done
    for start in range(len(plist)):
        if color[start]:
            continue
        color[start] = 1
        chain, ptr = [start], [0]  # the DFS path, and each node's next successor
        while chain:
            nxts = succ[chain[-1]]
            i = ptr[-1]
            while i < len(nxts) and color[nxts[i]] == 2:
                i += 1
            if i == len(nxts):
                color[chain.pop()] = 2
                ptr.pop()
                continue
            nxt = nxts[i]
            ptr[-1] = i + 1
            if color[nxt] == 1:
                faces: list[int] = []
                for p in chain[chain.index(nxt):]:
                    faces.extend(plist[p])
                return False, tuple(faces)
            color[nxt] = 1
            chain.append(nxt)
            ptr.append(0)
    return True, None
