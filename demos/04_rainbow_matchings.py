"""Rainbow matchings: guarantees, tight examples, and the labelled complex.

Given edge sets E_1..E_m with every pairwise union containing k disjoint
edges, a rainbow matching picks k disjoint edges from k distinct sets.
2k-1 sets suffice on bipartite hosts, 3k-2 in general, and one bipartite
set fewer admits counterexamples, which the searcher finds and verifies.
"""

from nonmatching import Graph
from nonmatching.rainbow import (
    RainbowInstance,
    find_rainbow_matching,
    labelled_nm_complex,
    partition_rank,
    search_tightness,
    verify_hypotheses,
    verify_theorem,
    verify_topological_helly_conclusion,
)

host = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)], ((0, 1), (2, 3)))
pm1 = [(0, 2), (1, 3)]
pm2 = [(0, 3), (1, 2)]

print("-- two alternating matchings of the 4-cycle: no rainbow --")
inst2 = RainbowInstance.make(host, [pm1, pm2], 2)
print("hypotheses hold:", verify_hypotheses(inst2))
print("rainbow matching:", find_rainbow_matching(inst2))

print()
print("-- a third set restores it (the bipartite guarantee at k=2) --")
inst3 = RainbowInstance.make(host, [pm1, pm2, pm1], 2)
verdict = verify_theorem(inst3)
print("verdict:", verdict.status, "certificate:",
      [(e, i) for (e, i) in verdict.certificate.assignment])

print()
print("-- tightness witnesses, found by search and re-verified --")
for k, m in ((2, 2), (3, 4)):
    w = search_tightness(k, bipartite=True, m=m)
    print(f"k={k}, {m} sets: witness {[sorted(s) for s in w.edge_sets]}")
    assert verify_hypotheses(w) and find_rainbow_matching(w) is None

print()
print("-- the labelled complex behind the proof --")
tiny = RainbowInstance.make(host, [[(0, 2)], [(0, 2)], [(0, 2)]], 2)
cx = labelled_nm_complex(tiny)
print("labelled ground:", cx.ground.elements)
print("partition rank of the whole ground:", partition_rank(tiny, cx.ground.elements))
report = verify_topological_helly_conclusion(tiny, 1)
print("Helly-type conclusion face:", report.face, "residual rank:", report.residual_rank)

