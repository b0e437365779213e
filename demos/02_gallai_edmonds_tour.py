"""The Gallai-Edmonds decomposition and what it says about maximum matchings.

Every graph splits canonically into D (vertices some maximum matching
misses), A (the neighbourhood of D), and C (the rest).  The components of D
are factor critical, C is perfectly matchable, and every maximum matching
decomposes along the partition.  This is the engine room of the Morse
constructions in demo 03.

The properties are checked by ``ge_violation``, which names the first one a
claimed decomposition fails; the last part of the tour hands it wrong ones.
"""

from nonmatching import Graph, gallai_edmonds, matching_number, maximum_matchings
from nonmatching.graphs import graph_to_mask
from nonmatching.sweeps import GE_PROPERTIES, ge_violation


def check(g, comps, a, c):
    return ge_violation(g.vertex_count, graph_to_mask(g), comps, a, c)


def tour(name, g):
    ge = gallai_edmonds(g)
    print(f"{name}: nu = {matching_number(g)}, "
          f"{len(maximum_matchings(g))} maximum matchings")
    print(f"  D components: {[sorted(c) for c in ge.components]}")
    print(f"  A = {sorted(ge.a_set)}, C = {sorted(ge.c_set)}")
    bad = check(g, ge.components, ge.a_set, ge.c_set)
    print(f"  the {len(GE_PROPERTIES)} properties, every maximum matching "
          f"splitting along the partition included: {bad or 'all hold'}")
    print()


tour("single edge", Graph.from_edges(2, [(0, 1)]))
tour("path on 3", Graph.path(3))
tour("5-cycle (factor critical)", Graph.cycle(5))
tour("two triangles sharing nothing",
     Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
tour("a star plus a triangle",
     Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (3, 5)]))

# Perturbation invariance: edges inside A, or between A and C, never change
# the decomposition.
g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
ge = gallai_edmonds(g)
print("host:", sorted(g.edges), "-> A =", sorted(ge.a_set), "C =", sorted(ge.c_set))
for (u, v) in [(1, 3)]:
    for g2 in (g.remove_edge(u, v), g.add_edge(u, v)):
        print(f"  toggling ({u},{v}) keeps the decomposition:",
              gallai_edmonds(g2) == ge)
print()

# Wrong decompositions are caught, each by the first property it breaks.
p4 = Graph.path(4)
print("path on 4: nu =", matching_number(p4), "(a perfect matching, so D = A = {})")
for comps, a, c in [
    ([{0, 1, 2, 3}], set(), set()),  # all of it as one component: even
    ([{0}], {1}, {2, 3}),  # A = {1} is a tight barrier, but has no surplus
    ([{0, 1, 2}], {3}, set()),  # the path 0-1-2 is not factor critical
]:
    claim = (tuple(frozenset(k) for k in comps), frozenset(a), frozenset(c))
    print(f"  D components {[sorted(k) for k in comps]}, A = {sorted(a)}, "
          f"C = {sorted(c)}: fails {check(p4, *claim)}")
