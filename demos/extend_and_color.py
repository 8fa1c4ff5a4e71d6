"""
Extending partial colorings, and coloring for real
==================================================

The deletion-minimal argument leans on two constructive moves: put a
deleted edge back under a color budget (keeping every other element
fixed), and re-color across an apex vertex.  Both are implemented as
procedures and validated by brute force on all small graphs.  The same
machinery then powers a practical solver.
"""
from totalcolor.coloring import exact_chi_tt, solve_tcc, verify
from totalcolor.gen import gen_high_degree_P, gen_high_degree_P_drawing
from totalcolor.graphs import build_graph
from totalcolor.reduce import brute_validate_extensions

# 1. Exact values on desk-size graphs.  chi_tt(K4) = 5, chi_tt(C5) = 4.
k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
c5 = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
for name, g in (("K4", k4), ("C5", c5)):
    k, witness = exact_chi_tt(g)
    assert verify(g, witness) == []
    print(name, "needs exactly", k, "colors")

# 2. The extension procedures, brute-forced over every connected graph on
#    up to four vertices, both admissible budgets and every deletable edge,
#    each fed up to 1000 proper colorings of the reduced graph.  Most
#    instances have more than that, so the run says how many hit the cap.
#    Zero failures expected.
report = brute_validate_extensions(4)
print(
    "\nextension check on n<=4:",
    report.checks,
    "extensions over",
    report.instances,
    "instances ->",
    report.failures,
    "failures;",
    report.truncated,
    "instances stopped at the 1000-coloring cap",
)
assert report.failures == 0

# 3. The solver on a member of the high-degree planar family the theory
#    targets: hub degree 11, quadrangulated rings, triangle-free.
delta = 11
g = gen_high_degree_P(delta, 2 * delta + 1)
res = solve_tcc(g)
print("\nhigh-degree instance: n =", len(g.vertices), " delta =", delta)
print("colors used:", res.colors_used, " budget:", res.kappa)
print("proper:", verify(g, res.coloring) == [])
for line in res.trace:
    print("   ", line)

# the drawing variant hands back the embedding as well
g2, emb = gen_high_degree_P_drawing(delta, delta + 1)
print("\nbare star drawing:", len(emb.vertices()), "vertices,",
      "one face of size", len(emb.faces()[0]))
