"""
A first drawing: rotations, faces, and the charge identity
==========================================================

A drawing is stored as a rotation system: every vertex lists its outgoing
darts in cyclic order, and faces fall out of walking twin-then-next.  This
script builds the 4x4 grid on the torus, traces its faces, and checks the
bookkeeping identity that the whole discharging method stands on.
"""
from totalcolor.embedding import charge_sum_identity, check_two_cell
from totalcolor.gen import gen_toroidal_grid

# 1. Build the drawing.  The generator returns the abstract graph and the
#    embedded drawing as separate objects.
g, emb = gen_toroidal_grid(4, 4)
print("vertices:", len(emb.vertices()))
print("segments:", emb.num_segments())
print("surface: ", emb.surface)

# 2. Trace the faces.  Every face of the torus grid is a quadrilateral.
faces = emb.faces()
print("faces:   ", len(faces))
print("sizes:   ", sorted(len(f) for f in faces) == [4] * len(faces))

# a face is the dart tuple of its boundary walk; owners turn darts into vertices
f0 = faces[0]
print("first face boundary:", [emb.owner[d] for d in f0])

# 3. Euler characteristic and two-cell check: V - E + F must be 0 on the
#    torus and every face must be a disc.
check_two_cell(emb)

# 4. The charge identity.  Putting deg(v) - 6 on vertices and 2*size - 6 on
#    faces always sums to -6 * (Euler characteristic): 0 on the torus, -12
#    in the plane.  Exact integers, no tolerance.
total, expected = charge_sum_identity(emb)
print("charge total:", total, "expected:", expected)
assert total == expected

# The same identity on a planar drawing, for contrast.
from totalcolor.gen import gen_planar_triangulation

g2, emb2 = gen_planar_triangulation(12, seed=3)
total2, expected2 = charge_sum_identity(emb2)
print("planar charge total:", total2, "expected:", expected2)
assert total2 == expected2 == -12
