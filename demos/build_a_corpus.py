"""
Reproducible corpora
====================

Experiments live and die by regenerable inputs.  A GenSpec names a
generator family, its parameters, and a seed; write_corpus materializes a
directory of edge lists and drawings plus a manifest with content
checksums.  Same specs, same bytes -- the generators draw randomness from
a fixed 64-bit linear congruential sequence, never from the host.
"""
import json
import tempfile
from pathlib import Path

from totalcolor.gen import GenSpec, generate, write_corpus
from totalcolor.graphs import parse_edge_list

specs = [
    GenSpec("grid", (4, 4)),
    GenSpec("crossed_grid", (3, 4, 2), seed=9),
    GenSpec("planar_triangulation", (10,), seed=1),
    GenSpec("wheel_sum", (11, 23)),
]

# slugs are filesystem-safe and encode the parameters
for s in specs:
    print(s.family, s.parameters, "->", s.slug())

# generate one in memory first: a (graph, drawing) pair
g, emb = generate(specs[1])
print("\ncrossed grid: n =", len(g.vertices), " segments =", emb.num_segments())

# write the whole corpus into a scratch directory (removed on exit) and
# inspect the manifest
with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
    out = Path(tmp)
    manifest = write_corpus(specs, out)
    print("\nwrote", len(manifest["entries"]), "entries to", out)
    for entry in manifest["entries"]:
        for fname, digest in sorted(entry["sha256"].items()):
            print("   ", fname, digest[:16])

    # the manifest on disk matches what write_corpus returned
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest

    # round-trip one artifact through the plain-text parsers: the crossed
    # grid's edge list parses back to the same graph generated above
    entry = manifest["entries"][1]
    g_back = parse_edge_list((out / entry["files"]["graph"]).read_text())
    assert sorted(g_back.edges()) == sorted(g.edges())
print("\nedge lists parse back to the same graphs; rerunning write_corpus")
print("over the same specs reproduces every checksum bit for bit.")
