"""Full geometric profile of the ten-form rank-5 system.

Prints the lattice data (Gram matrix, discriminant, short-vector
census), the polytope census with its facet table, and the sublattices
generated by each shell of lattice points.
"""

from unimod.catalog import make
from unimod.lattice import (
    build_polytope_report,
    generation_index,
    lattice_of,
    polytope_points,
    short_vector_census,
)
from unimod.systems import automorphism_count, complexity, gram_matrix


def main():
    b = make("bixby_seymour")
    gram = gram_matrix(b)
    print("gram matrix of the five generating columns:")
    for i in range(b.n):
        print("  " + " ".join(f"{gram[i, j]:2d}" for j in range(b.n)))
    print(f"discriminant: {complexity(b)}")

    census = short_vector_census(b)
    print(f"unit vectors: {census.units()}, roots: {census.roots()},"
          f" square-3 vectors: {census.counts[3]}")
    print(f"shortest nonzero square: {census.minimum_summary()}")

    rep = build_polytope_report(b)
    print(f"\nlattice points of the polytope: {len(rep.points)}"
          f" (origin + {len(rep.points) - 1} in symmetric pairs)")
    for sq, cnt in rep.square_counts.items():
        print(f"  square {sq:2d}: {cnt} points")
    print(f"vertices: {len(rep.vertices)} (the square-10 shell)")
    print(f"facets: {2 * len(rep.facet_pairs)} in {len(rep.facet_pairs)}"
          " opposite pairs, one pair per form:")
    for f in rep.facet_pairs:
        print(f"  |form {f.rep_row}| = 1 (rows {list(f.class_rows)}):"
              f" {f.point_count} points / {f.vertex_count}"
              " vertices per side")
    print(f"every vertex integral, all facet levels 1:"
          f" {rep.reflexive_verified}")
    print("all sign-vector projections inside the polytope:"
          f" {rep.zonotope_verified}")

    lat = lattice_of(b)
    for sq in (4, 6, 10):
        shell = [v for v in polytope_points(b)
                 if sum(x * x for x in v) == sq]
        idx = generation_index(lat, shell)
        print(f"sublattice generated by the square-{sq} shell:"
              f" index {idx}")

    print(f"\nsigned symmetries: {automorphism_count(b)}"
          " (= 2 * 6!, a central flip times permutations of six labels)")


if __name__ == "__main__":
    main()
