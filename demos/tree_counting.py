"""Three ways to count spanning trees.

For a connected multigraph the number of spanning trees equals the
deleted-Laplacian determinant (matrix-tree theorem), the length of the
tree list (spanning_trees reads it off the bases of the cut system, found
by walking its nonzero minors) and the complexity of either derived system
(the determinant of its Gram matrix).  On complete graphs this walks into
Cayley's n^(n-2) formula.
"""

from unimod.catalog import make
from unimod.graphs import (
    cographic_system,
    deleted_laplacian,
    graphic_system,
    spanning_trees,
)
from unimod.intlinalg import determinant
from unimod.systems import complexity


def count_three_ways(name, g):
    kirchhoff = determinant(deleted_laplacian(g))
    listed = len(spanning_trees(g))
    via_cuts = complexity(cographic_system(g))
    print(f"{name}: kirchhoff {kirchhoff}, enumerated {listed},"
          f" cut-system complexity {via_cuts}")
    assert kirchhoff == listed == via_cuts


def main():
    count_three_ways("triangle", make("cycle", 3))
    count_three_ways("theta_4", make("theta", 4))
    count_three_ways("K_4", make("complete", 4))
    count_three_ways("K_5", make("complete", 5))

    print("\nCayley's formula via cut-system complexity:")
    for n in (3, 4, 5):
        c = complexity(cographic_system(make("complete", n)))
        print(f"  K_{n}: {c} == {n}^{n - 2} = {n ** (n - 2)}")

    # the cycle system counts the same trees from the other side
    for n in (4, 5):
        g = make("complete", n)
        assert complexity(graphic_system(g)) == complexity(cographic_system(g))
    print("cycle-system complexities agree throughout")


if __name__ == "__main__":
    main()
