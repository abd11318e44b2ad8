"""Exact arithmetic for unimodular systems of integer linear forms.

Construction and certification of systems, complexity and base enumeration,
Gale duality, direct sums and unit-summand splitting, graphic and cographic
systems of multigraphs, and the associated integral lattice with its
reflexive polytope and the cube's zonotopal shadow.  All computation is
exact, in Python ints.
"""

from .catalog import entries as catalog_entries
from .catalog import make as catalog_make
from .errors import (CapError, CatalogError, ConnectivityError,
                     DegenerateSystemError, DimensionError, MembershipError,
                     NotUnimodularError, PreconditionError, RankError,
                     UnimodError)
from .graphs import (Multigraph, bridges, cographic_system, deleted_laplacian,
                     graphic_system, incidence_matrix, is_connected,
                     laplacian, loops, spanning_trees, stabilize)
from .intlinalg import (IntMatrix, adjugate, determinant, hermite_form,
                        kernel_basis, rank, solve_unimodular, square_minors)
from .lattice import (FacetPair, LatticeModel, PolytopeReport,
                      ShortVectorCensus, build_polytope_report, discriminant,
                      facets, generation_index, lattice_generated_by,
                      lattice_of, polytope_points, short_vector_census,
                      vertex_test, zonotope_check, zonotope_witness)
from .systems import (EMPTY_SYSTEM, SignedCorrespondence, UnimodularSystem,
                      UpsilonSplit, are_isomorphic, automorphism_count,
                      complexity, direct_sum, enumerate_bases, form_pairing_matrix,
                      from_matrix, gale_dual, gram_matrix, multiplicity_classes,
                      split_upsilon)

__version__ = "0.1.0"

__all__ = [
    "CapError", "CatalogError", "ConnectivityError", "DegenerateSystemError",
    "DimensionError", "EMPTY_SYSTEM", "FacetPair", "IntMatrix", "LatticeModel",
    "MembershipError", "Multigraph", "NotUnimodularError", "PolytopeReport",
    "PreconditionError", "RankError", "ShortVectorCensus",
    "SignedCorrespondence", "UnimodError", "UnimodularSystem", "UpsilonSplit",
    "adjugate", "are_isomorphic", "automorphism_count", "bridges",
    "build_polytope_report", "catalog_entries", "catalog_make",
    "cographic_system", "complexity", "deleted_laplacian", "determinant",
    "direct_sum", "discriminant", "enumerate_bases", "facets",
    "form_pairing_matrix", "from_matrix", "gale_dual", "generation_index",
    "gram_matrix", "graphic_system", "hermite_form", "incidence_matrix",
    "is_connected", "kernel_basis", "laplacian", "lattice_generated_by",
    "lattice_of", "loops", "multiplicity_classes", "polytope_points", "rank",
    "short_vector_census", "solve_unimodular", "spanning_trees",
    "split_upsilon", "square_minors", "stabilize", "vertex_test",
    "zonotope_check", "zonotope_witness",
]
