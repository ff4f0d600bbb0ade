"""Pseudo-arcs in PG(hk-1, q), their quadric systems, and additive MDS codes."""

from .gf import (FieldElement, FieldMismatchError, FieldTower, GF,
                 InvariantError, Poly, tower)
from .linalg import SingularMatrixError
from .nrc import (INFINITY, frobenius_orbit_reps, is_imaginary, mobius,
                  nrc_points, orbit_rep_count, osc_basis, osc_basis_infty,
                  veronese)
from .projgeo import (Spread, Subspace, ambient_space, apply_projectivity,
                      block_spread, canonical_spread, field_reduction,
                      intersect, join, lift_subspace, span,
                      spread_membership)
from .pseudoarc import (ArcVerdict, PseudoArc, Tag, build_desarguesian_arc,
                        build_imaginary_arc, contained_in_spread,
                        extend_with_osculating, is_pseudo_arc, thas_bound)
from .quadrics import (IntersectionVerdict, QuadraticForm,
                       is_complete_intersection, monomial_pairs,
                       nrc_quadric_system, trace_reduce, vanishing_space)
from .codes import (ERASED, AdditiveCode, CoordSpec, DecodeError,
                    code_from_subspaces, encode, erasure_decode,
                    evaluation_code, extend_with_derivatives, fold_columns,
                    is_mds, min_distance)
from .pg54 import fixture_code, fixture_lines, fixture_matrix, verify_fixture

__all__ = [
    "FieldElement", "FieldMismatchError", "FieldTower", "GF", "InvariantError",
    "Poly", "tower",
    "SingularMatrixError",
    "INFINITY", "frobenius_orbit_reps",
    "is_imaginary", "mobius", "nrc_points", "orbit_rep_count",
    "osc_basis", "osc_basis_infty", "veronese",
    "Spread", "Subspace", "ambient_space", "apply_projectivity",
    "block_spread", "canonical_spread", "field_reduction", "intersect",
    "join", "lift_subspace", "span", "spread_membership",
    "ArcVerdict", "PseudoArc", "Tag",
    "build_desarguesian_arc", "build_imaginary_arc", "contained_in_spread",
    "extend_with_osculating", "is_pseudo_arc", "thas_bound",
    "IntersectionVerdict", "QuadraticForm",
    "is_complete_intersection", "monomial_pairs", "nrc_quadric_system",
    "trace_reduce", "vanishing_space",
    "ERASED", "AdditiveCode", "CoordSpec", "DecodeError",
    "code_from_subspaces", "encode", "erasure_decode", "evaluation_code",
    "extend_with_derivatives", "fold_columns", "is_mds", "min_distance",
    "fixture_code", "fixture_lines", "fixture_matrix", "verify_fixture",
]
