"""Exact combinatorics of convex polygon dissections and their central components.

Provides arbitrary-precision sequence values (Catalan, Fuss-Catalan, ballot
numbers), brute-force enumeration of triangulations and k-angulations, the
central-component recursions and censuses, congruence verifiers, and a
deterministic SVG renderer.  Everything is exact integer arithmetic; no
floating point enters any count.
"""

from __future__ import annotations

from .congruences import (
    Theorem,
    VerificationReport,
    predict_mod2,
    predict_mod4,
    verify_congruence,
)
from .enumeration import (
    CensusEntry,
    census_to_json,
    central_census,
    count_vertex0_outside,
    enumerate_kangulations,
)
from .model import (
    DIAMETER,
    CentralComponent,
    Dissection,
    central_component,
    contains_vertex,
    face_arcs,
    faces,
    parse_diagonals,
    placement_count,
)
from .recursions import (
    central_recursion_rhs,
    dyck_formula,
    dyck_midpoint_uu_bruteforce,
    fixed_vertex_outside,
    fixed_vertex_outside_double_sum,
    kang_recursion_rhs,
    quad_recursion_rhs,
)
from .sequences import (
    ballot_T,
    catalan,
    catalan_mod,
    fuss_catalan,
    kangulation_count,
    quadrangulation_count,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "DIAMETER",
    "CensusEntry",
    "CentralComponent",
    "Dissection",
    "Theorem",
    "VerificationReport",
    "ballot_T",
    "catalan",
    "catalan_mod",
    "census_to_json",
    "central_census",
    "central_component",
    "central_recursion_rhs",
    "contains_vertex",
    "count_vertex0_outside",
    "dyck_formula",
    "dyck_midpoint_uu_bruteforce",
    "enumerate_kangulations",
    "face_arcs",
    "faces",
    "fixed_vertex_outside",
    "fixed_vertex_outside_double_sum",
    "fuss_catalan",
    "kang_recursion_rhs",
    "kangulation_count",
    "parse_diagonals",
    "placement_count",
    "predict_mod2",
    "predict_mod4",
    "quad_recursion_rhs",
    "quadrangulation_count",
    "render_svg",
    "verify_congruence",
]
