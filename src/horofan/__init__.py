"""Coloured fans for horospherical varieties.

Exact combinatorial machinery: Dynkin diagrams and the per-colour
smoothness condition, integer linear algebra (Smith normal form,
saturation), strongly convex rational cones, coloured fans, the
simplicial / regular / vivid / toroidal classification with its global
verdicts (Q-factorial, factorial, smooth, quotient singularities), torus
factor splitting, and the combinatorial Cox construction.
"""

from .classification import ConeClassification, Verdict, classify, classify_cone, \
    is_vivid, simplicial_multiset
from .cones import BOUNDARY, OUTSIDE, RELATIVE_INTERIOR, Cone, \
    cone_from_generators, contains, extreme_rays, faces, intersect, is_face_of, \
    primitive, zero_cone
from .cox import CoxConsistency, CoxData, TorusSplit, cox_consistency, \
    cox_construct, has_torus_factors, torus_split
from .document import FanDocument, build, parse, render
from .dynkin import DynkinData, DynkinEdge, connected_component, \
    is_projective_space_product, standard_diagram, vivid_colour_ok
from .fans import ColouredCone, ColouredFan, ColouredLattice, validate_fan
from .lattice import FGAbelianGroup, cokernel_structure, extends_to_Z_basis, \
    rank_of, smith_normal_form
from .local import LocalModel, affine_local, decolour

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY", "OUTSIDE", "RELATIVE_INTERIOR",
    "ColouredCone", "ColouredFan", "ColouredLattice", "Cone",
    "ConeClassification", "CoxConsistency", "CoxData", "DynkinData",
    "DynkinEdge", "FGAbelianGroup", "FanDocument", "LocalModel", "TorusSplit",
    "Verdict", "affine_local", "build", "classify", "classify_cone",
    "cokernel_structure", "cone_from_generators",
    "connected_component", "contains", "cox_consistency", "cox_construct",
    "decolour", "extends_to_Z_basis", "extreme_rays", "faces", "has_torus_factors",
    "intersect", "is_face_of", "is_projective_space_product", "is_vivid",
    "parse", "primitive", "rank_of", "render", "simplicial_multiset",
    "smith_normal_form", "standard_diagram", "torus_split", "validate_fan",
    "vivid_colour_ok", "zero_cone",
]
