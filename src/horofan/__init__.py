"""Coloured fans for horospherical varieties.

Exact combinatorial machinery: Dynkin diagrams and the per-colour
smoothness condition, integer linear algebra (Smith normal form,
saturation), strongly convex rational cones, coloured fans, the
simplicial / regular / vivid / toroidal classification with its global
verdicts (Q-factorial, factorial, smooth, quotient singularities), torus
factor splitting, and the combinatorial Cox construction.  The submodules
are the API (`from horofan import cones`); the package holds `__version__`.
"""

__version__ = "0.1.0"
