"""Evaluation codes on algebraic surfaces over small finite fields.

Subpackage map:

* ``gf``         exact F_q arithmetic, quadratic characters, extensions,
                 distinct-degree splitting
* ``surfaces``   the Neron-Severi catalog: intersection form, canonical
                 class, positivity flags, point counts
* ``codes``      generator matrices, exact minimum distance, rational-locus
                 checks
* ``bounds``     distance/dimension bounds, comparison reports, tower lifting
* ``towers``     hyperelliptic point counts, 2-torsion Frobenius modules,
                 Golod-Shafarevich certificates
* ``asymptotic`` exact rational (kappa, chi) -> (delta, R) maps and diagrams
* ``errors``     the three exception types, one per CLI exit code:
                 Precondition, BudgetExceeded, InvariantError
* ``cli``        the ``surfcodes`` command-line tool
"""

from . import asymptotic, bounds, codes, errors, gf, surfaces, towers
from .bounds import BoundReport, lifted_bound, parameter_report
from .codes import LinearCode, build_code, exact_min_distance, rational_points, section_basis
from .gf import FieldSpec, Polynomial, make_field
from .surfaces import (DivisorClass, SurfaceModel, curve_product, hirzebruch,
                       intersect, projective_plane, quadric_p1xp1)
from .towers import (HyperellipticCurve, TowerCertificate,
                     golod_shafarevich_check, hyperelliptic_product_certificate)

__version__ = "0.1.0"

__all__ = [
    "asymptotic", "bounds", "cli", "codes", "errors", "gf", "surfaces", "towers",
    "BoundReport", "lifted_bound", "parameter_report",
    "LinearCode", "build_code", "exact_min_distance", "rational_points",
    "section_basis",
    "FieldSpec", "Polynomial", "make_field",
    "DivisorClass", "SurfaceModel", "curve_product", "hirzebruch",
    "intersect", "projective_plane", "quadric_p1xp1",
    "HyperellipticCurve", "TowerCertificate", "golod_shafarevich_check",
    "hyperelliptic_product_certificate",
    "__version__",
]
