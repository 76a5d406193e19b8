"""Evaluation codes on algebraic surfaces over small finite fields.

Subpackage map:

* ``gf``         exact F_q arithmetic, quadratic characters, extensions,
                 distinct-degree splitting
* ``fpx``        polynomials over a prime field as packed int lists: products,
                 division, a lazily reduced Euclid, Barrett contexts
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
* ``records``    Record, the immutable base of the library's small exact values
* ``cli``        the ``surfcodes`` command-line tool

Importing the package loads only ``errors``.  A submodule, or a name
re-exported from one, is imported on first access (PEP 562), so each CLI
verb loads just the modules it runs.
"""

import importlib

from . import errors

__version__ = "0.1.0"

_MODULES = ("asymptotic", "bounds", "cli", "codes", "fpx", "gf", "records", "surfaces",
            "towers")

# re-exported name -> the submodule defining it
_NAMES = {
    **dict.fromkeys(("BoundReport", "lifted_bound", "parameter_report"), "bounds"),
    **dict.fromkeys(("LinearCode", "build_code", "exact_min_distance",
                     "rational_points", "section_basis"), "codes"),
    **dict.fromkeys(("FieldSpec", "Polynomial", "make_field"), "gf"),
    **dict.fromkeys(("DivisorClass", "SurfaceModel", "curve_product", "hirzebruch",
                     "intersect", "projective_plane", "quadric_p1xp1"), "surfaces"),
    **dict.fromkeys(("HyperellipticCurve", "TowerCertificate", "golod_shafarevich_check",
                     "hyperelliptic_product_certificate"), "towers"),
}

__all__ = ["asymptotic", "bounds", "cli", "codes", "errors", "fpx", "gf", "records",
           "surfaces", "towers", *_NAMES, "__version__"]


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _NAMES:
        return getattr(importlib.import_module(f"{__name__}.{_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
