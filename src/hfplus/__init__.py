"""Exact surgery calculator for doubly-filtered knot chain complexes.

The package starts from a finite bifiltered complex over Z[U]
(generators with two filtration levels and a homological grading,
arrows weighted by U-powers) and computes the Heegaard Floer homology
HF+ of any p/q surgery on the underlying knot, one Spin^c structure
at a time, entirely in exact integer/rational arithmetic: d-invariants
as exact fractions, the reduced group degree by degree with torsion,
and derived diagnostics that certify or rule out the small genus-one
knots from a single surgery.
"""

__version__ = "0.1.0"

from .acomplex import (LaurentPolynomial, alexander_polynomial, genus,
                       hfk_hat, kernel_rank_v, realize)
from .cfk import (BUILTIN_NAMES, Generator, KnotComplex, UTerm, builtin,
                  flip_chain_sign, grading_solve, mirror, parse_text,
                  require_valid, serialize_text, validate)
from .detect import (CompareResult, Diagnostic, casson_surgery,
                     classify_surgery, compare, diagnostic_sum)
from .errors import (CFKError, FlipMissingError, GradingError,
                     InvalidComplexError, NotStabilizedError, ParseError,
                     TorsionInTowerError)
from .homology import (GradedComplex, GradedGroup, TowerDecomposition,
                       graded_homology, smith_normal_form, tower_decompose)
from .surgery import (HFResult, MappingCone, SpincResult, SurgeryDescriptor,
                      build_mapping_cone, conjugation_constant, hf_plus,
                      lens_d_oracle, truncation_sigma)

__all__ = [
    "__version__",
    # complexes
    "Generator", "UTerm", "KnotComplex", "BUILTIN_NAMES",
    "builtin", "mirror", "validate", "require_valid", "parse_text",
    "serialize_text", "grading_solve", "flip_chain_sign",
    # homological algebra
    "smith_normal_form", "graded_homology", "GradedComplex", "GradedGroup",
    "tower_decompose", "TowerDecomposition",
    # large-surgery pieces
    "realize", "hfk_hat", "genus", "alexander_polynomial",
    "kernel_rank_v", "LaurentPolynomial",
    # surgery
    "hf_plus", "HFResult", "SpincResult", "SurgeryDescriptor",
    "MappingCone", "build_mapping_cone", "truncation_sigma",
    "lens_d_oracle", "conjugation_constant",
    # detection
    "diagnostic_sum", "classify_surgery", "compare", "casson_surgery",
    "Diagnostic", "CompareResult",
    # errors
    "CFKError", "ParseError", "InvalidComplexError", "GradingError",
    "FlipMissingError", "NotStabilizedError", "TorsionInTowerError",
]
