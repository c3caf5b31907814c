"""gausslab: exact Gauss sums of quadratic forms on finite abelian groups,
quadratic character data over finite fields, finite Heisenberg groups with
their Stone-von-Neumann representations, Witt-vector arithmetic, and
supersingularity certificates for explicit affine curves and surfaces.

All arithmetic is exact: cyclotomic integers and rationals, never floats.

The exports below resolve lazily (PEP 562): `gausslab.X` imports the module
that defines X on first use, so a process loads only the modules it touches.
"""

import importlib

_EXPORTS = {
    "exactalg": (
        "CyclotomicNumber", "IntPolynomial", "abs_square", "is_root_of_unity",
        "power_sums_from_char_poly", "power_sums_to_char_poly", "weil_certificate",
        "weil_chain", "zeta", "zeta_sum",
    ),
    "fields": (
        "AdditivePolynomial", "Embedding", "FieldElement", "FiniteField", "WittVector2",
        "absolute_trace", "absolute_trace_int", "additive_kernel", "extension",
        "gamma_carry", "gamma_value", "make_field", "relative_trace",
        "subfield_elements", "witt_frobenius", "witt_to_zp2", "witt_trace",
        "witt_verschiebung",
    ),
    "quadform": (
        "FiniteAbelianGroup", "QuadraticForm", "char2_invariant",
        "radical_descent", "random_nondegenerate", "recursive_gauss_eval",
    ),
    "charsum": (
        "ASLinear", "CrossMonomial", "DiagMonomial", "HalfSquare", "PairingDatum",
        "Precompose", "QuadDatum", "WittLinear", "canonical_quadratic", "char_sum",
        "clb_cocycle_identity_check", "derive_pairing", "geometric_kernel",
        "hasse_davenport_check", "invariance_check", "symbolic_pairing",
    ),
    "heisenberg": (
        "AlternatingPairing", "HeisenbergGroup", "SvNRepresentation", "build_group",
        "check_faithful", "heisenberg_from_datum", "stone_von_neumann",
    ),
    "varieties": (
        "CurveSpec", "SurfaceSpec", "ZetaData", "betti_closure_check",
        "betti_prediction", "count_points", "is_geometrically_connected",
        "random_curve_spec", "surface_counts", "surface_summand_certificates",
        "verify_additive", "w2_endomorphism", "zeta_pipeline",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
