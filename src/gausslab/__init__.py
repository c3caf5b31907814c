"""gausslab: exact Gauss sums of quadratic forms on finite abelian groups,
quadratic character data over finite fields, finite Heisenberg groups with
their Stone-von-Neumann representations, Witt-vector arithmetic, and
supersingularity certificates for explicit affine curves and surfaces.

All arithmetic is exact: cyclotomic integers and rationals, never floats.
"""

from .exactalg import (
    CyclotomicNumber,
    IntPolynomial,
    abs_square,
    is_root_of_unity,
    power_sums_from_char_poly,
    power_sums_to_char_poly,
    weil_certificate,
    zeta,
    zeta_sum,
)
from .fields import (
    AdditivePolynomial,
    Embedding,
    FieldElement,
    FiniteField,
    WittVector2,
    absolute_trace,
    absolute_trace_int,
    additive_kernel,
    extension,
    gamma_carry,
    gamma_value,
    make_field,
    relative_trace,
    subfield_elements,
    witt_frobenius,
    witt_restriction,
    witt_to_zp2,
    witt_trace,
    witt_verschiebung,
)
from .quadform import (
    BilinearPairing,
    FiniteAbelianGroup,
    QuadraticForm,
    char2_invariant,
    radical_descent,
    random_nondegenerate,
    recursive_gauss_eval,
)
from .charsum import (
    ASLinear,
    CrossMonomial,
    DiagMonomial,
    HalfSquare,
    PairingDatum,
    Precompose,
    QuadDatum,
    WittLinear,
    canonical_quadratic,
    char_sum,
    clb_cocycle_identity_check,
    derive_pairing,
    geometric_kernel,
    gos_rank,
    hasse_davenport_check,
    invariance_check,
    pullback_sum_identity,
    symbolic_pairing,
    trace_value,
)
from .heisenberg import (
    AlternatingPairing,
    HeisenbergGroup,
    SvNRepresentation,
    build_group,
    check_faithful,
    darboux,
    heisenberg_from_datum,
    stone_von_neumann,
)
from .varieties import (
    CurveSpec,
    SurfaceSpec,
    ZetaData,
    betti_closure_check,
    betti_prediction,
    count_points,
    counts_vs_character_sums,
    is_geometrically_connected,
    random_curve_spec,
    surface_counts,
    surface_summand_certificates,
    verify_additive,
    w2_endomorphism,
    zeta_pipeline,
)

__version__ = "0.1.0"
