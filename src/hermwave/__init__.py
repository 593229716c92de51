"""Level-dependent Hermite multiwavelet filter banks.

Construction of interpolatory exponential Hermite subdivision masks,
their biorthogonal filter-bank completion with polynomial and
exponential vanishing moments, cancellation-operator factorizations, and
a multilevel analysis/synthesis transform on Hermite (value plus
derivative) data.
"""

from .annihilator import (
    Annihilator,
    SpaceSpec,
    check_eigvec_condition,
    check_two_level_identity,
    dilation_matrix,
    inverse_dilation_matrix,
    make_annihilator,
    make_taylor,
    taylor_distance,
)
from .filterbank import (
    CompressionReport,
    FactorizationPair,
    FilterBank,
    analyze,
    build,
    build_at,
    check_biorthogonality,
    check_vanishing_moments,
    compress,
    compute_R,
    compute_S,
    factorization_pair,
    synthesize,
)
from .laurent import (
    DivisionError,
    MatLaurent,
    even_part_dev,
    max_coeff_dev,
)
from .signal import (
    HermiteSignal,
    SignalFormatError,
    exponential,
    hyperbolic_cosine,
    monomial,
    read_signal,
    sample_function,
    sine,
    write_signal,
)
from .subdivision import (
    A_MINUS_1,
    LevelMask,
    LimitFunctionTable,
    check_spectral_condition,
    closed_form_deviation,
    closed_form_phi,
    compare_cascade_closed_form,
    interpolatory_residual,
    make_mask,
    render_basic_limit,
    subdivide,
    subdivide_periodic,
)

__version__ = "0.1.0"
