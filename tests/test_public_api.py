"""The names the package exports are pinned.

Adding or removing a public name is an API change; it has to be made here
as well, on purpose.
"""

import inspect

import hermwave

EXPORTS = {
    # annihilator
    "Annihilator", "SpaceSpec", "check_eigvec_condition", "check_two_level_identity",
    "dilation_matrix", "inverse_dilation_matrix", "make_annihilator", "make_taylor",
    "taylor_distance",
    # filterbank
    "CompressionReport", "FactorizationPair", "FilterBank", "analyze", "build", "build_at",
    "check_biorthogonality", "check_vanishing_moments", "compress", "compute_R", "compute_S",
    "factorization_pair", "synthesize",
    # laurent
    "DivisionError", "MatLaurent", "even_part_dev", "max_coeff_dev",
    # signal
    "HermiteSignal", "SignalFormatError", "exponential", "hyperbolic_cosine", "monomial",
    "read_signal", "sample_function", "sine", "write_signal",
    # subdivision
    "A_MINUS_1", "LevelMask", "LimitFunctionTable", "check_spectral_condition",
    "closed_form_deviation", "closed_form_phi", "compare_cascade_closed_form",
    "interpolatory_residual", "make_mask", "render_basic_limit", "subdivide",
    "subdivide_periodic",
}


def test_exported_names_are_pinned():
    # submodules become package attributes once imported; they are not exports
    exported = {
        name for name, value in vars(hermwave).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == EXPORTS
