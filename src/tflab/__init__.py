"""Time-frequency analysis on finite abelian groups with Lorentz-space norms.

The package computes short-time Fourier, Wigner-type, and quantized-symbol
transforms on products of cyclic groups, evaluates Lorentz quasi-norms by
exact rearrangement, and checks the transform inequalities (boundedness,
restricted weak type, rearrangement majorization, Hardy/Young, and the
spectrogram concentration chain) by exact evaluation and seeded sampling.
"""

from __future__ import annotations

from .calderon import (
    ETA_SEPARABLE,
    ETA_SQRT_MIN,
    EtaSet,
    HardyResult,
    PiecewiseMonomial,
    calderon_apply,
    calderon_separable_value,
    calderon_t_functional,
    convolution_norm,
    halfline_lorentz_functional,
    hardy_check,
    young_check,
)
from .exponents import (
    Exponent,
    ExponentLike,
    conjugate,
    format_exponent,
    is_inf,
    parse_exponent,
    recip,
)
from .groups import (
    FiniteAbelianGroup,
    GroupEndomorphism,
    parse_group,
)
from .lorentz import (
    MeasuredFunction,
    StepFunction,
    distribution,
    embedding_check,
    embedding_constant,
    holder_check,
    lorentz_norm,
    lorentz_norm_via_distribution,
    power_integral,
    power_sup,
    rearrangement,
    step_halfline_functional,
    tensor_product,
)
from .serialize import canonical_json, fingerprint, load_json, write_csv, write_json
from .tfa import (
    GroupFunction,
    TFArray,
    a_tau,
    conjugate_rihaczek,
    fourier,
    fourier_fft,
    hausdorff_young_check,
    rihaczek,
    stft,
    stft_dilate,
    stft_lebesgue_bound_check,
    tf_pairing,
    tf_shift,
    weyl_apply,
    weyl_operator,
    wigner_factorization_check,
    wigner_tau,
)
from .verify import (
    BASELINE_GRID,
    THEOREMS,
    IndexTuple,
    TheoremInstance,
    VerificationReport,
    check_admissibility,
    compute_baselines,
    extremizer_search,
    hypothesis_gaps,
    majorization_check,
    restricted_weak_type_check,
    sample_functions,
    uncertainty_check,
    verify_theorem,
)

__version__ = "0.1.0"
