"""Numerical toolkit for totally geodesic cycles in compact hyperbolic space:
Lorentz-group decompositions, the spherical transform of exp(-mu cosh x),
cycle distance invariants, discrete-orbit counting, and the large-mu
asymptotics tying them together.  Every closed form ships with an
independent quadrature or brute-force counterpart.
"""

__version__ = "0.1.0"

from .lorentz import (
    CycleConfig,
    basepoint,
    check_membership,
    commutation_identities,
    embed_m_rotation,
    embed_rotation,
    lorentz_inverse,
    make_boost,
    make_scale,
    make_unipotent,
    minkowski_form,
    spin_cover_so13,
)
from .decompose import (
    AnkFactors,
    KakFactors,
    NakFactors,
    ank,
    dist,
    dist_horospherical,
    from_horospherical,
    kak,
    nak,
    to_horospherical,
)
from .transform import (
    KScaledInterpolator,
    bessel_k,
    bessel_k_asymptotic,
    bessel_k_imag_scaled,
    bessel_k_scaled,
    gr_identity_3_471_9,
    gr_identity_6_592_12,
    gr_identity_6_726_4,
    phi_mu,
    selberg_transform_agreement,
    selberg_transform_closed,
    selberg_transform_quadrature,
)
from .cycles import (
    CycleInvariants,
    PreparedCycle,
    check_u11_gap,
    cycle_invariants,
    delta_u,
    f_gamma,
    min_dist_to_cycle,
    verify_f_geometric,
)
from .orbits import (
    Ball,
    GeneratorSet,
    OrbitEntry,
    OrbitTable,
    ball_enumerate,
    coset_reduce,
    counting_function,
    cyclic_boost_generators,
    delta_spectrum,
    fuchsian_generators,
    ordering_statistic,
    picard_generators,
)
from .bounds import (
    BoxDomain,
    JGammaResult,
    LimitShapeRow,
    SpectrumModel,
    envelope_fraction,
    f_total_integral,
    j_gamma_decay_check,
    j_gamma_quadrature,
    plateau_gap,
    rescaled_limit_shape,
    sigma0_model,
    spectral_tail_bound,
    weyl_count,
)
