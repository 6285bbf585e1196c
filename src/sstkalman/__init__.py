"""Syndrome-former Viterbi decoding viewed through the innovations method.

Binary polynomial arithmetic, rate-1/2 convolutional and quick-look-in
codes, the BPSK/AWGN channel, exact parity-probability calculus, branch
covariances with mutual-information bounds, a reference Kalman filter
and fixed-interval smoother, the scarce-state-transition decoder, and
an exhaustive quick-look-in family search.
"""

from .gf2 import BinaryPoly, ZERO, ONE, D
from .convcode import ConvCode, make_qli, get_code, load_code
from .channel import DB_GRID, SnrPoint, snr_point, grid_points, transmit, make_rng
from .parity_prob import (
    ErrorSupport,
    EpsPolynomial,
    parity_one_prob,
    joint_parity_prob,
    marginal_polynomial,
    joint_polynomial,
    theta,
    theta_four_ways,
)
from .covar_mi import (
    code_sigma_x,
    sigma_x_prime,
    sigma_r,
    sigma_c_general,
    sigma_c_closed_2x2,
    eigen_track,
    bound_chain,
    binary_input_mi,
    sweep,
)
from .kalman import (
    StateSpaceModel,
    state_space_model,
    run_filter,
    covariance_recursion,
    gaussian_mi,
    smoother_cov,
    smoothed_estimate,
    identity_report,
)
from .sstdec import predecode, sst_decode, classical_viterbi, simulate
from .qli_search import enumerate_qli, exact_counterexample_snrs

__version__ = "0.1.0"

__all__ = [
    "BinaryPoly", "ZERO", "ONE", "D",
    "ConvCode", "make_qli", "get_code", "load_code",
    "DB_GRID", "SnrPoint", "snr_point", "grid_points", "transmit", "make_rng",
    "ErrorSupport", "EpsPolynomial", "parity_one_prob", "joint_parity_prob",
    "marginal_polynomial", "joint_polynomial", "theta", "theta_four_ways",
    "code_sigma_x", "sigma_x_prime", "sigma_r", "sigma_c_general",
    "sigma_c_closed_2x2", "eigen_track", "bound_chain", "binary_input_mi",
    "sweep",
    "StateSpaceModel", "state_space_model", "run_filter",
    "covariance_recursion", "gaussian_mi", "smoother_cov",
    "smoothed_estimate", "identity_report",
    "predecode", "sst_decode", "classical_viterbi", "simulate",
    "enumerate_qli", "exact_counterexample_snrs",
    "__version__",
]
