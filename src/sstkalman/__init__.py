"""Syndrome-former Viterbi decoding viewed through the innovations method.

Binary polynomial arithmetic, rate-1/2 convolutional and quick-look-in
codes, the BPSK/AWGN channel, exact parity-probability calculus, branch
covariances with mutual-information bounds, a reference Kalman filter
and fixed-interval smoother, the scarce-state-transition decoder, and
an exhaustive quick-look-in family search.

Import the modules, e.g. `from sstkalman import covar_mi`; the package
root binds them and `__version__` only.
"""

from . import channel, convcode, covar_mi, gf2, kalman, parity_prob, qli_search, sstdec

__version__ = "0.1.0"
