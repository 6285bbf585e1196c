"""Syndrome-former Viterbi decoding viewed through the innovations method.

Binary polynomial arithmetic, rate-1/2 convolutional and quick-look-in
codes, the BPSK/AWGN channel, exact parity-probability calculus, branch
covariances with mutual-information bounds, a reference Kalman filter
and fixed-interval smoother, the scarce-state-transition decoder, and
an exhaustive quick-look-in family search.

Import the modules, e.g. `from sstkalman import covar_mi`; the package
root binds `__version__` and its eight layer modules only.  Each module
is imported on its first access (`sstkalman.sstdec`, or `getattr`), so
`import sstkalman` loads none of them, and `dir(sstkalman)` lists them.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("channel", "convcode", "covar_mi", "gf2", "kalman", "parity_prob",
            "qli_search", "sstdec")


def __getattr__(name):
    # PEP 562: called only for names the module does not bind yet; importing
    # a submodule binds it here, so each is imported once
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES})
