"""Time-frequency continuous-variable simulator for single-photon quantum optics.

Subpackages cover Hermite-Gauss spectral modes (:mod:`tfsim.hg`),
time-frequency Gaussian states and symplectic gates (:mod:`tfsim.gaussian`),
two-photon joint spectral amplitudes and the frequency beam splitter
(:mod:`tfsim.twophoton`), two-photon phase metrology (:mod:`tfsim.metrology`),
hafnian kernels (:mod:`tfsim.hafnian`), frequency-based Gaussian boson
sampling (:mod:`tfsim.fgbs`), circuit descriptions (:mod:`tfsim.circuit`),
and the command-line front end (:mod:`tfsim.cli`).

The submodules load on first attribute access (PEP 562), so ``import tfsim.cli``
does not import NumPy and each subcommand compiles only the modules it runs.
"""

import importlib

from . import exceptions
from .exceptions import (
    CostGuardError,
    InsufficientMassError,
    SchemaError,
    TfsimError,
    UnknownGateError,
)

__all__ = [
    "exceptions",
    "hg",
    "hafnian",
    "gaussian",
    "twophoton",
    "metrology",
    "fgbs",
    "circuit",
    "TfsimError",
    "SchemaError",
    "UnknownGateError",
    "CostGuardError",
    "InsufficientMassError",
    "__version__",
]

__version__ = "0.1.0"

_LAZY = frozenset(["hg", "hafnian", "gaussian", "twophoton", "metrology", "fgbs", "circuit"])


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
