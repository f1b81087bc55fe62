"""Exact-arithmetic toolkit for Bell-polynomial sequence families, their
named presets, linear-recurrence decomposition, and multifold convolution
identities, all verifiable against brute-force oracles."""

from . import bellpoly, ring, seq
from .bellpoly import *
from .ring import *
from .seq import *

# conv.__all__, listed here so that conv is imported only on first use of one
# of its names (PEP 562): a request that never convolves does not load it
_CONV_NAMES = ("ConvolutionReport", "LemmaGuardError", "SPECIALIZED_FAMILIES", "compositions",
               "convolution_oracle", "convolution_closed", "convolution_closed_specialized",
               "shifted_convolution_closed", "lemma_identity_check", "check_row", "verify_theorem")

__all__ = ring.__all__ + bellpoly.__all__ + seq.__all__ + list(_CONV_NAMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name == "conv" or name in _CONV_NAMES:
        from importlib import import_module

        conv = import_module(".conv", __name__)
        return conv if name == "conv" else getattr(conv, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
