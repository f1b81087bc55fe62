"""Exact-arithmetic toolkit for Bell-polynomial sequence families, their
named presets, linear-recurrence decomposition, and multifold convolution
identities, all verifiable against brute-force oracles."""

from . import bellpoly, conv, ring, seq
from .bellpoly import *
from .conv import *
from .ring import *
from .seq import *

__all__ = ring.__all__ + bellpoly.__all__ + seq.__all__ + conv.__all__

__version__ = "0.1.0"
