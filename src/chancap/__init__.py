"""Capacity analysis of two simple quantum communication channels.

A particle-placement channel (free-particle Gaussian wavepacket whose
dispersion acts as additive noise) and a two-level tunneling channel
(Rabi-type population oscillations inducing a time-dependent binary
channel), with closed-form dynamics, capacity solvers, and independent
brute-force numerical oracles for every closed form. The public names are
those of each module's ``__all__``.
"""

__version__ = "0.1.0"

from . import gaussian, infotheory, oracle, twolevel, units
from .units import *
from .gaussian import *
from .twolevel import *
from .infotheory import *
from .oracle import *

__all__ = ["__version__", *units.__all__, *gaussian.__all__, *twolevel.__all__]
__all__ += [*infotheory.__all__, *oracle.__all__]
