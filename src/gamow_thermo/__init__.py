"""Resonance poles, survival dynamics and complex entropy of unstable states."""

from . import decay, evolution, friedrichs, numerics, thermo
from .numerics import *
from .friedrichs import *
from .decay import *
from .thermo import *
from .evolution import *

__all__ = (numerics.__all__ + friedrichs.__all__ + decay.__all__
           + thermo.__all__ + evolution.__all__)

__version__ = "0.1.0"
