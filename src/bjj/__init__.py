"""Toolkit for population oscillations in a driven, damped bosonic junction.

Two condensate modes coupled by tunneling reduce to two degrees of freedom:
the fractional population imbalance z and the relative phase phi.  This
package integrates that reduced system under a harmonically modulated tilt
with optional damping, analyzes the resulting dynamics (stroboscopic
sections, spectra, attractor classification, Lyapunov estimates), and
evaluates separatrix stability integrals that predict where driven chaos
sets in.
"""

from . import analysis, config, errors, integrate, model, separatrix, twomode
from .analysis import *
from .config import *
from .errors import *
from .integrate import *
from .model import *
from .separatrix import *
from .twomode import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, config, errors, integrate, model, separatrix, twomode)
    for name in module.__all__
] + ["__version__"]
