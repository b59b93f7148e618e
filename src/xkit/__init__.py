"""xkit: excursion-set geometry of smooth random fields on rectangles.

The package simulates stationary Gaussian (and Gaussian-derived) random
fields on regular lattices, measures the topology of their excursion sets
(Euler characteristics, surface/volume measures), evaluates the matching
closed-form expected-topology formulas, and uses the two together for
tail-probability approximation, threshold selection, and distributional
model identification.
"""

from xkit.geometry import *
from xkit.fields import *
from xkit.topology import *
from xkit.expectations import *
from xkit import expectations, fields, geometry, topology

__version__ = "0.1.0"

__all__ = [*geometry.__all__, *fields.__all__, *topology.__all__, *expectations.__all__, "__version__"]
