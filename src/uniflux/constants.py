"""Physical constants (SI; 2019 exact definitions)."""

import math

PLANCK = 6.62607015e-34  # J s
HBAR = PLANCK / (2.0 * math.pi)  # J s
PHI0 = 2.067833848e-15  # magnetic flux quantum, Wb
