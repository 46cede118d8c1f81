"""Numerical toolkit for T-periodic solutions of planar second-order
equations whose nonlinearity grows superlinearly on one side or carries a
repulsive singularity, sitting against a band of the asymmetric spectrum.

Layout: `expr` parses nonlinearity expressions, `model` packages them (or
registered families) with their metadata, `spectrum` handles the resonance
curves, `integrate` drives the planar flow with events and polar lifting,
`conditions` validates the asymptotic hypotheses and sign conditions,
`apriori` builds the measurable phase-plane machinery (envelopes, maps,
radii), `solver` finds and certifies periodic solutions, `radial` reduces
rotating plane-valued systems, and `cli` wires it all to a config file.
"""

from .integrate import HomotopyField, PhaseState, Trajectory, rotation_count
from .model import (FULL_LINE, SINGULAR, NonlinearityModel, from_expression,
                    from_family, from_piecewise)
from .solver import PeriodicCertificate, homotopy_solve
from .spectrum import SpectrumPoint, curve_residual

__version__ = "0.1.0"

__all__ = [
    "HomotopyField", "PhaseState", "Trajectory",
    "rotation_count", "FULL_LINE", "SINGULAR",
    "NonlinearityModel", "from_expression", "from_family", "from_piecewise",
    "PeriodicCertificate", "homotopy_solve",
    "SpectrumPoint", "curve_residual",
]
