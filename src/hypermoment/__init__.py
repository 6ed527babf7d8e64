"""Anisotropic Hermite moment systems with hyperbolic regularization.

Subpackages follow the pipeline: multi-index bookkeeping (index), Hermite
machinery (hermite), moment states and collision targets (state), transport
matrix assembly and regularization (assembly), closed-form spectra and
eigenvectors (spectral), wave analysis (riemann), and the 1D finite-volume
solver with its kinetic reference (solver). The command line (cli) is not
imported here, so ``python -m hypermoment.cli`` runs it as ``__main__``
without a second copy; ``from hypermoment import cli`` still loads it.
"""

from . import index, hermite, state, assembly, spectral, riemann, solver

__all__ = [
    "index",
    "hermite",
    "state",
    "assembly",
    "spectral",
    "riemann",
    "solver",
]
__version__ = "0.1.0"
