"""Anisotropic Hermite moment systems with hyperbolic regularization.

The modules follow the pipeline: multi-index bookkeeping (index), Hermite
machinery (hermite), moment states, their JSON form and collision targets
(state), transport matrix assembly and regularization (assembly),
closed-form spectra and eigenvectors (spectral), wave analysis (riemann),
the 1D finite-volume solver with its kinetic reference (solver), the
readers of files and arguments (inputs) and the command line (cli). Each
module imports only those before it that it needs, and this package
imports none of them.
"""

__version__ = "0.1.0"
