"""Exact relaxation of a spatially uniform state under BGK and ES-BGK.

Independent oracle for the collision step of the moment solver. In a
uniform state the kinetic equation is df/dt = nu (f_G - f), so the raw
moments obey dF/dt = nu (F_G(t) - F) exactly, at every order the moment
system keeps. f_G is the Gaussian with the state's rho and u and the target
covariance Lambda = b Theta + (1 - b) theta I, with b = 1 - 1/Pr (b = 0 for
BGK). The pressure of the target is rho Lambda = b p + (1 - b) pbar with
pbar = (tr p / D) I, and the trace of p is conserved, so

    p(t) = pbar + (p0 - pbar) e^(-nu t / Pr)

in closed form, and the raw moments are one integral,

    F(T) = e^(-nu T) F0 + nu int_0^T e^(-nu (T - s)) F_G(s) ds,

here by Gauss-Legendre quadrature. The raw moments of a packed row come
from reference_moments.reference_to_conserved, and Lambda is written out
below, so the oracle shares only the packed layout with the code under
test.
"""

import numpy as np

from reference_moments import reference_to_conserved

from hypermoment.state import _pack, _unpack


def exact_relaxation(W0, T, D, M, nu, Pr=1.0, nodes=200):
    """Raw moments F(T) (n, N) of the uniform states W0 (n, N) after
    relaxing for a time T at collision frequency nu and Prandtl number Pr."""
    n, N = W0.shape
    rho, u, p0 = _unpack(W0, D, M)
    b = 1.0 - 1.0 / Pr
    pbar = (np.trace(p0, axis1=1, axis2=2) / D)[:, None, None] * np.eye(D)
    x, w = np.polynomial.legendre.leggauss(nodes)
    s, w = 0.5 * T * (x + 1.0), 0.5 * T * w
    p = pbar + (p0 - pbar) * np.exp(-nu * s / Pr)[:, None, None, None]  # (nodes, n, D, D)
    Theta = p / rho[:, None, None]
    theta = np.trace(Theta, axis1=-2, axis2=-1) / D
    Lam = b * Theta + (1.0 - b) * theta[..., None, None] * np.eye(D)
    G = _pack(
        np.tile(rho, nodes), np.tile(u, (nodes, 1)),
        (rho[:, None, None] * Lam).reshape(-1, D, D), np.zeros((nodes * n, N)), D, M,
    )
    FG = reference_to_conserved(G, D, M).reshape(nodes, n, N)
    kernel = nu * w * np.exp(-nu * (T - s))
    return np.exp(-nu * T) * reference_to_conserved(W0, D, M) + np.einsum("k,kan->an", kernel, FG)
