"""Generalized Hugoniot locus of the D=1 moment system on the linear path.

Oracle for the jump condition of a shock at M >= 3, where the top row of
the system is nonconservative and no closed form is known. With the left
density and the right state fixed, Newton's method with a central-difference
Jacobian drives the residuals of riemann.shock_check to zero in the unknowns
(u, p, f_3, ..., f_M, S): the left velocity, pressure and free coefficients
and the shock speed. The system is square, M + 1 residuals in M + 1
unknowns. At M=2 the residuals are the Rankine-Hugoniot conditions of the
monatomic-gas Euler equations, so the solution is the exact Euler shock;
the stationary contact u = 0, p = p_right, S = 0 solves them as well.
"""

from __future__ import annotations

import numpy as np

from hypermoment.riemann import shock_check
from hypermoment.state import MomentState, to_conserved


def left_state(x, rho_left: float, M: int) -> MomentState:
    """The D=1 left state of the unknowns x = (u, p, f_3, ..., f_M, S)."""
    u, p, *f = x[:-1]
    return MomentState(
        D=1, M=M, rho=rho_left, u=[u], p=[[p]], f={(k,): v for k, v in enumerate(f, start=3)}
    )


def residuals(x, rho_left: float, right: MomentState) -> np.ndarray:
    """shock_check residuals, one per conserved row, of the pair of x."""
    left = left_state(x, rho_left, right.M)
    return shock_check(to_conserved(left), to_conserved(right), float(x[-1])).residuals


def hugoniot_pair(rho_left: float, right: MomentState, guess, h: float = 1e-7, max_iter: int = 50):
    """(left, S) on the locus through right at left density rho_left, by
    Newton from guess = (u, p, f_3, ..., f_M, S). Stops when a step moves no
    unknown by more than 1e-14 max(1, max |x|)."""
    x = np.array(guess, dtype=float)
    for _ in range(max_iter):
        r = residuals(x, rho_left, right)
        J = np.empty((r.size, x.size))
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h * max(1.0, abs(x[j]))
            J[:, j] = (residuals(x + e, rho_left, right) - residuals(x - e, rho_left, right)) / (2 * e[j])
        dx = np.linalg.solve(J, r)
        x -= dx
        if np.max(np.abs(dx)) <= 1e-14 * max(1.0, np.max(np.abs(x))):
            return left_state(x, rho_left, right.M), float(x[-1])
    raise RuntimeError(f"Newton did not converge in {max_iter} steps from {guess}")
