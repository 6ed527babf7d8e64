"""First-order finite-volume solver for the regularized moment system in one
space dimension, with BGK/ES-BGK relaxation and a discrete-velocity kinetic
reference solution.

Transport treats rows by conservation type. Moments of order below M carry
exact linear fluxes and are updated in flux-difference form, so their cell
totals telescope to round-off. Order-M rows are updated in fluctuation form:
closure flux difference plus the path integral of the regularization
correction (assembly.path_integral, one midpoint node in packed w), with
Rusanov dissipation on the conserved jump. The relaxation source is
sub-stepped explicitly after transport.

``simulate`` and ``kinetic_reference`` share one time march, ``_march``, and
return the same ``Snapshots`` of the grid observables; ``SimulationResult``
adds the final packed rows of the moment run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import assemble_batch, path_integral, source_batch
from .hermite import AnisotropicBasis, ghe_table, weight
from .index import IndexSet
from .spectral import unit_spectrum
from .state import (
    AdmissibilityError,
    CollisionModel,
    MomentState,
    _check_rows,
    _from_conserved,
    _moments_and_flux,
    _packing,
    _unpack,
    heat_flux_batch,
)


class CFLViolation(ValueError):
    """Requested time step exceeds the stable transport bound."""


class AdmissibilityLoss(RuntimeError):
    """An updated cell left the admissible set. Carries the cell index."""

    def __init__(self, message, cell: int):
        super().__init__(message)
        self.cell = cell


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh on [x_min, x_max]. Its boundary kind sets
    the one ghost cell per side that the transport reads, through pad."""

    nx: int
    x_min: float = 0.0
    x_max: float = 1.0
    boundary: str = "copy"

    def __post_init__(self):
        if self.nx < 4:
            raise ValueError(f"need at least 4 cells, got {self.nx}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"domain bounds must be finite, got [{self.x_min}, {self.x_max}]")
        if not self.x_max > self.x_min:
            raise ValueError("domain must have positive length")
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(
                f"cell width {self.dx} of [{self.x_min}, {self.x_max}] over {self.nx} cells"
                " must be finite and positive"
            )
        if self.boundary not in ("copy", "periodic"):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @cached_property
    def centers(self) -> np.ndarray:
        x = self.x_min + (np.arange(self.nx) + 0.5) * self.dx
        x.setflags(write=False)
        return x

    @property
    def pad(self) -> np.ndarray:
        """Cell of each padded row: row g is cell g - 1 for g = 1..nx, and
        the ghost rows 0 and nx + 1 copy the edge cells ("copy") or wrap to
        the far edge ("periodic")."""
        pad = np.arange(-1, self.nx + 1)
        pad[0], pad[-1] = (self.nx - 1, 0) if self.boundary == "periodic" else (0, self.nx - 1)
        return pad


@dataclass(frozen=True)
class SimulationConfig:
    D: int
    M: int
    grid: Grid1D
    t_end: float
    cfl: float = 0.8
    collision: CollisionModel = CollisionModel(nu=0.0)
    n_snapshots: int = 2

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"need order M >= 2, got {self.M}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"CFL number must be in (0, 1], got {self.cfl}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if self.n_snapshots < 2:
            raise ValueError("need at least the initial and final snapshots")


def _signal_speeds(W: np.ndarray, D: int, M: int) -> np.ndarray:
    """|u_1| + C_max sqrt(theta_11) of every packed row; C_max, the top root
    of family M + 1, is the unit spectrum's last line."""
    rho, u, p = _unpack(W, D, M)
    return np.abs(u[:, 0]) + unit_spectrum(D, M)[-1].value * np.sqrt(p[:, 0, 0] / rho)


def max_signal_speed(state: MomentState) -> float:
    """|u_1| plus the largest characteristic offset C_max sqrt(theta_11)."""
    return float(_signal_speeds(state.w[None], state.D, state.M)[0])


# one-point rule of the interface path integral: the midpoint in packed w
_MIDPOINT = ([0.5], [1.0])


def interface_state(left: MomentState, right: MomentState) -> MomentState:
    """State at which interface matrices are evaluated: the node of the
    one-point interface rule, the arithmetic mean of the packed variables."""
    return MomentState.from_w(left.D, left.M, 0.5 * (left.w + right.w))


def grad_flux(state: MomentState) -> np.ndarray:
    """Flux vector of the closed system at one state."""
    return _moments_and_flux(state.w[None], state.D, state.M)[1][0]


def _spectral_bound_check(packed):
    """Closed-form speed bound must dominate the numerical spectrum.

    packed is a (D, M, rows) tuple with rows a stack (k, N) of packed
    states, each the fastest cell of a step, already checked admissible,
    in step order. The numerical spectrum of a row is that of
    u_1 I + A^(1) + its regularization correction; all k matrices are
    assembled in one pass and solved in one stacked eigvals call. The bound
    is the row's |u_1| + C_max sqrt(theta_11). Raises RuntimeError for the
    first row whose bound falls short of its largest eigenvalue modulus.
    """
    D, M, rows = packed
    u1 = rows[:, _packing(D, M).vel[0]]
    A = assemble_batch(rows, D, M, 1, regularized=True)
    A = A + u1[:, None, None] * np.eye(A.shape[1])
    numeric = np.max(np.abs(np.linalg.eigvals(A)), axis=1)
    bound = _signal_speeds(rows, D, M)
    bad = np.flatnonzero(numeric > bound * (1.0 + 1e-8) + 1e-12)
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"speed bound {float(bound[i])} underestimates the numerical spectrum"
            f" {float(numeric[i])}"
        )


def _relax(W: np.ndarray, dt: float, D: int, M: int, model: CollisionModel) -> np.ndarray:
    """Explicit relaxation sub-steps with dt_sub <= 1/(2 nu), all cells at once.

    W's rows are admissible. A sub-step is checked only on the rows where
    it moved a rank below order 3 (rho, u or p) or left an entry that is
    not finite: every other row keeps the density and pressure tensor that
    passed already. Raises AdmissibilityError naming the lowest cell that
    leaves the admissible set in any sub-step.
    """
    n_sub = max(1, math.ceil(2.0 * model.nu * dt))
    h = dt / n_sub
    low = _packing(D, M).span[2][1]
    start = W
    try:
        for _ in range(n_sub):
            Wn = W + h * source_batch(W, D, M, model)
            moved = (Wn[:, :low] != W[:, :low]).any(axis=1) | ~np.isfinite(Wn).all(axis=1)
            W, rows = Wn, np.flatnonzero(moved)
            if rows.size:
                try:
                    _check_rows(W[rows], D, M)
                except AdmissibilityError as e:
                    e.cell = int(rows[e.cell])
                    raise
    except AdmissibilityError as e:
        if e.cell and n_sub > 1:
            # a lower cell may still fail in a later sub-step
            _relax(start[: e.cell], dt, D, M, model)
        raise
    return W


def _packed_cells(cells, D: int, M: int, nx: int) -> np.ndarray:
    """The (nx, N) packed rows of cells. A packed array is checked where it
    enters: AdmissibilityLoss names its lowest row that is not finite or has
    rho <= 0 or a pressure tensor that is not positive definite."""
    if len(cells) != nx:
        raise ValueError(f"expected {nx} cells, got {len(cells)}")
    if isinstance(cells, np.ndarray):
        N = IndexSet(D, M).N
        if cells.shape != (nx, N):
            raise ValueError(f"packed cells must have shape {(nx, N)}, got {cells.shape}")
        try:
            _check_rows(cells, D, M)
        except AdmissibilityError as e:
            raise AdmissibilityLoss(f"cell {e.cell} is not admissible: {e}", cell=e.cell) from e
        return cells
    for c in cells:
        if (c.D, c.M) != (D, M):
            raise ValueError("cell dimensions do not match the configuration")
    return np.array([c.w for c in cells])


def step(cells, dt: float, config: SimulationConfig):
    """One transport-plus-relaxation step over the whole grid.

    cells is either an (nx, N) array of packed states, which is advanced
    and returned as such, or a sequence of MomentState, returned as a list.
    Non-finite or inadmissible input is rejected where it enters, as an
    AdmissibilityLoss naming the lowest bad cell. dt must respect the CFL
    bound of the closed-form signal speeds, and _spectral_bound_check checks
    that bound against the numerical spectrum of the fastest cell's packed
    row, before any transport. A cell that leaves the admissible set in
    transport or relaxation raises AdmissibilityLoss.
    """
    D, M = config.D, config.M
    W = _packed_cells(cells, D, M, config.grid.nx)
    speeds = _signal_speeds(W, D, M)
    fastest = int(np.argmax(speeds))
    bound = config.cfl * config.grid.dx / float(speeds[fastest])
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt} exceeds the stable bound {bound}")
    _spectral_bound_check((D, M, W[fastest : fastest + 1]))
    W = _advance(W, dt, config, speeds)[0]
    if isinstance(cells, np.ndarray):
        return W
    return [MomentState.from_w(D, M, w) for w in W]


def _advance(W: np.ndarray, dt: float, config: SimulationConfig, speeds=None, table=None):
    """Transport and relaxation of ``step`` on packed rows W (nx, N) already
    checked admissible, without the entry check, the CFL check or the speed
    guard: the caller checks dt and the fastest row's bound. Every row it
    returns has passed the conversion from conserved moments (finite,
    rho > 0, positive definite implied Theta) and, when nu > 0 and
    relaxation moved it, the pressure-tensor check of ``_relax``, so
    ``simulate`` feeds it back as is.

    Returns the new rows and their order-(M+1) Gaussian table, which the
    conversion builds and the next step's ``_moments_and_flux`` reads
    through ``table``. The table is None where relaxation moved a rank of
    order <= 2 (rho, u or p), so that the next step recomputes it. speeds
    are the rows' ``_signal_speeds``, when the caller has them already.
    """
    grid = config.grid
    D, M = config.D, config.M
    dx = grid.dx

    if speeds is None:
        speeds = _signal_speeds(W, D, M)

    F, G = _moments_and_flux(W, D, M, table)

    # one ghost row per side, by the grid's boundary kind
    pad = grid.pad
    Fp, Gp, Wp, sp = (a.take(pad, axis=0) for a in (F, G, W, speeds))

    a_if = np.maximum(sp[:-1], sp[1:])  # (nx+1,) interface dissipation speeds
    dF = Fp[1:] - Fp[:-1]
    dG = Gp[1:] - Gp[:-1]

    # nonconservative top-row term at each interface
    total = dG
    if M >= 3:
        total = dG + path_integral(Wp[:-1], Wp[1:], D, M, *_MIDPOINT)

    diss = a_if[:, None] * dF
    H = 0.5 * (Gp[:-1] + Gp[1:] - diss)
    fluct_minus = 0.5 * (total - diss)  # enters the cell left of the interface
    fluct_plus = 0.5 * (total + diss)  # enters the cell right of the interface

    top = _packing(D, M).span[M][0]  # first rank of order M
    Fn = F.copy()
    Fn[:, :top] -= dt / dx * (H[1:][:, :top] - H[:-1][:, :top])
    Fn[:, top:] -= dt / dx * (fluct_plus[:-1][:, top:] + fluct_minus[1:][:, top:])

    try:
        W, table = _from_conserved(Fn, D, M)
    except AdmissibilityError as e:
        raise AdmissibilityLoss(
            f"cell {e.cell} left the admissible set: {e}", cell=e.cell
        ) from e
    if config.collision.nu > 0.0:
        try:
            Wr = _relax(W, dt, D, M, config.collision)
        except AdmissibilityError as e:
            raise AdmissibilityLoss(
                f"cell {e.cell} left the admissible set during relaxation: {e}", cell=e.cell
            ) from e
        low = _packing(D, M).span[2][1]
        if not np.array_equal(Wr[:, :low], W[:, :low]):
            table = None
        W = Wr
    return W, table


# -- driving and output --------------------------------------------------------


@dataclass(frozen=True)
class Snapshots:
    """Snapshot series on the grid: times (n_t,), x (nx,), and rho, u1, p11,
    theta, q1 (n_t, nx)."""

    times: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    u1: np.ndarray
    p11: np.ndarray
    theta: np.ndarray
    q1: np.ndarray

    def rows(self) -> list:
        """CSV rows [t, x, rho, u1, p11, theta, q1], time-major."""
        n_t, nx = self.rho.shape
        obs = (self.rho, self.u1, self.p11, self.theta, self.q1)
        cols = [np.repeat(self.times, nx), np.tile(self.x, n_t)] + [a.ravel() for a in obs]
        return np.column_stack(cols).tolist()


@dataclass(frozen=True)
class SimulationResult(Snapshots):
    """Snapshots of the moment solver, and the packed rows final_w (nx, N)
    of the last step."""

    config: SimulationConfig
    final_w: np.ndarray

    @cached_property
    def final_states(self) -> tuple:
        """The final cells as MomentState, built on first access."""
        D, M = self.config.D, self.config.M
        return tuple(MomentState.from_w(D, M, w) for w in self.final_w)


def _march(config: SimulationConfig, state, advance, observe):
    """The time march of both runs. advance(state, dt_cap) takes one step of
    at most dt_cap and returns (state, dt); steps are taken up to each of the
    n_snapshots evenly spaced times in [0, t_end], where observe(state)
    gives the tuple of observables. Returns the times, each observable
    stacked over them, and the final state. A step that does not advance t
    (dt <= 0, NaN, or lost to rounding) raises RuntimeError."""
    times = np.linspace(0.0, config.t_end, config.n_snapshots)
    snaps = [observe(state)]
    t = 0.0
    for target in times[1:]:
        while t < target - 1e-12 * config.t_end:
            state, dt = advance(state, target - t)
            if not t + dt > t:
                raise RuntimeError(f"time step dt = {dt!r} does not advance t = {t!r}")
            t += dt
        snaps.append(observe(state))
    return times, [np.stack(arrs) for arrs in zip(*snaps)], state


def _snapshot(W: np.ndarray, D: int, M: int):
    rho, u, p = _unpack(W, D, M)
    th = np.trace(p, axis1=1, axis2=2) / (D * rho)
    q1 = heat_flux_batch(W, D, M)[:, 0] if M >= 3 else np.zeros(len(W))
    return rho, u[:, 0], p[:, 0, 0], th, q1


def riemann_cells(config: SimulationConfig, left: MomentState, right: MomentState) -> list:
    """Initial cells: left state below the domain midpoint, right above."""
    mid = 0.5 * (config.grid.x_min + config.grid.x_max)
    return [left if xc < mid else right for xc in config.grid.centers]


# rows the speed guard of ``simulate`` collects before one stacked check
_GUARD_BATCH = 64


def simulate(config: SimulationConfig, left: MomentState, right: MomentState) -> SimulationResult:
    """Run the Riemann problem left|right and record snapshots.

    Every step's fastest row passes _spectral_bound_check, in stacks of up
    to _GUARD_BATCH rows: when that many are pending, at the end of the
    run, and before any exception of the march propagates, so the first
    failing step in step order is still the one reported.
    """
    for st, name in ((left, "left"), (right, "right")):
        if (st.D, st.M) != (config.D, config.M):
            raise ValueError(f"{name} state dimensions do not match the configuration")
    D, M = config.D, config.M
    pending = []

    def check_pending():
        if pending:
            rows = np.array(pending)
            pending.clear()
            _spectral_bound_check((D, M, rows))

    def advance(carry, cap):
        W, table = carry
        speeds = _signal_speeds(W, D, M)
        fastest = int(np.argmax(speeds))
        dt = min(config.cfl * config.grid.dx / float(speeds[fastest]), cap)
        # a copy: a view would keep the step's whole (nx, N) array alive
        pending.append(W[fastest].copy())
        if len(pending) == _GUARD_BATCH:
            check_pending()
        return _advance(W, dt, config, speeds, table), dt

    W = np.array([c.w for c in riemann_cells(config, left, right)])
    try:
        times, obs, (W, _) = _march(config, (W, None), advance, lambda c: _snapshot(c[0], D, M))
    except Exception:
        # an earlier step's failing guard comes first
        check_pending()
        raise
    check_pending()
    return SimulationResult(times, config.grid.centers, *obs, config=config, final_w=W)


# -- discrete-velocity kinetic reference ----------------------------------------


@dataclass
class KineticOracle:
    """Uniform velocity grid and the cell-by-velocity distribution array."""

    v: np.ndarray
    dv: float
    f: np.ndarray

    def moments(self):
        """(rho, u, p, q) of every cell by midpoint quadrature."""
        return _kinetic_moments(self.f, self.v, self.dv)


def _kinetic_moments(f: np.ndarray, v: np.ndarray, dv: float):
    """(rho, u, p, q) of every row of the cell-by-velocity array f by
    midpoint quadrature."""
    rho = f.sum(axis=1) * dv
    u = (f @ v) * dv / rho
    c = v[None, :] - u[:, None]
    p = (f * c**2).sum(axis=1) * dv
    q = 0.5 * (f * c**3).sum(axis=1) * dv
    return rho, u, p, q


def _expansion_values(state: MomentState, v: np.ndarray) -> np.ndarray:
    """Pointwise distribution reconstructed from the moment state."""
    th = state.p[0, 0] / state.rho
    basis = AnisotropicBasis(np.array([[th]]))
    xi = (v - float(state.u[0]))[:, None]
    table = ghe_table(basis, xi, state.M)
    acc = state.rho * table[(0,)]
    for a, val in state.f.items():
        acc = acc + val * table[a]
    return weight(basis, xi) * acc


def build_oracle(
    grid: Grid1D, left: MomentState, right: MomentState, n_v: int = 64, K: float = 6.0
) -> KineticOracle:
    """Discretize the Riemann data in velocity space.

    Bounds span u +- K sqrt(theta) over the two states (symmetric K sqrt of
    the largest theta when both velocities vanish); midpoint grid, so the
    discrete moments hold to the Gaussian tail truncation level.
    """
    for st in (left, right):
        if st.D != 1:
            raise ValueError("the kinetic reference is one-dimensional")
    if n_v < 48:
        raise ValueError(f"need at least 48 velocity points, got {n_v}")
    if not (math.isfinite(K) and K >= 6.0):
        raise ValueError(f"need a finite velocity span of at least 6 sigma, got K={K}")
    spans = [(float(st.u[0]), math.sqrt(st.p[0, 0] / st.rho)) for st in (left, right)]
    vmin = min(u - K * s for u, s in spans)
    vmax = max(u + K * s for u, s in spans)
    dv = (vmax - vmin) / n_v
    v = vmin + (np.arange(n_v) + 0.5) * dv

    mid = 0.5 * (grid.x_min + grid.x_max)
    row_l = _expansion_values(left, v)
    row_r = _expansion_values(right, v)
    f = np.where((grid.centers < mid)[:, None], row_l[None, :], row_r[None, :])
    return KineticOracle(v=v, dv=dv, f=f.copy())


def _maxwellian(rho, u, theta, v):
    c = v[None, :] - u[:, None]
    norm = rho / np.sqrt(2.0 * np.pi * theta)
    return norm[:, None] * np.exp(-0.5 * c**2 / theta[:, None])


def kinetic_reference(
    config: SimulationConfig,
    left: MomentState,
    right: MomentState,
    n_v: int = 64,
    K: float = 6.0,
) -> Snapshots:
    """Upwind discrete-velocity run of the same Riemann problem.

    First-order transport per velocity point plus pointwise relaxation
    toward the Maxwellian of the local discrete moments (the relaxation
    sub-flow is integrated exactly over each step, its target being
    stationary). Warns when mass reaches the velocity boundary.
    """
    if config.D != 1:
        raise ValueError("the kinetic reference is one-dimensional")
    grid = config.grid
    oracle = build_oracle(grid, left, right, n_v=n_v, K=K)
    v, dv = oracle.v, oracle.dv
    dx = grid.dx
    nu = config.collision.nu
    vp = np.maximum(v, 0.0)
    vm = np.minimum(v, 0.0)
    pad = grid.pad
    dt_max = config.cfl * dx / float(np.max(np.abs(v)))

    def advance(carry, cap):
        f, clip_peak = carry
        dt = min(dt_max, cap)
        fp = f[pad]
        flux = vp * fp[:-1] + vm * fp[1:]
        f = f - dt / dx * (flux[1:] - flux[:-1])
        if nu > 0.0:
            rho, u, p, _ = _kinetic_moments(f, v, dv)
            g = _maxwellian(rho, u, p / rho, v)
            f = g + (f - g) * math.exp(-nu * dt)
        edge = np.abs(f[:, 0]).sum() + np.abs(f[:, -1]).sum()
        return (f, max(clip_peak, float(edge / np.abs(f).sum()))), dt

    def observe(carry):
        rho, u, p, q = _kinetic_moments(carry[0], v, dv)
        return rho, u, p, p / rho, q

    times, obs, (_, clip_peak) = _march(config, (oracle.f, 0.0), advance, observe)
    if clip_peak > 1e-6:
        warnings.warn(
            f"velocity domain clipping: boundary mass fraction {clip_peak:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Snapshots(times, grid.centers, *obs)
