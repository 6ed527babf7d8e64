"""Characteristic fields and elementary waves for the first-axis Riemann
problem of the regularized moment system.

Fields are labeled by the unit-variance Hermite root C with wave speed
u1 + C sqrt(theta_11). Fields from the top family are genuinely nonlinear
(except C = 0); all others are linearly degenerate. The integral curve of
a genuinely nonlinear field is closed form in every slot: after the
velocity shear that decouples the first axis (Cai, Fan & Li, Comm. Math.
Sci. 11 (2013)), the free coefficients solve a constant-coefficient affine
system, one matrix exponential. Curves of linearly degenerate fields are
integrated numerically. Shocks satisfy a generalized jump condition whose
top-order rows depend on a path. The path is linear in the packed
variables w, the one the finite-volume scheme integrates along
(assembly.path_integral), so the scheme and the jump check agree.
wave_report builds the riemann command's JSON report of a state pair.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .assembly import path_integral
from .spectral import _block_index, _permuted, _prolong_permuted, unit_spectrum
from .state import (
    AdmissibilityError,
    ConservedMoments,
    MomentState,
    _check_rows,
    _moments_and_flux,
    _pack,
    _packing,
    _unpack,
    from_conserved_batch,
    to_conserved,
)

GENUINELY_NONLINEAR = "genuinely-nonlinear"
LINEARLY_DEGENERATE = "linearly-degenerate"

_MATCH_TOL = 1e-8


@dataclass(frozen=True)
class CharField:
    C: float
    family: tuple  # (m, root index)
    nature: str

    @property
    def genuinely_nonlinear(self) -> bool:
        return self.nature == GENUINELY_NONLINEAR


@dataclass(frozen=True)
class ElementaryWave:
    kind: str  # rarefaction | contact | shock
    left: MomentState
    right: MomentState
    field: CharField
    speed: object  # scalar for contact/shock, (lambda_L, lambda_R) for fans


@dataclass(frozen=True)
class ContactVerdict:
    ok: bool
    velocity_jump: float
    pressure_jump: float
    eigenvalue_jump: float


@dataclass(frozen=True)
class ShockReport:
    speed: float
    conservative_max: float
    top_max: float
    lax_per_root: tuple  # bool per top-family root
    entropy: bool
    density_pressure_product: Optional[float]  # None where not finite
    # not in the report's shock section:
    residuals: np.ndarray  # per conserved row, index order
    mass_flux_speed: Optional[float]


@dataclass(frozen=True)
class WaveTableVerdict:
    ok: bool
    relations: dict


def wave_speed(state: MomentState, C: float) -> float:
    return float(state.u[0] + C * np.sqrt(state.theta_tensor[0, 0]))


def classify_field(state: MomentState, C: float) -> CharField:
    """Nature of the characteristic field with unit root C.

    Genuinely nonlinear exactly when C is a nonzero root of the top-family
    Hermite polynomial; every other field is linearly degenerate. The
    directional derivative of the wave speed along the eigenvector has the
    closed form (C^2 + 1) sqrt(theta_11) / (2 rho) * C * R_0, zero exactly in
    the degenerate cases. A C that matches roots of several families belongs
    to the largest of them, then to its nearest root.
    """
    tol = _MATCH_TOL * (1.0 + abs(C))

    def rank(L):
        gap = abs(L.value - C)
        return (not gap <= tol, -L.family_m, gap, L.root_index)

    hit = min(unit_spectrum(state.D, state.M), key=rank)
    if rank(hit)[0] or np.isinf(C):
        raise ValueError(f"{C} is not a unit root of any eigenvalue family")
    gn = hit.family_m == state.M + 1 and abs(C) > _MATCH_TOL
    return CharField(
        C=float(C),
        family=(hit.family_m, hit.root_index),
        nature=GENUINELY_NONLINEAR if gn else LINEARLY_DEGENERATE,
    )


def speed_gradient_dot_eigenvector(state: MomentState, field: CharField) -> float:
    """Analytic directional derivative of u1 + C sqrt(theta_11) along the
    eigenvector of the field, with the density entry normalized to rho."""
    C = field.C
    th = float(state.theta_tensor[0, 0])
    return (C**2 + 1) * np.sqrt(th) / (2 * state.rho) * C * _density_entry(
        state, field
    )


def _density_entry(state: MomentState, field: CharField) -> float:
    # with the leading-entry-1 convention, the density component is rho for
    # the top family and 0 otherwise
    return state.rho if field.family[0] == state.M + 1 else 0.0


def _field_eigenvector(
    w: np.ndarray, D: int, M: int, field: CharField, root: float | np.ndarray
) -> np.ndarray:
    """Eigenvector of the field at the packed row w (N,), or at each row of
    a stack w (k, N) from one assembly and solve; the rows of a stack share
    one wave speed (their theta_11). root is the field's unit root, or an
    array of r unit roots of its family, which gives (r,) + w.shape from the
    same assembly with one solve per root. Raises AdmissibilityError if a
    row is not an admissible state."""
    W = w.reshape(-1, w.shape[-1])
    _check_rows(W, D, M)
    rho, _, p = _unpack(W, D, M)
    m, _ = field.family
    h = M + 1 - m
    sq = np.sqrt(p[0, 0, 0] / rho[0])
    perm, B = _permuted(W, D, M)
    hat = (h,) + (0,) * max(D - 2, 0) if D > 1 else ()
    blocks = perm.blocks[_block_index(perm, hat):]
    R = np.stack([_prolong_permuted(blocks, B, float(r * sq)) for r in np.ravel(root)])
    R = perm.inverse_apply(R)
    if m == M + 1:
        R = R * rho[:, None]  # density-entry-rho normalization for fan curves
    return R.reshape(np.shape(root) + w.shape)


def _unit_root(D: int, M: int, field: CharField) -> float:
    """The unit root of the field's (family, root index) in unit_spectrum."""
    return next(L.value for L in unit_spectrum(D, M) if (L.family_m, L.root_index) == field.family)


@lru_cache(maxsize=None)
def _shear_tables(D: int, M: int):
    """The velocity shear eta_1 = xi_1, eta_j = xi_j - s_j xi_1 on the free
    coefficients of one (D, M), compiled once.

    The coefficients belong to derivatives of the Gaussian weight, and
    d/dxi_1 = d/deta_1 - sum_j s_j d/deta_j, so the coefficient of alpha
    moves to gamma = (k_1, alpha_2 + k_2, ..., alpha_D + k_D) for every
    split k of alpha_1, weighted by the multinomial alpha_1! / k! and by
    prod_j (-s_j)^(k_j). Per term: the free positions of alpha (src) and of
    gamma (dst), the weight, and the powers k_2..k_D; a1 holds alpha_1 per
    free slot.
    """
    t = _packing(D, M)
    pos = {a: i for i, a in enumerate(t.free_alphas)}
    terms = []
    for i, a in enumerate(t.free_alphas):
        for k in itertools.product(range(a[0] + 1), repeat=D - 1):
            k1 = a[0] - sum(k)
            if k1 >= 0:
                gamma = (k1,) + tuple(x + y for x, y in zip(a[1:], k))
                weight = math.factorial(a[0]) // math.prod(map(math.factorial, (k1,) + k))
                terms.append((i, pos[gamma], weight, k))
    src, dst, weight, powers = zip(*terms) if terms else ((), (), (), ())
    return (
        np.array(src, dtype=int),
        np.array(dst, dtype=int),
        np.array(weight, dtype=float),
        np.array(powers, dtype=int).reshape(len(src), D - 1),
        np.array([a[0] for a in t.free_alphas], dtype=float),
    )


def _shear_matrix(D: int, M: int, s: np.ndarray) -> np.ndarray:
    """Matrix of the shear with slopes s (D - 1,) on the free coefficients;
    the shear with slopes -s inverts it."""
    src, dst, weight, powers, a1 = _shear_tables(D, M)
    T = np.zeros((a1.size, a1.size))
    T[dst, src] = weight * np.prod((-s) ** powers, axis=1)
    return T


def _expm(Z: np.ndarray) -> np.ndarray:
    """exp(Z) by scaling and squaring (Moler & Van Loan, SIAM Rev. 45
    (2003)): Z is halved until its 1-norm is at most 1/2, where the Taylor
    series of degree 14 is exact to below 2^-53, and the result squared back."""
    squarings = max(0, math.frexp(float(np.abs(Z).sum(axis=0).max(initial=0.0)))[1] + 1)
    Z = Z / 2.0**squarings
    E = term = np.eye(len(Z))
    for j in range(1, 15):
        term = term @ Z / j
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def _fan_curves(state0: MomentState, fields, zeta: float) -> np.ndarray:
    """Packed rows (k, N) at parameter zeta on the integral curves of the
    k genuinely nonlinear fields through state0, in closed form.

    With s_j = theta_1j / theta_11 the slopes of the shear, which stay
    constant, rho e^-zeta, the conditional pressure p_jk - p_1j p_1k / p_11
    times e^-zeta and u_j - s_j u_1 are invariants, p_11 grows as
    e^(C^2 zeta) and u_1 follows from the wave speed. In the sheared frame
    (theta_1j = 0) each free coefficient scaled to
    y_alpha = f_alpha / (rho theta_11^(alpha_1 / 2)) solves y' = K y + c
    with K and c constant: c is the scaled eigenvector at f = 0, column
    alpha of K its change at y = e_alpha, less the diagonal
    1 + alpha_1 (C^2 - 1) / 2 of the scaling's own rate. The fields are
    roots of one family, so they share the n + 1 sheared rows, their one
    assembly and the shear matrices: all their eigenvectors come from one
    _field_eigenvector call, one stacked solve per root. Each curve then
    takes one exponential of its augmented matrix [[K, c], [0, 0]].
    """
    D, M = state0.D, state0.M
    t = _packing(D, M)
    rho0, p0 = state0.rho, state0.p
    th0 = p0[0, 0] / rho0
    *_, a1 = _shear_tables(D, M)
    n = a1.size
    # the sheared frame: xi = lift @ eta; its pressure has p_1j = 0 and the
    # conditional pressure in the transverse block
    s = p0[0, 1:] / p0[0, 0]
    lift = np.eye(D)
    lift[1:, 0] = s
    ps = p0.copy()
    ps[1:, 1:] -= p0[1:, :1] * s
    ps[0, 1:] = ps[1:, 0] = 0.0
    scale = rho0 * th0 ** (a1 / 2)
    W = np.tile(_pack(rho0, state0.u[None], ps[None], np.zeros((1, t.N)), D, M), (n + 1, 1))
    W[np.arange(1, n + 1), t.free] = scale
    roots = np.array([_unit_root(D, M, field) for field in fields])
    R = _field_eigenvector(W, D, M, fields[0], roots)[..., t.free] / scale
    y0 = _shear_matrix(D, M, s) @ state0.w[t.free] / scale
    unshear = _shear_matrix(D, M, -s)

    grow = np.exp(zeta)
    rho = rho0 * grow
    k = len(fields)
    u, p, fvec = np.empty((k, D)), np.empty((k, D, D)), np.zeros((k, t.N))
    for i, field in enumerate(fields):
        C = field.C
        Z = np.zeros((n + 1, n + 1))
        Z[:n, :n] = (R[i, 1:] - R[i, 0]).T - np.diag(1.0 + a1 * (C * C - 1.0) / 2)
        Z[:n, n] = R[i, 0]
        E = _expm(zeta * Z)
        y = E[:n, :n] @ y0 + E[:n, n]
        eps = C * C - 1.0
        if abs(eps) < 1e-12:
            du1 = C * np.sqrt(th0) * zeta
        else:
            du1 = 2 * C * np.sqrt(th0) * np.expm1(eps * zeta / 2) / eps
        pz = ps * grow
        pz[0, 0] = p0[0, 0] * np.exp(C * C * zeta)
        fvec[i, t.free] = unshear @ (rho * (pz[0, 0] / rho) ** (a1 / 2) * y)
        u[i] = state0.u + du1 * lift[:, 0]
        p[i] = lift @ pz @ lift.T
    return _pack(rho, u, p, fvec, D, M)


def rarefaction_curve(state0: MomentState, field: CharField, zeta: float) -> MomentState:
    """Point at parameter zeta on the integral curve of the field through
    state0, with the eigenvector's density entry normalized to rho.

    The curve of a genuinely nonlinear field is closed form in every slot
    (_fan_curves); that of a linearly degenerate field solves
    dw/dzeta = R(w) numerically. Raises ValueError for a non-finite zeta.
    """
    if not math.isfinite(zeta):
        raise ValueError(f"curve parameter must be finite, got {zeta}")
    if zeta == 0.0:
        return state0
    if abs(field.C * field.C - 1.0) < 1e-8:
        warnings.warn("unit-root magnitude 1: using the series limit")
    D, M = state0.D, state0.M
    if field.genuinely_nonlinear:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return MomentState.from_w(D, M, _fan_curves(state0, [field], zeta)[0])
    root = _unit_root(D, M, field)
    sol = solve_ivp(
        lambda z, w: _field_eigenvector(w, D, M, field, root),
        (0.0, zeta), state0.w, method="RK45", rtol=1e-11, atol=1e-12,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"integral-curve integration failed: {sol.message}")
    return MomentState.from_w(D, M, sol.y[:, -1])


def contact_check(wL: MomentState, wR: MomentState, field: CharField) -> ContactVerdict:
    """Contact conditions: equal first velocity, first pressure, and wave
    speed across the jump."""
    du = float(wR.u[0] - wL.u[0])
    dp = float(wR.p[0, 0] - wL.p[0, 0])
    dl = wave_speed(wR, field.C) - wave_speed(wL, field.C)
    scale = max(abs(wL.u[0]), abs(wR.u[0]), wL.p[0, 0], wR.p[0, 0], 1.0)
    tol = 1e-10 * scale
    return ContactVerdict(
        ok=bool(abs(du) <= tol and abs(dp) <= tol and abs(dl) <= tol),
        velocity_jump=du,
        pressure_jump=dp,
        eigenvalue_jump=float(dl),
    )


def _mass_flux_speed(F: np.ndarray, D: int, M: int) -> Optional[float]:
    """Jump speed implied by the mass row between the raw-moment rows F[0]
    and F[1]: the jump of rho u_1 = F_{e_1} over the jump of rho = F_0,
    undefined for equal densities."""
    e1 = _packing(D, M).vel[0]
    drho = F[0, 0] - F[1, 0]
    if drho == 0.0:
        return None
    return float((F[0, e1] - F[1, e1]) / drho)


def shock_speed_from_mass(FL: ConservedMoments, FR: ConservedMoments) -> Optional[float]:
    """Jump speed implied by the mass row, undefined for equal densities."""
    return _mass_flux_speed(np.stack([FL.F, FR.F]), FL.D, FL.M)


@lru_cache(maxsize=None)
def _path_rule(steps: int):
    """The steps-node Gauss-Legendre rule on [0, 1]: read-only nodes and
    weights, built once per node count."""
    nodes, weights = np.polynomial.legendre.leggauss(steps)
    rule = (0.5 * (nodes + 1.0), 0.5 * weights)
    for a in rule:
        a.setflags(write=False)
    return rule


def shock_check(
    FL: ConservedMoments, FR: ConservedMoments, S: float, path_steps: int = 32
) -> ShockReport:
    """Generalized jump-condition residuals for a candidate discontinuity.

    Rows below the top order are conservative and checked exactly; top rows
    combine the exact closed-flux difference with a path_steps-node
    Gauss-Legendre quadrature of the nonconservative terms along the path
    linear in the packed variables (assembly.path_integral).
    """
    D, M = FL.D, FL.M
    F = np.stack([FL.F, FR.F])
    W = from_conserved_batch(F, D, M)
    _, G = _moments_and_flux(W, D, M)
    dF = FR.F - FL.F
    residuals = S * dF - (G[1] - G[0])

    residuals -= path_integral(W[:1], W[1:], D, M, *_path_rule(path_steps))[0]

    top = _packing(D, M).span[M][0]  # first rank of order M
    rho, u, p = _unpack(W, D, M)
    sq = np.sqrt(p[:, 0, 0] / rho)
    top_roots = [L.value for L in unit_spectrum(D, M) if L.family_m == M + 1]
    lax = tuple(bool(u[0, 0] + c * sq[0] > S > u[1, 0] + c * sq[1]) for c in top_roots)
    with np.errstate(over="ignore"):
        prod = float((rho[0] - rho[1]) * (p[0, 0, 0] - p[1, 0, 0]))
    return ShockReport(
        speed=float(S),
        residuals=residuals,
        conservative_max=float(np.max(np.abs(residuals[:top]))),
        top_max=float(np.max(np.abs(residuals[top:]))),
        lax_per_root=lax,
        entropy=any(lax),
        density_pressure_product=prod if math.isfinite(prod) else None,
        mass_flux_speed=_mass_flux_speed(F, D, M),
    )


def wave_table_check(wave: ElementaryWave) -> WaveTableVerdict:
    """Sign relations of (u1, p11) across an elementary wave.

    Rarefactions raise the velocity left to right, with pressure rising for
    right-running fields and falling for left-running ones; shocks do the
    opposite; contacts keep both equal.
    """
    uL, uR = float(wave.left.u[0]), float(wave.right.u[0])
    pL, pR = float(wave.left.p[0, 0]), float(wave.right.p[0, 0])
    tol_u = 1e-10 * max(abs(uL), abs(uR), 1.0)
    tol_p = 1e-10 * max(pL, pR)
    C = wave.field.C
    rel = {}
    if wave.kind == "rarefaction":
        rel["velocity_rises"] = uR - uL > tol_u
        rel["pressure"] = (pR - pL > tol_p) if C > 0 else (pL - pR > tol_p)
    elif wave.kind == "shock":
        rel["velocity_drops"] = uL - uR > tol_u
        rel["pressure"] = (pL - pR > tol_p) if C > 0 else (pR - pL > tol_p)
    elif wave.kind == "contact":
        rel["velocity_equal"] = abs(uR - uL) <= tol_u
        rel["pressure_equal"] = abs(pR - pL) <= tol_p
    else:
        raise ValueError(f"unknown wave kind {wave.kind!r}")
    return WaveTableVerdict(ok=all(rel.values()), relations=rel)


# -- the riemann command's report ------------------------------------------------


def _table_entry(kind: str, left: MomentState, right: MomentState, fld: CharField, speed) -> dict:
    """Sign-table row of the elementary wave of one field."""
    return {"C": fld.C, **vars(wave_table_check(ElementaryWave(kind, left, right, fld, speed)))}


def _contact_rows(fields, left: MomentState, right: MomentState, table: list) -> list:
    """Contact probes of the linearly degenerate fields, one per distinct C;
    the table row of each one that passes goes to table."""
    rows, seen = [], set()
    for _, fld in fields:
        if fld.genuinely_nonlinear or round(fld.C, 12) in seen:
            continue
        seen.add(round(fld.C, 12))
        v = contact_check(left, right, fld)
        rows.append({"C": fld.C, **vars(v)})
        if v.ok:
            table.append(_table_entry("contact", left, right, fld, wave_speed(left, fld.C)))
    return rows


def _rarefaction_rows(fields, left: MomentState, right: MomentState, tol: float, table: list) -> list:
    """Integral-curve probes of the genuinely nonlinear fields: a fan
    endpoint must sit on the curve through left at the parameter fixed by
    the density ratio. The endpoints come from one _fan_curves batch; where
    it fails, or at zeta = 0 (left itself), each field goes through
    rarefaction_curve for its own endpoint or error. The table row of each
    probe that passes goes to table."""
    ratio = right.rho / left.rho
    if sys.float_info.min <= ratio <= sys.float_info.max:
        zeta = float(np.log(ratio))
    else:  # the ratio underflowed or overflowed
        zeta = math.log(right.rho) - math.log(left.rho)
    scale = max(1.0, float(np.max(np.abs(right.w))))
    gn = [fld for _, fld in fields if fld.genuinely_nonlinear]
    ends = None
    if zeta != 0.0:
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ends = _fan_curves(left, gn, zeta)
                _check_rows(ends, left.D, left.M)
        except (ValueError, RuntimeError):
            ends = None
    rows = []
    for i, fld in enumerate(gn):
        row = {"C": fld.C, "zeta": zeta}
        try:
            end = rarefaction_curve(left, fld, zeta).w if ends is None else ends[i]
            row["max_mismatch"] = float(np.max(np.abs(end - right.w))) / scale
            row["ok"] = bool(row["max_mismatch"] <= tol)
        except (ValueError, RuntimeError) as e:
            row["ok"] = False
            row["error"] = str(e)
        rows.append(row)
        if row["ok"]:
            speeds = (wave_speed(left, fld.C), wave_speed(right, fld.C))
            table.append(_table_entry("rarefaction", left, right, fld, speeds))
    return rows


def wave_report(left: MomentState, right: MomentState, tol: float) -> dict:
    """The wave report of the pair (left, right), as the riemann command
    writes it: every field of the left state's spectrum, the contact and
    rarefaction probes, the jump check at the mass-flux speed, and the
    sign-table row of each wave that passes its probe. Where the pair's
    conversion fails inside the jump check, the shock section holds the
    speed and the error, and the rest of the report stands."""
    fields = [(line, classify_field(left, line.value)) for line in unit_spectrum(left.D, left.M)]
    table = {"shock": [], "contact": [], "rarefaction": []}
    report = {
        "D": left.D,
        "M": left.M,
        "fields": [
            {
                "C": fld.C,
                "family_m": line.family_m,
                "root_index": line.root_index,
                "multiplicity": line.multiplicity,
                "nature": fld.nature,
                "speed_left": wave_speed(left, fld.C),
                "speed_right": wave_speed(right, fld.C),
            }
            for line, fld in fields
        ],
        "contacts": _contact_rows(fields, left, right, table["contact"]),
        "rarefactions": _rarefaction_rows(fields, left, right, tol, table["rarefaction"]),
        "mass_flux_speed": None,
        "shock": None,
        "table": table,
    }
    FL, FR = to_conserved(left), to_conserved(right)
    S = report["mass_flux_speed"] = shock_speed_from_mass(FL, FR)
    if S is None:
        return report
    try:
        rep = shock_check(FL, FR, S)
    except AdmissibilityError as e:
        report["shock"] = {"speed": S, "error": str(e)}
        return report
    shock = report["shock"] = {k: v for k, v in vars(rep).items() if k not in ("residuals", "mass_flux_speed")}
    shock["residual_ok"] = rep.conservative_max <= tol and rep.top_max <= tol
    if shock["residual_ok"]:
        top = [fld for line, fld in fields if line.family_m == left.M + 1]
        for fld, passed in zip(top, rep.lax_per_root):
            if passed:
                table["shock"].append(_table_entry("shock", left, right, fld, S))
    return report
