"""Command-line interface.

Subcommands:

    assemble       coefficient matrix of a state as CSV, or a structural
                   diagnostics report as JSON
    spectrum       characteristic speeds (closed form, or numerical for the
                   uncorrected system) as CSV
    hyperbolicity  sweep the pure first-axis cubic coefficient and report the
                   largest imaginary eigenvalue part at each value
    riemann        JSON wave report for a pair of states: field classification,
                   jump-condition residuals, contact and rarefaction probes,
                   sign-table verdicts
    simulate       run the finite-volume solver (or, with --oracle, the
                   kinetic reference) from a JSON config; snapshots as CSV
    conjecture     scan Hermite root systems for near-coincident nonzero zeros
                   across orders
    hermite-check  numerical verification of the basis-function identities

Data goes to --out (default stdout); diagnostics go to stderr. Exit status is
0 on success, 1 on a validation error (bad arguments, malformed input, an
inadmissible input state), and 2 on a numerical failure (admissibility loss
during a run, a failed runtime guard or LAPACK call, a residual or identity
check out of tolerance, scan violations).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .assembly import CoefficientMatrix, assemble_batch, directional, structural_report
from .hermite import (
    AnisotropicBasis,
    differential_deviation,
    gram_deviations,
    parity_deviation,
    root_gap_scan,
)
from .index import IndexSet
from .riemann import (
    ElementaryWave,
    _fan_curves,
    classify_field,
    contact_check,
    rarefaction_curve,
    shock_check,
    shock_speed_from_mass,
    wave_speed,
    wave_table_check,
)
from .solver import (
    CFLViolation,
    Grid1D,
    SimulationConfig,
    kinetic_reference,
    simulate,
)
from .spectral import rotation_spectrum_check, spectrum_regularized, unit_spectrum
from .state import (
    CollisionModel,
    MomentState,
    _check_rows,
    _integer,
    _number,
    equilibrium,
    state_from_doc,
    to_conserved,
)

CSV_EOL = "\n"


@contextmanager
def _open_out(path):
    """Writable text handle; '-' or None means stdout (left open)."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        fh = open(path, "w", newline="")
        try:
            yield fh
        finally:
            fh.close()


def _write_csv(out, header, rows) -> None:
    """CSV of a header and rows to --out."""
    with _open_out(out) as fh:
        w = csv.writer(fh, lineterminator=CSV_EOL)
        w.writerow(header)
        w.writerows(rows)


def _write_json(out, doc) -> None:
    """Indented JSON of doc to --out, newline-terminated."""
    with _open_out(out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_state(path: str) -> MomentState:
    with open(path) as fh:
        return state_from_doc(json.load(fh))


def _label(alpha) -> str:
    return ",".join(str(a) for a in alpha)


def _check_threads_env() -> None:
    """Validate HYPERMOMENT_THREADS. The scan is one stacked eigensolve, so
    the value sizes nothing; a malformed one is still bad input."""
    raw = os.environ.get("HYPERMOMENT_THREADS")
    if raw is None or not raw.strip():
        return
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"HYPERMOMENT_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"HYPERMOMENT_THREADS must be >= 1, got {n}")


# -- assemble ------------------------------------------------------------------


def cmd_assemble(args) -> int:
    state = _load_state(args.state)
    A = assemble_batch(state.w[None], state.D, state.M, args.dir, args.regularized)[0]
    mat = CoefficientMatrix(entries=A, direction=args.dir, regularized=args.regularized, state=state)
    if args.report:
        rep = structural_report(mat)
        doc = {
            "N": rep.N,
            "direction": rep.direction,
            "regularized": mat.regularized,
            "max_abs_diagonal": rep.max_abs_diagonal,
            "upper_violation_rows": list(rep.upper_violation_rows),
            "block_sizes": list(rep.block_sizes),
            "expected_block_sizes": list(rep.expected_block_sizes),
            "max_upper_block_entry": rep.max_upper_block_entry,
            "nonzero_count": rep.nonzero_count,
            "violations": list(rep.violations),
            "ok": rep.ok,
        }
        _write_json(args.out, doc)
        return 0
    labels = [_label(a) for a in state.index_set.indices]
    rows = ([lab] + [repr(float(v)) for v in row] for lab, row in zip(labels, mat.entries))
    _write_csv(args.out, ["row"] + labels, rows)
    return 0


# -- spectrum ------------------------------------------------------------------


def _parse_direction(text: str, D: int) -> np.ndarray:
    try:
        n = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"direction must be comma-separated numbers, got {text!r}") from None
    if n.size != D:
        raise ValueError(f"direction needs {D} components, got {n.size}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(n))
    if not math.isfinite(norm):
        raise ValueError(f"direction must be finite with a finite norm, got {text!r}")
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    return n / norm


_SPECTRUM_HEADER = ["eigenvalue", "multiplicity", "family_m", "root_index"]


def cmd_spectrum(args) -> int:
    state = _load_state(args.state)
    if args.dir is not None:
        n = _parse_direction(args.dir, state.D)
    else:
        n = np.zeros(state.D)
        n[0] = 1.0
    drift = float(np.dot(state.u, n))

    if args.unregularized:
        A = directional(state, n, regularized=False).entries
        vals = np.sort_complex(np.linalg.eigvals(A) + drift)
        _write_csv(args.out, _SPECTRUM_HEADER, ([str(complex(v)).strip("()"), 1, -1, -1] for v in vals))
        return 0

    rows = [
        (drift + L.value, L.multiplicity, L.family_m, L.root_index)
        for L in spectrum_regularized(state, n).lines
    ]
    rows.sort(key=lambda r: (r[0], r[2]))
    _write_csv(args.out, _SPECTRUM_HEADER, ([repr(float(val)), mult, m, j] for val, mult, m, j in rows))

    # cross-check the closed form against a numerical eigensolve
    dev = rotation_spectrum_check(state, n)
    tol = 1e-8 * max(1.0, abs(drift) + abs(rows[-1][0]))
    if dev > tol:
        print(
            f"closed-form spectrum deviates from numerical eigenvalues by {dev:.3e}"
            f" (tolerance {tol:.3e})",
            file=sys.stderr,
        )
        return 2
    return 0


# -- hyperbolicity scan ----------------------------------------------------------


def _parse_scan(spec: str):
    name, eq, rng = spec.partition("=")
    parts = rng.split(":")
    if name != "f3" or not eq or len(parts) != 3:
        raise ValueError(f"scan must look like f3=start:stop:steps, got {spec!r}")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"scan must look like f3=start:stop:steps, got {spec!r}") from None
    if steps < 1:
        raise ValueError(f"scan needs at least one step, got {steps}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"scan bounds must be finite, got {spec!r}")
    return a, b, steps


def cmd_hyperbolicity(args) -> int:
    a, b, steps = _parse_scan(args.scan)
    D, M = args.D, args.M
    s = IndexSet(D, M)
    if M < 3:
        raise ValueError(f"scan needs M >= 3 for a free cubic coefficient, got M={M}")
    _check_threads_env()
    values = np.linspace(a, b, steps)
    W = np.tile(equilibrium(D, M, 1.0, np.zeros(D), np.eye(D)).w, (steps, 1))
    W[:, s.rank0((3,) + (0,) * (D - 1))] = values
    lam = np.linalg.eigvals(assemble_batch(W, D, M, 1))
    ims = np.abs(lam.imag).max(axis=1)
    rows = ([repr(float(v)), repr(float(im))] for v, im in zip(values, ims))
    _write_csv(args.out, ["f3", "max_abs_imag"], rows)
    return 0


# -- riemann report --------------------------------------------------------------


def _fields(left: MomentState):
    """(spectral line, unit root C, characteristic field) per line of the
    left state's spectrum, shared by the report sections."""
    return [(L, L.value, classify_field(left, L.value)) for L in unit_spectrum(left.D, left.M)]


def _field_rows(fields, left: MomentState, right: MomentState):
    return [
        {
            "C": C,
            "family_m": line.family_m,
            "root_index": line.root_index,
            "multiplicity": line.multiplicity,
            "nature": fld.nature,
            "speed_left": wave_speed(left, C),
            "speed_right": wave_speed(right, C),
        }
        for line, C, fld in fields
    ]


def _table_entry(kind: str, left: MomentState, right: MomentState, fld, speed) -> dict:
    """Sign-table verdict of the elementary wave of one field."""
    verdict = wave_table_check(ElementaryWave(kind, left, right, fld, speed))
    return {"C": fld.C, "ok": verdict.ok, "relations": verdict.relations}


def _contact_rows(fields, left: MomentState, right: MomentState, table: list):
    """Contact probes of the linearly degenerate fields, one per distinct C;
    the table entry of each one that passes goes to table."""
    rows = []
    seen = set()
    for _, C, fld in fields:
        if fld.genuinely_nonlinear or round(C, 12) in seen:
            continue
        seen.add(round(C, 12))
        v = contact_check(left, right, fld)
        rows.append(
            {
                "C": C,
                "ok": v.ok,
                "velocity_jump": v.velocity_jump,
                "pressure_jump": v.pressure_jump,
                "eigenvalue_jump": v.eigenvalue_jump,
            }
        )
        if v.ok:
            table.append(_table_entry("contact", left, right, fld, wave_speed(left, C)))
    return rows


def _fan_ends(left: MomentState, flds, zeta: float):
    """Endpoints (k, N) of the fan curves of the genuinely nonlinear fields
    flds through left at zeta, from one batch (riemann._fan_curves). None
    where rarefaction_curve computes no curve (zeta = 0 gives left itself, a
    non-finite zeta an error) and where the batch fails: each field then
    goes through rarefaction_curve for its own endpoint or error."""
    if zeta == 0.0 or not math.isfinite(zeta):
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            ends = _fan_curves(left, flds, zeta)
            _check_rows(ends, left.D, left.M)
    except (ValueError, RuntimeError):
        return None
    return ends


def _rarefaction_rows(fields, left: MomentState, right: MomentState, tol: float, table: list):
    # integral-curve probe: a fan endpoint must sit on the curve through the
    # left state at the parameter fixed by the density ratio; the table
    # entry of each one that passes goes to table
    rows = []
    zeta = float(np.log(right.rho / left.rho))
    scale = max(1.0, float(np.max(np.abs(right.w))))
    gn = [(C, fld) for _, C, fld in fields if fld.genuinely_nonlinear]
    ends = _fan_ends(left, [fld for _, fld in gn], zeta)
    for i, (C, fld) in enumerate(gn):
        row = {"C": C, "zeta": zeta}
        try:
            end = rarefaction_curve(left, fld, zeta).w if ends is None else ends[i]
            mismatch = float(np.max(np.abs(end - right.w))) / scale
            row["max_mismatch"] = mismatch
            row["ok"] = bool(mismatch <= tol)
        except (ValueError, RuntimeError) as e:
            row["ok"] = False
            row["error"] = str(e)
        rows.append(row)
        if row["ok"]:
            speeds = (wave_speed(left, C), wave_speed(right, C))
            table.append(_table_entry("rarefaction", left, right, fld, speeds))
    return rows


def cmd_riemann(args) -> int:
    left = _load_state(args.left)
    right = _load_state(args.right)
    if (left.D, left.M) != (right.D, right.M):
        raise ValueError(
            f"left state is D={left.D}, M={left.M} but right is D={right.D}, M={right.M}"
        )
    FL, FR = to_conserved(left), to_conserved(right)
    tol = args.tol
    fields = _fields(left)
    table = {"shock": [], "contact": [], "rarefaction": []}
    report = {
        "D": left.D,
        "M": left.M,
        "fields": _field_rows(fields, left, right),
        "contacts": _contact_rows(fields, left, right, table["contact"]),
        "rarefactions": _rarefaction_rows(fields, left, right, tol, table["rarefaction"]),
        "mass_flux_speed": None,
        "shock": None,
        "table": table,
    }

    S = shock_speed_from_mass(FL, FR)
    if S is not None:
        rep = shock_check(FL, FR, S)
        report["mass_flux_speed"] = rep.speed
        report["shock"] = {
            "speed": rep.speed,
            "conservative_max": rep.conservative_max,
            "top_max": rep.top_max,
            "lax_per_root": [bool(x) for x in rep.lax_per_root],
            "entropy": rep.entropy,
            "density_pressure_product": rep.density_pressure_product,
            "residual_ok": rep.conservative_max <= tol and rep.top_max <= tol,
        }
        if report["shock"]["residual_ok"]:
            top = [fld for line, _, fld in fields if line.family_m == left.M + 1]
            for fld, passed in zip(top, rep.lax_per_root):
                if passed:
                    table["shock"].append(_table_entry("shock", left, right, fld, S))

    _write_json(args.out, report)
    return 0


# -- simulate --------------------------------------------------------------------


def _req(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where} is missing required field {key!r}")
    return doc[key]


def _scalar(conv, doc: dict, key: str, where: str, default=None):
    """conv (int or float) of doc[key], or of default when the field is
    absent; no default makes the field required. Anything but a JSON number
    is bad input, not a TypeError, and so is a float that is not whole for int."""
    val = _req(doc, key, where) if default is None else doc.get(key, default)
    try:
        return (_integer if conv is int else _number)(val, f"{where} field {key!r}")
    except TypeError as e:
        raise ValueError(str(e)) from None


def _section(doc: dict, key: str, required: bool = False) -> dict:
    """Sub-object key of the config, {} when absent and optional."""
    val = _req(doc, key, "config") if required else doc.get(key, {})
    if not isinstance(val, dict):
        raise ValueError(f"config field {key!r} must be a JSON object")
    return val


def _state_from_doc(doc, D: int, M: int, name: str) -> MomentState:
    if not isinstance(doc, dict):
        raise ValueError(f"{name} state must be a JSON object")
    doc = {"D": D, "M": M, **doc}
    if (_scalar(int, doc, "D", f"{name} state"), _scalar(int, doc, "M", f"{name} state")) != (D, M):
        raise ValueError(f"{name} state dimensions must match the config (D={D}, M={M})")
    return state_from_doc(doc)


def _load_sim_config(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    D = _scalar(int, doc, "D", "config")
    M = _scalar(int, doc, "M", "config")
    g = _section(doc, "grid", required=True)
    grid = Grid1D(
        nx=_scalar(int, g, "nx", "grid"),
        x_min=_scalar(float, g, "x_min", "grid", 0.0),
        x_max=_scalar(float, g, "x_max", "grid", 1.0),
        boundary=g.get("boundary", "copy"),
    )
    c = _section(doc, "collision")
    model = CollisionModel(
        nu=_scalar(float, c, "nu", "collision", 0.0),
        kind=c.get("kind", "bgk"),
        Pr=_scalar(float, c, "Pr", "collision", 1.0),
    )
    config = SimulationConfig(
        D=D,
        M=M,
        grid=grid,
        t_end=_scalar(float, doc, "t_end", "config"),
        cfl=_scalar(float, doc, "cfl", "config", 0.8),
        collision=model,
        n_snapshots=_scalar(int, doc, "n_snapshots", "config", 2),
    )
    left = _state_from_doc(_req(doc, "left", "config"), D, M, "left")
    right = _state_from_doc(_req(doc, "right", "config"), D, M, "right")
    kin = _section(doc, "kinetic")
    return config, left, right, kin


def cmd_simulate(args) -> int:
    config, left, right, kin = _load_sim_config(args.config)
    if args.oracle:
        result = kinetic_reference(
            config,
            left,
            right,
            n_v=_scalar(int, kin, "n_v", "kinetic", 64),
            K=_scalar(float, kin, "K", "kinetic", 6.0),
        )
    else:
        result = simulate(config, left, right)
    rows = ([repr(float(v)) for v in row] for row in result.rows())
    _write_csv(args.out, ["t", "x", "rho", "u1", "p11", "theta", "q1"], rows)
    return 0


# -- conjecture scan --------------------------------------------------------------


def cmd_conjecture(args) -> int:
    violations, best = root_gap_scan(args.n_max, args.tol)
    rows = ([m, n, repr(float(r)), repr(float(d))] for m, n, r, d in violations)
    _write_csv(args.out, ["m", "n", "root", "distance"], rows)
    if best is not None:
        bm, bn, br, bd = best
        print(
            f"orders 2..{args.n_max}: {len(violations)} violation(s);"
            f" closest nonzero-zero gap {bd:.6e} between orders ({bm}, {bn})",
            file=sys.stderr,
        )
    if violations:
        return 2
    return 0


# -- hermite identity checks -------------------------------------------------------


_CHECK_THETA = {
    1: [[1.3]],
    2: [[1.2, 0.3], [0.3, 0.9]],
    3: [[1.2, 0.3, 0.1], [0.3, 0.9, -0.2], [0.1, -0.2, 1.1]],
}


def cmd_hermite_check(args) -> int:
    if args.D not in _CHECK_THETA:
        raise ValueError(f"D must be 1, 2, or 3, got {args.D}")
    if args.max_order < 2:
        raise ValueError(f"max order must be >= 2, got {args.max_order}")
    basis = AnisotropicBasis(np.array(_CHECK_THETA[args.D], dtype=float))
    rng = np.random.default_rng(7)
    pts = 1.5 * rng.standard_normal((32, args.D))

    ortho, integral = gram_deviations(basis, args.max_order, 0.2 * np.arange(1, args.D + 1))
    checks = [
        ("parity", parity_deviation(basis, pts, args.max_order), args.tol),
        ("differential", differential_deviation(basis, pts[:8], args.max_order), args.fd_tol),
        ("orthogonality", ortho, args.tol),
        ("integral_relation", integral, args.tol),
    ]
    rows = ([name, repr(float(dev)), repr(float(tol)), str(dev <= tol).lower()] for name, dev, tol in checks)
    _write_csv(args.out, ["check", "deviation", "tolerance", "ok"], rows)
    bad = [name for name, dev, tol in checks if not dev <= tol]  # a NaN deviation fails
    if bad:
        print(f"identity checks out of tolerance: {', '.join(bad)}", file=sys.stderr)
        return 2
    return 0


# -- parser / dispatch --------------------------------------------------------------


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="hypermoment",
        description="Anisotropic-Hermite moment systems: matrices, spectra, waves, solver.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("assemble", help="coefficient matrix of a state as CSV")
    a.add_argument("--state", required=True, help="state JSON file")
    a.add_argument("--dir", type=int, default=1, help="spatial axis (1-based)")
    a.add_argument("--regularized", action="store_true", help="apply the hyperbolicity correction")
    a.add_argument("--report", action="store_true", help="emit structural diagnostics JSON instead")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_assemble)

    s = sub.add_parser("spectrum", help="characteristic speeds as CSV")
    s.add_argument("--state", required=True, help="state JSON file")
    s.add_argument("--dir", default=None, help="direction vector n1,n2,... (normalized; default first axis)")
    s.add_argument("--unregularized", action="store_true", help="numerical eigenvalues of the uncorrected system")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_spectrum)

    h = sub.add_parser("hyperbolicity", help="sweep f3 and report max |Im eigenvalue|")
    h.add_argument("--scan", required=True, metavar="f3=START:STOP:STEPS")
    h.add_argument("--D", type=int, default=1)
    h.add_argument("--M", type=int, default=3)
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_hyperbolicity)

    r = sub.add_parser("riemann", help="JSON wave report for a pair of states")
    r.add_argument("--left", required=True, help="left state JSON file")
    r.add_argument("--right", required=True, help="right state JSON file")
    r.add_argument("--tol", type=_tolerance, default=1e-8, help="residual / probe tolerance")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_riemann)

    m = sub.add_parser("simulate", help="finite-volume run from a JSON config, CSV snapshots")
    m.add_argument("--config", required=True, help="simulation config JSON file")
    m.add_argument("--oracle", action="store_true", help="run the kinetic reference instead")
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_simulate)

    c = sub.add_parser("conjecture", help="cross-order root coincidence scan")
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--tol", type=_tolerance, default=1e-9, help="relative coincidence tolerance")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_conjecture)

    k = sub.add_parser("hermite-check", help="verify basis-function identities numerically")
    k.add_argument("--D", type=int, default=2)
    k.add_argument("--max-order", type=int, default=4)
    k.add_argument("--tol", type=_tolerance, default=1e-9)
    k.add_argument("--fd-tol", type=_tolerance, default=1e-6, help="finite-difference check tolerance")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_hermite_check)

    return p


def _join_vector_values(argv):
    """Rewrite '--dir -0.6,0.8' as '--dir=-0.6,0.8'. argparse takes a token
    that starts with '-' and is not a plain number for an option, so a
    direction with a negative first component needs the joined form."""
    out = []
    for tok in argv:
        if out and out[-1] == "--dir" and tok.startswith("-"):
            try:
                [float(t) for t in tok.split(",")]
            except ValueError:
                pass
            else:
                out[-1] = f"--dir={tok}"
                continue
        out.append(tok)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_vector_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (CFLViolation, RuntimeError, np.linalg.LinAlgError) as e:
        # numerical failure: AdmissibilityLoss and the solver's speed-bound
        # guard are RuntimeErrors; LinAlgError, a ValueError, must not read
        # as invalid input
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as e:
        # AdmissibilityError on *input* states lands here: validation, not a
        # mid-run numerical failure
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
