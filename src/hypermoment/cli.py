"""Command-line interface: argument dispatch and the output writers; every
input is read by hypermoment.inputs.

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
0 on success, 1 on a validation error, a ValueError or OSError (bad
arguments, malformed or unreadable input, an inadmissible input state), and
2 on a numerical failure: admissibility loss during a run, a time step that
does not advance the run's clock, a failed runtime guard or LAPACK call, a
residual or identity check out of tolerance, scan violations, a riemann
shock check whose conversion fails (after the report is written), a NaN or
an infinity in a JSON report (which is then not written), or a
RuntimeWarning raised as an error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import inputs
from .assembly import CoefficientMatrix, assemble_batch, directional, structural_report
from .hermite import (
    AnisotropicBasis,
    differential_deviation,
    gram_deviations,
    parity_deviation,
    root_gap_scan,
)
from .index import IndexSet
from .inputs import load_sim_config as _load_sim_config  # kept importable from here
from .riemann import wave_report
from .solver import kinetic_reference, simulate
from .spectral import rotation_spectrum_check, spectrum_regularized
from .state import equilibrium

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
    """Indented strict JSON of doc to --out, newline-terminated. A NaN or an
    infinity in doc is a numerical failure: RuntimeError, before anything
    is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as e:
        raise RuntimeError(f"the report holds a number that is not finite ({e})") from None
    with _open_out(out) as fh:
        fh.write(text + "\n")


def _label(alpha) -> str:
    return ",".join(str(a) for a in alpha)


# -- assemble ------------------------------------------------------------------


def cmd_assemble(args) -> int:
    state = inputs.load_state(args.state)
    A = assemble_batch(state.w[None], state.D, state.M, args.dir, args.regularized)[0]
    mat = CoefficientMatrix(entries=A, direction=args.dir, regularized=args.regularized, state=state)
    if args.report:
        rep = structural_report(mat)
        _write_json(args.out, {**vars(rep), "ok": rep.ok})
        return 0
    labels = [_label(a) for a in state.index_set.indices]
    rows = ([lab] + [repr(float(v)) for v in row] for lab, row in zip(labels, mat.entries))
    _write_csv(args.out, ["row"] + labels, rows)
    return 0


# -- spectrum ------------------------------------------------------------------


_SPECTRUM_HEADER = ["eigenvalue", "multiplicity", "family_m", "root_index"]


def cmd_spectrum(args) -> int:
    state = inputs.load_state(args.state)
    if args.dir is not None:
        n = inputs.parse_direction(args.dir, state.D)
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


def cmd_hyperbolicity(args) -> int:
    a, b, steps = inputs.parse_scan(args.scan)
    D, M = args.D, args.M
    s = IndexSet(D, M)
    if M < 3:
        raise ValueError(f"scan needs M >= 3 for a free cubic coefficient, got M={M}")
    values = np.linspace(a, b, steps)
    W = np.tile(equilibrium(D, M, 1.0, np.zeros(D), np.eye(D)).w, (steps, 1))
    W[:, s.rank0((3,) + (0,) * (D - 1))] = values
    lam = np.linalg.eigvals(assemble_batch(W, D, M, 1))
    ims = np.abs(lam.imag).max(axis=1)
    rows = ([repr(float(v)), repr(float(im))] for v, im in zip(values, ims))
    _write_csv(args.out, ["f3", "max_abs_imag"], rows)
    return 0


# -- riemann report --------------------------------------------------------------


def cmd_riemann(args) -> int:
    left = inputs.load_state(args.left)
    right = inputs.load_state(args.right)
    if (left.D, left.M) != (right.D, right.M):
        raise ValueError(
            f"left state is D={left.D}, M={left.M} but right is D={right.D}, M={right.M}"
        )
    report = wave_report(left, right, args.tol)
    _write_json(args.out, report)
    error = (report["shock"] or {}).get("error")
    if error:
        print(f"error: shock check failed: {error}", file=sys.stderr)
        return 2
    return 0


# -- simulate --------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config, left, right, kin = _load_sim_config(args.config)
    if args.oracle:
        result = kinetic_reference(config, left, right, **kin)
    else:
        result = simulate(config, left, right)
    _write_csv(args.out, ["t", "x", "rho", "u1", "p11", "theta", "q1"], result.rows())
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
    r.add_argument("--tol", type=inputs.tolerance, default=1e-8, help="residual / probe tolerance")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_riemann)

    m = sub.add_parser("simulate", help="finite-volume run from a JSON config, CSV snapshots")
    m.add_argument("--config", required=True, help="simulation config JSON file")
    m.add_argument("--oracle", action="store_true", help="run the kinetic reference instead")
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_simulate)

    c = sub.add_parser("conjecture", help="cross-order root coincidence scan")
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--tol", type=inputs.tolerance, default=1e-9, help="relative coincidence tolerance")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_conjecture)

    k = sub.add_parser("hermite-check", help="verify basis-function identities numerically")
    k.add_argument("--D", type=int, default=2)
    k.add_argument("--max-order", type=int, default=4)
    k.add_argument("--tol", type=inputs.tolerance, default=1e-9)
    k.add_argument("--fd-tol", type=inputs.tolerance, default=1e-6, help="finite-difference check tolerance")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_hermite_check)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(inputs.join_vector_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (RuntimeError, RuntimeWarning, np.linalg.LinAlgError) as e:
        # numerical failure: AdmissibilityLoss and the solver's speed-bound
        # guard are RuntimeErrors; a RuntimeWarning reaches here only when
        # warnings are raised as errors; LinAlgError, a ValueError, must not
        # read as invalid input
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        # AdmissibilityError on *input* states lands here: validation, not a
        # mid-run numerical failure
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
