"""The benchmark's workloads: seeded inputs, the op each run repeats, and the
checks every op's output must pass.

A workload writes its inputs into a work directory and returns a plan: the
warm-up commands that are part of set-up, and the commands of one op. The
worker runs them through ``hypermoment.cli.run``; ``{i}`` in an argument is
replaced by the op's number so that every op leaves its own output files.
The checks compare against computations that do not go through the code
they check: the discrete-velocity kinetic reference, Hermite roots from
``numpy.polynomial.hermite_e``, LAPACK eigenvectors and mpmath, or exact
properties of the scheme.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
from numpy.polynomial import hermite_e


def hermite_roots(m: int) -> np.ndarray:
    """Sorted zeros of the monic order-m Hermite polynomial He_m."""
    return np.sort(hermite_e.hermeroots([0.0] * m + [1.0]).real)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def _state_doc(st) -> dict:
    """JSON state document of a MomentState, floats at full precision."""
    return {
        "D": st.D,
        "M": st.M,
        "rho": st.rho,
        "u": [float(x) for x in st.u],
        "p": [[float(x) for x in row] for row in st.p],
        "f": {",".join(str(a) for a in alpha): float(v) for alpha, v in st.f.items()},
    }


class Tube:
    """Criterion-7 kinetic-comparison Riemann problem at D=1, M=6, BGK nu=1.

    rho_L = 1 and rho_R = 0.5 (seeded within +-2%), u = 0, theta = 1. The run
    stops one step before the numerical fan, which widens by one cell per
    step on each side, reaches the end cells: the end cells keep their
    initial states, so the totals of the rows below order M change only by
    the boundary fluxes, which are known exactly.
    """

    name = "tube-m6"
    D, M = 1, 6
    NX = 24
    CFL = 0.8
    NU = 1.0
    RHO_L = 1.0
    THETA = 1.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.rho_r = 0.5 * (1.0 + 0.04 * (rng.random() - 0.5))
        self.dx = 1.0 / self.NX
        # initial signal speed C_max sqrt(theta); it grows a few percent in
        # the fan, so a t_end of NX/2 - 2 full-speed steps takes NX/2 - 1
        # steps, the most the end cells allow
        self.a0 = float(hermite_roots(self.M + 1)[-1]) * math.sqrt(self.THETA)
        self.dt0 = self.CFL * self.dx / self.a0
        self.t_end = (self.NX // 2 - 2) * self.dt0
        self._oracle = None

    def _config(self, t_end: float) -> dict:
        def side(rho):
            return {"rho": rho, "u": [0.0], "p": [[rho * self.THETA]]}

        return {
            "D": self.D,
            "M": self.M,
            "grid": {"nx": self.NX, "x_min": 0.0, "x_max": 1.0, "boundary": "copy"},
            "t_end": t_end,
            "cfl": self.CFL,
            "collision": {"nu": self.NU, "kind": "bgk"},
            "left": side(self.RHO_L),
            "right": side(self.rho_r),
            "kinetic": {"n_v": 64, "K": 6.0},
        }

    def prepare(self, work: Path) -> dict:
        _write_json(work / "problem.json", self._config(self.t_end))
        _write_json(work / "warmup.json", self._config(0.5 * self.dt0))
        return {
            "warmup": [["simulate", "--config", "warmup.json", "--out", "warmup.csv"]],
            "op": [["simulate", "--config", "problem.json", "--out", "op{i}.csv"]],
        }

    def _kinetic_rho(self, work: Path) -> np.ndarray:
        if self._oracle is None:
            from hypermoment import cli

            err = io.StringIO()
            with redirect_stderr(err):
                rc = cli.run(
                    ["simulate", "--config", str(work / "problem.json"), "--oracle",
                     "--out", str(work / "oracle.csv")]
                )
            if rc != 0:
                raise RuntimeError(f"kinetic reference failed ({rc}): {err.getvalue()}")
            _, rows = _read_csv(work / "oracle.csv")
            a = np.array(rows, dtype=float)
            self._oracle = a[a[:, 0] == a[:, 0].max(), 2]
        return self._oracle

    def l1_bound(self) -> float:
        """Twice the L1 error of one first-order smeared jump.

        A first-order scheme with dissipation speed a spreads a jump of
        height h like a heat kernel of variance a dx t, and the L1 distance
        between a jump and its smeared image is h sqrt(2/pi) sqrt(a dx t).
        The moment scheme (a = the initial signal speed) and the kinetic
        reference (a = |v| per velocity, smaller in the bulk) each sit
        within that distance of the exact solution.
        """
        h = self.RHO_L - self.rho_r
        return 2.0 * h * math.sqrt(2.0 / math.pi) * math.sqrt(self.a0 * self.dx * self.t_end)

    def check(self, work: Path, i: int, rec: dict) -> list[str]:
        head, rows = _read_csv(work / f"op{i}.csv")
        if head != ["t", "x", "rho", "u1", "p11", "theta", "q1"]:
            return [f"unexpected header {head}"]
        a = np.array(rows, dtype=float)
        t0, t1 = a[:, 0].min(), a[:, 0].max()
        first, last = a[a[:, 0] == t0], a[a[:, 0] == t1]
        bad = []
        if len(first) != self.NX or len(last) != self.NX or t0 != 0.0:
            return [f"expected two snapshots of {self.NX} cells"]
        if not math.isclose(t1, self.t_end, rel_tol=1e-12):
            bad.append(f"final time {t1} != {self.t_end}")

        def totals(s):
            rho, u, p = s[:, 2], s[:, 3], s[:, 4]
            return (
                rho.sum() * self.dx,
                (rho * u).sum() * self.dx,
                0.5 * (rho * u * u + p).sum() * self.dx,
            )

        m0, q0, e0 = totals(first)
        m1, q1, e1 = totals(last)
        p_l, p_r = self.RHO_L * self.THETA, self.rho_r * self.THETA
        if abs(m1 - m0) > 1e-13:
            bad.append(f"mass changed by {m1 - m0:.3e}")
        if abs(q1 - q0 - (p_l - p_r) * t1) > 1e-13:
            bad.append(f"momentum off the boundary-flux balance by {q1 - q0 - (p_l - p_r) * t1:.3e}")
        if abs(e1 - e0) > 1e-13:
            bad.append(f"energy changed by {e1 - e0:.3e}")
        if last[0, 2] != self.RHO_L or last[-1, 2] != self.rho_r:
            bad.append("an end cell left its initial state")
        if not (np.all(a[:, 2] > 0) and np.all(a[:, 5] > 0)):
            bad.append("non-positive density or temperature")
        l1 = float(np.abs(last[:, 2] - self._kinetic_rho(work)).sum() * self.dx)
        if not l1 <= self.l1_bound():
            bad.append(f"L1 density distance to the kinetic reference {l1:.4e} > {self.l1_bound():.4e}")
        return bad


class Waves:
    """A seeded D=2, M=4 state pair joined by a rarefaction.

    The left state has random density, velocity, anisotropic temperature and
    order-3/4 coefficients. The right state lies on the integral curve of
    one genuinely nonlinear field (a seeded nonzero root C of He_5) at
    parameter zeta = 0.15: the benchmark integrates the eigenvector that
    LAPACK gives for the regularized first-axis matrix.
    """

    name = "waves-d2m4"
    D, M = 2, 4
    # fixed, not seeded: the length and direction of the integral curves
    # set most of the op's work, which the seeds should not change
    ZETA = 0.15

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.rho = float(rng.uniform(0.8, 1.3))
        self.u = rng.uniform(-0.3, 0.3, self.D)
        lam = rng.uniform(0.7, 1.3, self.D)
        ang = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        self.Theta = rot @ np.diag(lam) @ rot.T
        self.f = {
            (k - j, j): float(rng.uniform(-0.02, 0.02)) for k in (3, 4) for j in range(k + 1)
        }
        nonzero = [r for r in hermite_roots(self.M + 1) if abs(r) > 1e-12]
        self.C = float(nonzero[rng.integers(len(nonzero))])
        ang = rng.uniform(0.0, 2.0 * math.pi)
        # one token, so a leading minus is not read as an option
        self.n_arg = f"--dir={math.cos(ang)!r},{math.sin(ang)!r}"
        self.left = self.right = None

    def _integrate_right(self):
        from scipy.integrate import solve_ivp

        from hypermoment.assembly import assemble, regularize
        from hypermoment.state import MomentState

        D, M, C = self.D, self.M, self.C

        def rhs(_, w):
            st = MomentState.from_w(D, M, w)
            lam, vec = np.linalg.eig(regularize(assemble(st, 1), st).entries)
            k = int(np.argmin(np.abs(lam - C * math.sqrt(st.theta_tensor[0, 0]))))
            r = vec[:, k].real
            return r * st.rho / r[0]

        sol = solve_ivp(rhs, (0.0, self.ZETA), self.left.w, method="RK45", rtol=1e-11, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"integral-curve integration failed: {sol.message}")
        return MomentState.from_w(D, M, sol.y[:, -1])

    def prepare(self, work: Path) -> dict:
        from hypermoment.state import MomentState

        self.left = MomentState(
            D=self.D, M=self.M, rho=self.rho, u=self.u, p=self.rho * self.Theta, f=self.f
        )
        self.right = self._integrate_right()
        _write_json(work / "left.json", _state_doc(self.left))
        _write_json(work / "right.json", _state_doc(self.right))
        return {
            "warmup": [
                ["spectrum", "--state", "left.json", self.n_arg, "--out", "warmup.csv"],
                ["riemann", "--left", "left.json", "--right", "left.json", "--out", "warmup.json"],
            ],
            "op": [
                ["spectrum", "--state", "left.json", self.n_arg, "--out", "op{i}.csv"],
                ["riemann", "--left", "left.json", "--right", "right.json", "--out", "op{i}.json"],
            ],
        }

    def _check_spectrum(self, path: Path) -> list[str]:
        n = np.array([float(t) for t in self.n_arg.split("=")[1].split(",")])
        n /= np.linalg.norm(n)
        drift = float(self.left.u @ n)
        scale = math.sqrt(float(n @ self.left.theta_tensor @ n))
        expect = {}
        for m in range(1, self.M + 2):
            # family m collects the trailing sub-indices of order M + 1 - m
            mult = math.comb(self.M + 1 - m + self.D - 2, self.D - 2)
            for j, r in enumerate(hermite_roots(m)):
                expect[(m, j)] = (drift + scale * r, mult)
        _, rows = _read_csv(path)
        got = {(int(r[2]), int(r[3])): (float(r[0]), int(r[1])) for r in rows}
        if set(got) != set(expect) or len(rows) != len(expect):
            return ["spectrum lines do not match the families"]
        bad = []
        for key, (val, mult) in expect.items():
            gv, gm = got[key]
            if gm != mult or abs(gv - val) > 1e-10 * (1.0 + abs(val)):
                bad.append(f"spectrum line {key}: got ({gv!r}, {gm}), expected ({float(val)!r}, {mult})")
        return bad

    def _check_report(self, path: Path) -> list[str]:
        rep = json.loads(path.read_text())
        bad = []
        sides = (("speed_left", self.left), ("speed_right", self.right))
        for row in rep["fields"]:
            C = row["C"]
            ref = hermite_roots(row["family_m"])[row["root_index"]]
            if abs(C - ref) > 1e-12 * (1.0 + abs(ref)):
                bad.append(f"field C={C!r} is not root {row['root_index']} of He_{row['family_m']}")
            for key, st in sides:
                want = float(st.u[0]) + C * math.sqrt(float(st.p[0, 0]) / st.rho)
                if abs(row[key] - want) > 1e-12 * (1.0 + abs(want)):
                    bad.append(f"{key} of field C={C!r}: {row[key]!r} != {want!r}")
        hits = [r for r in rep["rarefactions"] if abs(r["C"] - self.C) <= 1e-12 * (1.0 + abs(self.C))]
        if len(hits) != 1 or hits[0].get("ok") is not True:
            bad.append(f"rarefaction of field C={self.C!r} not marked ok: {hits}")
        return bad

    def check(self, work: Path, i: int, rec: dict) -> list[str]:
        return self._check_spectrum(work / f"op{i}.csv") + self._check_report(work / f"op{i}.json")


_GAP_LINE = re.compile(
    r"orders 2\.\.(\d+): (\d+) violation\(s\); closest nonzero-zero gap (\S+)"
    r" between orders \((\d+), (\d+)\)"
)


class Roots:
    """Cross-order Hermite root scan up to order 200 (input fixed; the seed
    does not change it)."""

    name = "roots-200"
    N_MAX = 200

    def __init__(self, seed: int):
        self._gaps = {}

    def prepare(self, work: Path) -> dict:
        return {
            "warmup": [["conjecture", "--n-max", "12", "--out", "warmup.csv"]],
            "op": [["conjecture", "--n-max", str(self.N_MAX), "--out", "op{i}.csv"]],
        }

    @staticmethod
    def _positive_roots_mp(n: int):
        """Positive zeros of He_n at 50 digits: Newton on the three-term
        recurrence, started from numpy's Gauss nodes."""
        import mpmath as mp

        eps = mp.mpf(10) ** -45
        out = []
        for x0 in hermite_e.hermegauss(n)[0]:
            if x0 <= 1e-8:
                continue
            x = mp.mpf(float(x0))
            for _ in range(40):
                prev, cur = mp.mpf(1), x
                for k in range(1, n):
                    prev, cur = cur, x * cur - k * prev
                step = cur / (n * prev)
                x -= step
                if abs(step) < eps:
                    break
            else:
                raise RuntimeError(f"Newton did not converge for He_{n} near {x0}")
            out.append(x)
        return out

    def _gap_mp(self, m: int, n: int) -> float:
        if (m, n) not in self._gaps:
            import mpmath as mp

            with mp.workdps(50):
                rm, rn = self._positive_roots_mp(m), self._positive_roots_mp(n)
                self._gaps[(m, n)] = float(min(abs(a - b) for a in rm for b in rn))
        return self._gaps[(m, n)]

    def check(self, work: Path, i: int, rec: dict) -> list[str]:
        head, rows = _read_csv(work / f"op{i}.csv")
        bad = []
        if head != ["m", "n", "root", "distance"] or rows:
            bad.append(f"scan reported violation rows: {rows[:3]}")
        found = _GAP_LINE.search(rec["stderr"])
        if not found:
            return bad + [f"no closest-gap line in {rec['stderr']!r}"]
        n_max, nviol, gap, m, n = found.groups()
        if int(n_max) != self.N_MAX or int(nviol) != 0:
            bad.append(f"summary line reports {nviol} violations up to {n_max}")
        ref = self._gap_mp(int(m), int(n))
        if abs(float(gap) - ref) > 1e-6 * ref:
            bad.append(f"gap {gap} of orders ({m}, {n}) != {ref:.9e} from mpmath")
        return bad


WORKLOADS = {w.name: w for w in (Tube, Waves, Roots)}
