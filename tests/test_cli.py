"""End-to-end command-line checks, including pinned golden files.

Golden outputs live in tests/golden/. Matrix and conjecture CSVs are compared
byte for byte (pure-arithmetic values); spectrum and scan CSVs are parsed and
compared within tight tolerances since their eigensolves may differ in the
last ulp across LAPACK builds.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypermoment.assembly import assemble, regularize
from hypermoment.cli import run
from hypermoment import hermite
from hypermoment.hermite import he_roots
from hypermoment.riemann import classify_field, rarefaction_curve
from hypermoment.spectral import spectrum_regularized
from hypermoment.state import equilibrium, state_from_json, state_to_json

from helpers import random_state

GOLDEN = Path(__file__).parent / "golden"
STATE = GOLDEN / "state_d1m3.json"

HUGONIOT_LEFT = {
    "D": 1, "M": 2, "rho": 1.2, "u": [0.35355339059327373], "p": [[1.75]], "f": {},
}
HUGONIOT_RIGHT = {"D": 1, "M": 2, "rho": 1.0, "u": [0.0], "p": [[1.0]], "f": {}}


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestAssemble:
    def test_regularized_matrix_matches_golden(self, tmp_path):
        dst = tmp_path / "A.csv"
        rc = run(["assemble", "--state", str(STATE), "--regularized", "--out", str(dst)])
        assert rc == 0
        assert dst.read_text() == (GOLDEN / "assemble_d1m3_regularized.csv").read_text()

    def test_csv_roundtrips_to_matrix(self, tmp_path):
        dst = tmp_path / "A.csv"
        assert run(["assemble", "--state", str(STATE), "--out", str(dst)]) == 0
        header, rows = read_rows(dst)
        state = state_from_json(STATE.read_text())
        labels = [",".join(map(str, a)) for a in state.index_set.indices]
        assert header == ["row"] + labels
        assert [r[0] for r in rows] == labels
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        np.testing.assert_array_equal(got, assemble(state, 1).entries)

    def test_regularized_csv_roundtrip(self, tmp_path):
        dst = tmp_path / "A.csv"
        assert run(["assemble", "--state", str(STATE), "--regularized", "--out", str(dst)]) == 0
        _, rows = read_rows(dst)
        state = state_from_json(STATE.read_text())
        expected = regularize(assemble(state, 1), state).entries
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        np.testing.assert_array_equal(got, expected)

    def test_report_json(self, tmp_path):
        dst = tmp_path / "rep.json"
        rc = run(["assemble", "--state", str(STATE), "--regularized", "--report", "--out", str(dst)])
        assert rc == 0
        doc = json.loads(dst.read_text())
        assert doc["ok"] is True
        assert doc["N"] == 4
        assert doc["regularized"] is True
        assert doc["block_sizes"] == [4]
        assert doc["violations"] == []


class TestSpectrum:
    def test_matches_golden(self, tmp_path):
        dst = tmp_path / "spec.csv"
        assert run(["spectrum", "--state", str(STATE), "--out", str(dst)]) == 0
        header, rows = read_rows(dst)
        gheader, grows = read_rows(GOLDEN / "spectrum_d1m3.csv")
        assert header == gheader == ["eigenvalue", "multiplicity", "family_m", "root_index"]
        assert [r[1:] for r in rows] == [r[1:] for r in grows]
        np.testing.assert_allclose(
            [float(r[0]) for r in rows],
            [float(r[0]) for r in grows],
            rtol=1e-12,
            atol=1e-13,
        )

    def test_values_are_shifted_scaled_roots(self, tmp_path):
        dst = tmp_path / "spec.csv"
        assert run(["spectrum", "--state", str(STATE), "--out", str(dst)]) == 0
        _, rows = read_rows(dst)
        vals = np.array([float(r[0]) for r in rows])
        np.testing.assert_allclose(vals, 0.3 + 0.5 * he_roots(4), rtol=0, atol=1e-12)

    def test_direction_2d(self, tmp_path):
        state = equilibrium(2, 3, 1.5, [0.2, -0.1], [[1.0, 0.2], [0.2, 0.8]])
        sf = tmp_path / "state.json"
        sf.write_text(state_to_json(state))
        dst = tmp_path / "spec.csv"
        assert run(["spectrum", "--state", str(sf), "--dir", "0.6,0.8", "--out", str(dst)]) == 0
        _, rows = read_rows(dst)
        n = np.array([0.6, 0.8])
        drift = float(state.u @ n)
        scale = float(np.sqrt(n @ state.theta_tensor @ n))
        assert sum(int(r[1]) for r in rows) == state.index_set.N
        for val, mult, m, j in rows:
            expected = drift + he_roots(int(m))[int(j)] * scale
            assert abs(float(val) - expected) < 1e-10

    def test_direction_is_normalized(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["spectrum", "--state", str(STATE), "--dir", "5", "--out", str(a)]) == 0
        assert run(["spectrum", "--state", str(STATE), "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_unregularized_complex_rows(self, tmp_path):
        dst = tmp_path / "spec.csv"
        rc = run(["spectrum", "--state", str(STATE), "--unregularized", "--out", str(dst)])
        assert rc == 0
        _, rows = read_rows(dst)
        vals = [complex(r[0]) for r in rows]
        assert len(vals) == 4
        # this state sits outside the hyperbolic region
        assert max(abs(v.imag) for v in vals) > 0.1
        assert all(r[1:] == ["1", "-1", "-1"] for r in rows)


class TestHyperbolicity:
    def test_matches_golden(self, tmp_path):
        dst = tmp_path / "scan.csv"
        rc = run(["hyperbolicity", "--scan", "f3=0:0.5:6", "--D", "1", "--M", "3", "--out", str(dst)])
        assert rc == 0
        header, rows = read_rows(dst)
        gheader, grows = read_rows(GOLDEN / "hyperbolicity_d1m3.csv")
        assert header == gheader == ["f3", "max_abs_imag"]
        got = np.array([[float(v) for v in r] for r in rows])
        want = np.array([[float(v) for v in r] for r in grows])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_onset_shape(self, tmp_path):
        dst = tmp_path / "scan.csv"
        assert run(["hyperbolicity", "--scan", "f3=0:0.5:6", "--out", str(dst)]) == 0
        _, rows = read_rows(dst)
        ims = [float(r[1]) for r in rows]
        assert ims[0] <= 1e-12 and ims[1] <= 1e-12
        assert all(v > 0.1 for v in ims[2:])
        assert ims[2:] == sorted(ims[2:])

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        # HYPERMOMENT_THREADS is not read: unset, a count or a word, the scan
        # exits 0 with the same CSV
        outs = []
        for value in (None, "1", "3", "zero"):
            if value is None:
                monkeypatch.delenv("HYPERMOMENT_THREADS", raising=False)
            else:
                monkeypatch.setenv("HYPERMOMENT_THREADS", value)
            out = tmp_path / f"{value}.csv"
            assert run(["hyperbolicity", "--scan", "f3=0:1:5", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert len(set(outs)) == 1


    @pytest.mark.parametrize("D,M", [(1, 5), (2, 3), (2, 4), (3, 4)])
    def test_matches_per_state_loop(self, tmp_path, D, M):
        dst = tmp_path / "scan.csv"
        assert run(["hyperbolicity", "--scan", "f3=-2:3:11", "--D", str(D), "--M", str(M), "--out", str(dst)]) == 0
        base = equilibrium(D, M, 1.0, np.zeros(D), np.eye(D))
        lines = ["f3,max_abs_imag"]
        for v in np.linspace(-2.0, 3.0, 11):
            st = base.replace(f={(3,) + (0,) * (D - 1): float(v)})
            lam = np.linalg.eigvals(assemble(st, 1).entries)
            lines.append(f"{float(v)!r},{float(np.max(np.abs(lam.imag)))!r}")
        assert dst.read_text() == "\n".join(lines) + "\n"


class TestRiemann:
    def test_exact_hugoniot_shock_report(self, tmp_path):
        lf = write_json(tmp_path, "l.json", HUGONIOT_LEFT)
        rf = write_json(tmp_path, "r.json", HUGONIOT_RIGHT)
        dst = tmp_path / "wave.json"
        rc = run(["riemann", "--left", str(lf), "--right", str(rf), "--out", str(dst)])
        assert rc == 0
        doc = json.loads(dst.read_text())
        assert doc["D"] == 1 and doc["M"] == 2
        natures = [f["nature"] for f in doc["fields"]]
        assert natures == ["genuinely-nonlinear", "linearly-degenerate", "genuinely-nonlinear"]
        assert abs(doc["mass_flux_speed"] - np.sqrt(4.5)) < 1e-12
        shock = doc["shock"]
        assert shock["residual_ok"] is True
        assert shock["conservative_max"] < 1e-12 and shock["top_max"] < 1e-12
        assert shock["lax_per_root"] == [False, False, True]
        assert shock["entropy"] is True
        assert len(doc["table"]["shock"]) == 1
        assert doc["table"]["shock"][0]["ok"] is True
        # the pair is not a contact and not a fan
        assert all(not c["ok"] for c in doc["contacts"])
        assert all(not r["ok"] for r in doc["rarefactions"])

    def test_report_converts_the_pair_once(self, tmp_path, monkeypatch):
        import hypermoment.riemann as riemann_mod

        calls = []
        real = riemann_mod.from_conserved_batch

        def counted(F, D, M):
            calls.append(np.array(F))
            return real(F, D, M)

        monkeypatch.setattr(riemann_mod, "from_conserved_batch", counted)
        lf = write_json(tmp_path, "l.json", HUGONIOT_LEFT)
        rf = write_json(tmp_path, "r.json", HUGONIOT_RIGHT)
        dst = tmp_path / "wave.json"
        assert run(["riemann", "--left", str(lf), "--right", str(rf), "--out", str(dst)]) == 0
        assert len(calls) == 1 and calls[0].shape[0] == 2
        assert abs(json.loads(dst.read_text())["mass_flux_speed"] - np.sqrt(4.5)) < 1e-12

    def test_state_against_itself(self, tmp_path):
        # equal states: no mass-flux speed and no shock, and every fan of
        # zero length matches exactly
        dst = tmp_path / "wave.json"
        assert run(["riemann", "--left", str(STATE), "--right", str(STATE), "--out", str(dst)]) == 0
        doc = json.loads(dst.read_text())
        assert doc["mass_flux_speed"] is None and doc["shock"] is None
        assert [(r["zeta"], r["max_mismatch"], r["ok"]) for r in doc["rarefactions"]] == [(0.0, 0.0, True)] * 4

    def test_rarefaction_endpoints_detected(self, tmp_path):
        # the end of the top-root fan curve of a D=1 M=2 state, and of a
        # seeded D=3 M=4 state whose fields share one stacked solve and one
        # stacked exponential
        for left, zeta in (
            (state_from_json(json.dumps(HUGONIOT_RIGHT)), 0.25),
            (random_state(np.random.default_rng(0), 3, 4, scale=0.02), 0.2),
        ):
            fld = classify_field(left, float(he_roots(left.M + 1)[-1]))
            right = rarefaction_curve(left, fld, zeta)
            lf = tmp_path / "l.json"
            rf = tmp_path / "r.json"
            lf.write_text(state_to_json(left))
            rf.write_text(state_to_json(right))
            dst = tmp_path / "wave.json"
            assert run(["riemann", "--left", str(lf), "--right", str(rf), "--out", str(dst)]) == 0
            doc = json.loads(dst.read_text())
            hits = [r for r in doc["rarefactions"] if r["ok"]]
            assert len(hits) == 1
            assert hits[0]["C"] > 0
            assert abs(hits[0]["zeta"] - zeta) < 1e-12
            assert len(doc["table"]["rarefaction"]) == 1
            assert doc["table"]["rarefaction"][0]["ok"] is True
            assert doc["shock"] is not None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "rho_left,rho_right,error",
        [(1e200, 1e-200, "density must be positive, got 0.0"),
         (1e-200, 1e200, "density must be finite, got inf")],
        ids=["ratio-underflows", "ratio-overflows"],
    )
    def test_extreme_density_ratio(self, tmp_path, rho_left, rho_right, error):
        # the density ratio leaves the float range, its logarithm does not;
        # the fan endpoints it sets are out of range and each row says so
        def side(rho):
            return {"D": 1, "M": 3, "rho": rho, "u": [0.3], "p": [[0.25 * rho]], "f": {"3": 0.05 * rho}}

        lf = write_json(tmp_path, "l.json", side(rho_left))
        rf = write_json(tmp_path, "r.json", side(rho_right))
        dst = tmp_path / "wave.json"
        assert run(["riemann", "--left", str(lf), "--right", str(rf), "--out", str(dst)]) == 0
        rows = json.loads(dst.read_text())["rarefactions"]
        assert len(rows) == 4
        for row in rows:
            assert row["zeta"] == pytest.approx(np.log(rho_right) - np.log(rho_left), rel=1e-15)
            assert row["ok"] is False and row["error"] == error

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_is_strict_json(self, tmp_path):
        # the shock section's density-pressure product overflows; it is
        # written as null, never as Infinity
        def side(rho):
            return {"D": 1, "M": 3, "rho": rho, "u": [0.3], "p": [[0.25 * rho]], "f": {"3": 0.05 * rho}}

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        lf = write_json(tmp_path, "l.json", side(1e200))
        rf = write_json(tmp_path, "r.json", side(1e-200))
        dst = tmp_path / "wave.json"
        assert run(["riemann", "--left", str(lf), "--right", str(rf), "--out", str(dst)]) == 0
        doc = json.loads(dst.read_text(), parse_constant=reject)
        assert doc["shock"]["density_pressure_product"] is None

    def test_non_finite_report_exits_2_without_writing(self, tmp_path, monkeypatch, capsys):
        import hypermoment.cli as cli

        monkeypatch.setattr(
            cli, "wave_report", lambda left, right, tol: {"shock": None, "speed": float("nan")}
        )
        dst = tmp_path / "wave.json"
        assert run(["riemann", "--left", str(STATE), "--right", str(STATE), "--out", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the report holds a number that is not finite")
        assert err.count("\n") == 1
        assert not dst.exists()

    def test_json_syntax_error_names_the_file(self, tmp_path, capsys):
        rf = tmp_path / "broken.json"
        rf.write_text('{"D": 1,')
        dst = tmp_path / "wave.json"
        assert run(["riemann", "--left", str(STATE), "--right", str(rf), "--out", str(dst)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {rf}: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)\n"
        assert not dst.exists()

    def test_dimension_mismatch_is_validation_error(self, tmp_path, capsys):
        lf = write_json(tmp_path, "l.json", HUGONIOT_LEFT)
        rf = write_json(
            tmp_path, "r.json", {"D": 1, "M": 3, "rho": 1.0, "u": [0.0], "p": [[1.0]], "f": {}}
        )
        assert run(["riemann", "--left", str(lf), "--right", str(rf)]) == 1
        assert "M=" in capsys.readouterr().err


def sim_config(**over):
    doc = {
        "D": 1,
        "M": 2,
        "grid": {"nx": 16, "x_min": 0.0, "x_max": 1.0, "boundary": "copy"},
        "t_end": 0.02,
        "cfl": 0.8,
        "n_snapshots": 2,
        "collision": {"nu": 0.0},
        "left": {"rho": 1.0, "u": [0.0], "p": [[1.0]], "f": {}},
        "right": {"rho": 0.5, "u": [0.0], "p": [[0.5]], "f": {}},
    }
    doc.update(over)
    return doc


class TestSimulate:
    def test_snapshot_csv(self, tmp_path):
        cf = write_json(tmp_path, "sim.json", sim_config())
        dst = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(dst)]) == 0
        header, rows = read_rows(dst)
        assert header == ["t", "x", "rho", "u1", "p11", "theta", "q1"]
        assert len(rows) == 2 * 16
        vals = np.array([[float(v) for v in r] for r in rows])
        assert set(np.unique(vals[:, 0])) == {0.0, 0.02}
        first = vals[:16]
        # initial snapshot reproduces the piecewise data
        np.testing.assert_allclose(first[:8, 2], 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(first[8:, 2], 0.5, rtol=0, atol=1e-14)

    def test_oracle_same_schema(self, tmp_path):
        cf = write_json(tmp_path, "sim.json", sim_config(kinetic={"n_v": 48, "K": 6.0}))
        dst = tmp_path / "kin.csv"
        assert run(["simulate", "--config", str(cf), "--oracle", "--out", str(dst)]) == 0
        header, rows = read_rows(dst)
        assert header == ["t", "x", "rho", "u1", "p11", "theta", "q1"]
        assert len(rows) == 2 * 16

    @pytest.mark.parametrize(
        "config,flags,golden",
        [
            ("simulate_d1m6_tube", [], "simulate_d1m6_tube"),
            ("simulate_d2m4_esbgk", [], "simulate_d2m4_esbgk"),
            ("simulate_d1m6_tube", ["--oracle"], "simulate_d1m6_tube_oracle"),
        ],
        ids=["tube", "esbgk", "tube-oracle"],
    )
    def test_matches_golden(self, tmp_path, config, flags, golden):
        # parsed, not byte-compared: the kinetic moments go through BLAS
        dst = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(GOLDEN / f"{config}.json"), *flags, "--out", str(dst)]) == 0
        header, rows = read_rows(dst)
        gheader, grows = read_rows(GOLDEN / f"{golden}.csv")
        assert header == gheader == ["t", "x", "rho", "u1", "p11", "theta", "q1"]
        got, want = np.array(rows, dtype=float), np.array(grows, dtype=float)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_admissibility_loss_exits_2(self, tmp_path, capsys):
        doc = sim_config(
            M=3,
            t_end=0.2,
            left={"rho": 1.0, "u": [-6.0], "p": [[0.05]], "f": {}},
            right={"rho": 1.0, "u": [6.0], "p": [[0.05]], "f": {}},
        )
        cf = write_json(tmp_path, "sim.json", doc)
        assert run(["simulate", "--config", str(cf), "--out", str(tmp_path / "x.csv")]) == 2
        assert "admissible" in capsys.readouterr().err

    def test_missing_field_is_validation_error(self, tmp_path, capsys):
        doc = sim_config()
        del doc["t_end"]
        cf = write_json(tmp_path, "sim.json", doc)
        assert run(["simulate", "--config", str(cf)]) == 1
        assert "t_end" in capsys.readouterr().err


class TestConjecture:
    def test_empty_violations_golden(self, tmp_path, capsys):
        dst = tmp_path / "conj.csv"
        assert run(["conjecture", "--n-max", "12", "--out", str(dst)]) == 0
        assert dst.read_text() == (GOLDEN / "conjecture_empty.csv").read_text()
        assert "0 violation(s)" in capsys.readouterr().err

    def test_loose_tolerance_reports_violations(self, tmp_path):
        # with an absurd tolerance every near-miss is a "violation": exit 2
        dst = tmp_path / "conj.csv"
        assert run(["conjecture", "--n-max", "8", "--tol", "0.5", "--out", str(dst)]) == 2
        _, rows = read_rows(dst)
        assert rows
        assert all(len(r) == 4 for r in rows)

    def test_bad_n_max(self):
        assert run(["conjecture", "--n-max", "1"]) == 1

    def test_n_max_above_10000_exits_1_and_writes_nothing(self, tmp_path, capsys):
        dst = tmp_path / "conj.csv"
        assert run(["conjecture", "--n-max", "10001", "--out", str(dst)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not dst.exists()

    def test_n_max_10000_passes_the_check(self, monkeypatch):
        # reaching the table shows the order check passed; the scan itself
        # is never run at this size
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(hermite, "_positive_roots", reached)
        with pytest.raises(Reached):
            run(["conjecture", "--n-max", "10000"])


class TestHermiteCheck:
    def test_all_identities_pass(self, tmp_path):
        dst = tmp_path / "herm.csv"
        assert run(["hermite-check", "--D", "2", "--max-order", "4", "--out", str(dst)]) == 0
        header, rows = read_rows(dst)
        assert header == ["check", "deviation", "tolerance", "ok"]
        assert [r[0] for r in rows] == [
            "parity",
            "differential",
            "orthogonality",
            "integral_relation",
        ]
        assert all(r[3] == "true" for r in rows)
        assert all(float(r[1]) <= float(r[2]) for r in rows)

    def test_1d(self, tmp_path):
        dst = tmp_path / "herm.csv"
        assert run(["hermite-check", "--D", "1", "--max-order", "5", "--out", str(dst)]) == 0

    def test_bad_dimension(self):
        assert run(["hermite-check", "--D", "4"]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_deviation_fails(self, tmp_path):
        # past order 170 the table overflows; a NaN deviation must not pass
        dst = tmp_path / "herm.csv"
        assert run(["hermite-check", "--D", "1", "--max-order", "400", "--out", str(dst)]) == 2
        _, rows = read_rows(dst)
        assert rows[0][0] == "parity" and rows[0][3] == "false"

    def test_one_rule_and_three_tables(self, tmp_path, monkeypatch):
        calls = {"gaussian_quadrature": 0, "ghe_table": 0}

        def counted(name):
            real = getattr(hermite, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(hermite, name, wrapper)

        for name in calls:
            counted(name)
        dst = tmp_path / "herm.csv"
        assert run(["hermite-check", "--D", "3", "--max-order", "6", "--out", str(dst)]) == 0
        assert calls["gaussian_quadrature"] == 1
        assert calls["ghe_table"] <= 3

    def test_perturbed_table_fails(self, tmp_path, monkeypatch):
        # one order-2 value off by 1%, at the point nearest the origin (the
        # heaviest node of a quadrature rule), must show in both Gram checks
        real = hermite.ghe_table

        def perturbed(basis, x, max_order):
            table = real(basis, x, max_order)
            vals = table[(2,) + (0,) * (basis.D - 1)]
            vals[np.unravel_index(np.argmin(np.sum(np.square(x), axis=-1)), vals.shape)] *= 1.01
            return table

        monkeypatch.setattr(hermite, "ghe_table", perturbed)
        dst = tmp_path / "herm.csv"
        assert run(["hermite-check", "--D", "2", "--max-order", "4", "--out", str(dst)]) == 2
        ok = {r[0]: r[3] for r in read_rows(dst)[1]}
        assert ok["orthogonality"] == "false" and ok["integral_relation"] == "false"


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run(["assemble", "--state", "/nonexistent/state.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_inadmissible_state(self, tmp_path):
        bad = write_json(
            tmp_path, "bad.json", {"D": 1, "M": 3, "rho": -1.0, "u": [0.0], "p": [[1.0]], "f": {}}
        )
        assert run(["spectrum", "--state", str(bad)]) == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["assemble", "--state", str(bad)]) == 1

    def test_bad_scan_spec(self):
        assert run(["hyperbolicity", "--scan", "f4=0:1:3"]) == 1
        assert run(["hyperbolicity", "--scan", "f3=0:1"]) == 1

    @pytest.mark.parametrize("spec", ["f3=0:inf:3", "f3=nan:1:3"])
    def test_non_finite_scan_bounds(self, spec, capsys):
        assert run(["hyperbolicity", "--scan", spec]) == 1
        assert "scan bounds must be finite" in capsys.readouterr().err

    def test_zero_direction(self):
        assert run(["spectrum", "--state", str(STATE), "--dir", "0"]) == 1

    def test_no_command(self):
        assert run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "assemble" in capsys.readouterr().out

    def test_failed_parse_leaves_parser_intact(self, tmp_path):
        # run reuses one parser per process; a call that fails to parse must
        # not change what the next call parses
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run(["spectrum", "--state", str(STATE), "--out", str(one)]) == 0
        assert run(["spectrum"]) == 1
        assert run(["spectrum", "--state", str(STATE), "--out", str(two)]) == 0
        assert two.read_bytes() == one.read_bytes()


@pytest.mark.skipif(shutil.which("hypermoment") is None, reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["hypermoment", "spectrum", "--state", str(STATE)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("eigenvalue,multiplicity,family_m,root_index")


class TestSingleScanConjecture:
    def test_one_pass_matches_two_passes(self):
        from hypermoment.hermite import common_zero_scan, cross_order_root_distances, root_gap_scan

        for n_max, tol in ((12, 1e-9), (10, 0.05)):
            hits, best = root_gap_scan(n_max, tol)
            assert hits == common_zero_scan(n_max, tol)
            assert best == min(cross_order_root_distances(n_max), key=lambda t: t[3])

    def test_stderr_line(self, capsys):
        from hypermoment.hermite import cross_order_root_distances

        assert run(["conjecture", "--n-max", "12"]) == 0
        bm, bn, _, bd = min(cross_order_root_distances(12), key=lambda t: t[3])
        want = (
            f"orders 2..12: 0 violation(s); closest nonzero-zero gap {bd:.6e}"
            f" between orders ({bm}, {bn})\n"
        )
        assert capsys.readouterr().err == want

    @staticmethod
    def _reference(n_max, tols):
        """Hits per tol and the closest entry of the per-pair reference."""
        from hypermoment.hermite import cross_order_root_distances

        entries = list(cross_order_root_distances(n_max))
        hits = [[e for e in entries if e[3] <= tol * max(1.0, abs(e[2]))] for tol in tols]
        return hits, min(entries, key=lambda t: t[3], default=None)

    def test_sorted_pass_equals_reference(self):
        from hypermoment.hermite import root_gap_scan

        tols = (0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.5)
        for n_max in range(2, 61):
            want_hits, want_best = self._reference(n_max, tols)
            for tol, want in zip(tols, want_hits):
                hits, best = root_gap_scan(n_max, tol)
                assert hits == want, (n_max, tol)
                assert best == want_best, (n_max, tol)

    def test_sorted_pass_at_200(self):
        from hypermoment.hermite import root_gap_scan

        hits, best = root_gap_scan(200)
        assert hits == []
        assert best == self._reference(200, ())[1]
        # from order 217 on there are hits at the default tolerance; from
        # 436 on there are two, one farther apart than the closest pair
        for n_max in (217, 436):
            (want_hits,), want_best = self._reference(n_max, (1e-9,))
            assert want_hits
            assert root_gap_scan(n_max) == (want_hits, want_best), n_max

    @staticmethod
    def _patch_table(monkeypatch, rows):
        """hermite, with _positive_roots reading the positive zeros per order
        from rows."""
        from hypermoment import hermite

        def positive_roots(n_max, n_min=1):
            ns = range(n_min, n_max + 1)
            got = [rows.get(n, []) for n in ns]
            assert [len(r) for r in got] == [n // 2 for n in ns]
            return np.array(sum(got, []), dtype=float), np.repeat(list(ns), [len(r) for r in got])

        monkeypatch.setattr(hermite, "_positive_roots", positive_roots)
        return hermite

    # positive zeros per order with exact (dyadic) tied gaps of 0.25: order 6
    # ties with one order at 1.0 and 3.0 and with the other on both sides of
    # 5.0; the closest pair is (4, 6), at two roots in TIES_APART and at one
    # root from both neighbours in TIES_AROUND
    TIES_APART = {2: [8.0], 3: [10.0], 4: [1.25, 2.75], 5: [4.75, 5.25], 6: [1.0, 3.0, 5.0]}
    TIES_AROUND = {2: [8.0], 3: [10.0], 4: [4.75, 5.25], 5: [1.25, 2.75], 6: [1.0, 3.0, 5.0]}

    @pytest.mark.parametrize("rows,best6", [(TIES_APART, -3.0), (TIES_AROUND, -5.0)], ids=["apart", "around"])
    def test_half_table_tie_rule(self, monkeypatch, rows, best6):
        hermite = self._patch_table(monkeypatch, rows)
        for n_max, want in ((2, None), (3, (2, 3, -10.0, 2.0)), (6, (4, 6, best6, 0.25))):
            tols = (0.0, 0.5)
            want_hits, want_best = self._reference(n_max, tols)
            assert want_best == want
            for tol, hits in zip(tols, want_hits):
                assert hermite.root_gap_scan(n_max, tol) == (hits, want_best), (n_max, tol)

    # orders 4, 5 and 6 share the zero 3.0 (d = 0), so one of their three
    # pairs is two apart in any sort; orders 2 and 3 are 2^-28 apart at 8.0,
    # a hit at tol 1e-9 above d; at tol 0.5, orders 2 and 3 also hit order 5
    SHARED = {2: [8.0], 3: [8.0 + 2.0**-28], 4: [1.25, 3.0], 5: [3.0, 6.0], 6: [1.0, 3.0, 5.0]}

    def test_shared_zero_table(self, monkeypatch):
        hermite = self._patch_table(monkeypatch, self.SHARED)
        tols = (0.0, 1e-9, 0.5)
        want_hits, want_best = self._reference(6, tols)
        assert want_best == (4, 5, -3.0, 0.0)
        assert [len(h) for h in want_hits] == [3, 4, 6]
        for tol, hits in zip(tols, want_hits):
            assert hermite.root_gap_scan(6, tol) == (hits, want_best), tol

    @staticmethod
    def _count_reference(monkeypatch):
        from hypermoment import hermite

        calls = []
        real = hermite.cross_order_root_distances

        def counted(n_max):
            calls.append(n_max)
            return real(n_max)

        monkeypatch.setattr(hermite, "cross_order_root_distances", counted)
        return calls

    def test_no_reference_without_possible_hits(self, monkeypatch, tmp_path, capsys):
        # the closest gaps pin the polished root table: up to order 200, and
        # at --tol 0 up to order 600, past order 484, from which Gatteschi's
        # far Airy indices (j > 10) seed the zeros
        calls = self._count_reference(monkeypatch)
        out = tmp_path / "conj.csv"
        for argv, gap in (
            (["--n-max", "200"], "2.012850e-07 between orders (146, 190)"),
            (["--n-max", "600", "--tol", "0"], "5.144472e-10 between orders (539, 583)"),
        ):
            assert run(["conjecture", *argv, "--out", str(out)]) == 0
            assert calls == []
            assert out.read_bytes() == (GOLDEN / "conjecture_empty.csv").read_bytes()
            err = f"orders 2..{argv[1]}: 0 violation(s); closest nonzero-zero gap {gap}\n"
            assert capsys.readouterr().err == err

    def test_reference_rows_when_hits_possible(self, monkeypatch, tmp_path, capsys):
        (want,), _ = self._reference(8, (0.5,))
        calls = self._count_reference(monkeypatch)
        out = tmp_path / "conj.csv"
        assert run(["conjecture", "--n-max", "8", "--tol", "0.5", "--out", str(out)]) == 2
        assert calls == []
        head, rows = read_rows(out)
        assert head == ["m", "n", "root", "distance"]
        assert want and rows == [[str(m), str(n), repr(r), repr(d)] for m, n, r, d in want]
        # at the default tolerance, orders 91 and 217 are the first pair within it
        assert run(["conjecture", "--n-max", "217", "--out", str(out)]) == 2
        assert calls == []
        assert read_rows(out) == (head, [["91", "217", "-18.023246436171043", "9.733007289014495e-09"]])
        # up to order 1000, the rows and gap of the full per-pair reference
        # (about 20 s to run)
        capsys.readouterr()
        assert run(["conjecture", "--n-max", "1000", "--out", str(out)]) == 2
        assert calls == []
        got_head, rows = read_rows(out)
        assert got_head == head and len(rows) == 24
        assert rows[0] == ["91", "217", "-18.023246436171043", "9.733007289014495e-09"]
        assert rows[-1] == ["828", "998", "-43.84621789305432", "2.2423733980758698e-09"]
        assert capsys.readouterr().err == (
            "orders 2..1000: 24 violation(s); closest nonzero-zero gap 1.093132e-10 between orders (401, 678)\n"
        )


class TestInputContract:
    def test_negative_direction_as_two_tokens(self, tmp_path):
        state = write_json(
            tmp_path, "s.json",
            {"D": 2, "M": 3, "rho": 1.0, "u": [0.1, -0.2], "p": [[1.0, 0.1], [0.1, 0.8]],
             "f": {"3,0": 0.05}},
        )
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run(["spectrum", "--state", str(state), "--dir=-0.6,0.8", "--out", str(one)]) == 0
        assert run(["spectrum", "--state", str(state), "--dir", "-0.6,0.8", "--out", str(two)]) == 0
        assert two.read_text() == one.read_text()

    def test_nan_density_in_config_exits_1(self, tmp_path, capsys):
        doc = sim_config(left={"rho": float("nan"), "u": [0.0], "p": [[1.0]], "f": {}})
        cf = tmp_path / "sim.json"
        cf.write_text(json.dumps(doc))
        assert "NaN" in cf.read_text()
        assert run(["simulate", "--config", str(cf)]) == 1
        err = capsys.readouterr().err
        assert "density must be finite" in err

    @pytest.mark.parametrize("nu", [float("nan"), float("inf")])
    def test_non_finite_collision_frequency_exits_1(self, tmp_path, capsys, nu):
        cf = tmp_path / "sim.json"
        cf.write_text(json.dumps(sim_config(collision={"nu": nu})))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        assert "collision frequency must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("direction", ["nan,1", "inf,1", "1e308,1e308"])
    def test_non_finite_direction_exits_1_before_writing(self, tmp_path, capsys, direction):
        state = write_json(
            tmp_path, "s.json",
            {"D": 2, "M": 3, "rho": 1.0, "u": [0.1, -0.2], "p": [[1.0, 0.1], [0.1, 0.8]],
             "f": {"3,0": 0.05}},
        )
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--state", str(state), f"--dir={direction}", "--out", str(out)]) == 1
        assert "direction must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["hermite-check", "--D", "1", "--max-order", "2", "--tol", "nan"],
            ["hermite-check", "--D", "1", "--max-order", "2", "--fd-tol", "nan"],
            ["hermite-check", "--D", "1", "--max-order", "2", "--tol=-1e-9"],
            ["conjecture", "--n-max", "4", "--tol", "nan"],
            ["conjecture", "--n-max", "4", "--tol", "inf"],
            ["riemann", "--left", str(STATE), "--right", str(STATE), "--tol", "nan"],
        ],
    )
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, argv):
        out = tmp_path / "o.out"
        assert run(argv + ["--out", str(out)]) == 1
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_hyperbolicity_zero_dimension_exits_1(self, capsys):
        assert run(["hyperbolicity", "--scan", "f3=0:1:2", "--D", "0"]) == 1
        assert "dimension must be >= 1" in capsys.readouterr().err


class TestFailurePaths:
    """Bad arguments of each reader exit 1 with one error line and write
    nothing."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["hermite-check", "--max-order", "1"], "max order must be >= 2, got 1"),
            (["hyperbolicity", "--scan", "f3=0:1:3", "--D", "1", "--M", "2"],
             "scan needs M >= 3 for a free cubic coefficient, got M=2"),
            (["spectrum", "--state", str(STATE), "--dir", "a,b"],
             "direction must be comma-separated numbers, got 'a,b'"),
            (["hyperbolicity", "--scan", "f3=a:b:3"], "scan must look like f3=start:stop:steps, got 'f3=a:b:3'"),
        ],
        ids=["max-order-1", "scan-m2", "dir-words", "scan-words"],
    )
    def test_exits_1(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_argparse_type_error_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run(["riemann", "--left", str(STATE), "--right", str(STATE), "--tol", "abc", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == [err[-1]]
        assert err[-1].endswith("error: argument --tol: tolerance must be a number, got 'abc'")
        assert not out.exists()


class TestNumericalFailureExit:
    def test_speed_bound_guard_exits_2(self, tmp_path, monkeypatch, capsys):
        import hypermoment.solver as solver

        def guard(state):
            raise RuntimeError("speed bound 1.0 underestimates the numerical spectrum 2.0")

        monkeypatch.setattr(solver, "_spectral_bound_check", guard)
        cfg = GOLDEN / "simulate_d1m6_tube.json"
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: speed bound 1.0 underestimates the numerical spectrum 2.0\n"

    def test_lapack_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        def eigvals(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--state", str(STATE), "--unregularized", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"

    def test_spectrum_cross_check_failure_exits_2_and_writes(self, tmp_path, monkeypatch, capsys):
        import hypermoment.cli as cli

        want, out = tmp_path / "want.csv", tmp_path / "spec.csv"
        assert run(["spectrum", "--state", str(STATE), "--out", str(want)]) == 0
        monkeypatch.setattr(cli, "rotation_spectrum_check", lambda state, n: 1.0)
        assert run(["spectrum", "--state", str(STATE), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("closed-form spectrum deviates from numerical eigenvalues by 1.000e+00")
        assert err.count("\n") == 1
        assert out.read_text() == want.read_text()

    # a cell width of 2e-323 / 4 rounds every time step to dt = 0, so t never
    # reaches t_end: a subprocess under a timeout, so a march that hangs
    # fails the test instead of the suite
    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["moment", "oracle"])
    def test_step_that_does_not_advance_t_exits_2(self, tmp_path, flags):
        doc = json.loads((GOLDEN / "simulate_d1m6_tube.json").read_text())
        cf = write_json(tmp_path, "sim.json", {**doc, "grid": {"nx": 4, "x_max": 2e-323}})
        out = tmp_path / "run.csv"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hypermoment.cli", "simulate",
             "--config", str(cf), *flags, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: time step dt = 0.0 does not advance t = 0.0\n"
        assert not out.exists()

    # colliding streams heat the gas past the initial velocity span
    CLIPPING_CONFIG = sim_config(
        M=3,
        grid={"nx": 24},
        t_end=0.08,
        collision={"nu": 50.0},
        left={"rho": 1.0, "u": [2.0], "p": [[1.0]], "f": {}},
        right={"rho": 1.0, "u": [-2.0], "p": [[1.0]], "f": {}},
        kinetic={"n_v": 64, "K": 6.0},
    )

    def test_clipping_warning_as_error_exits_2(self, tmp_path, capsys):
        cf = write_json(tmp_path, "sim.json", self.CLIPPING_CONFIG)
        out = tmp_path / "kin.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["simulate", "--config", str(cf), "--oracle", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: velocity domain clipping: boundary mass fraction 1.677e-04\n"
        assert not out.exists()

    def test_clipping_warning_still_writes(self, tmp_path):
        cf = write_json(tmp_path, "sim.json", self.CLIPPING_CONFIG)
        out = tmp_path / "kin.csv"
        with pytest.warns(RuntimeWarning, match="velocity domain clipping"):
            assert run(["simulate", "--config", str(cf), "--oracle", "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == 2 * 24

    # admissible, but 2 rho overflows: the denominator of the order-M rows'
    # density terms
    OVERFLOW_STATE = {
        "D": 2, "M": 4, "rho": 1.7e308, "u": [0.3, 1e10],
        "p": [[0.25 * 1.7e308, 0.0], [0.0, 1e-5 * 1.7e308]],
        "f": {"3,0": 0.05 * 1.7e308, "1,3": 0.01 * 1.7e308},
    }

    @pytest.mark.parametrize("flags", [[], ["--regularized"]], ids=["plain", "regularized"])
    def test_overflowing_denominator_exits_2(self, tmp_path, capsys, flags):
        sf = write_json(tmp_path, "s.json", self.OVERFLOW_STATE)
        out = tmp_path / "A.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["assemble", "--state", str(sf), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err
        assert not out.exists()


class TestSpeedBoundGuard:
    """The packed guard itself, not a stand-in, catches a closed-form speed
    that is too low."""

    @pytest.fixture
    def low_c_max(self, monkeypatch):
        import dataclasses

        import hypermoment.solver as solver

        real = solver.unit_spectrum

        def low(D, M):
            lines = real(D, M)
            top = dataclasses.replace(lines[-1], value=0.9 * lines[-1].value)
            return lines[:-1] + (top,)

        monkeypatch.setattr(solver, "unit_spectrum", low)
        return solver

    def test_guard_raises_on_the_packed_row(self, low_c_max):
        row = equilibrium(1, 6, 1.0, [0.3], [[1.0]]).w[None]
        with pytest.raises(RuntimeError, match="speed bound .* underestimates"):
            low_c_max._spectral_bound_check((1, 6, row))

    def test_simulate_exits_2(self, tmp_path, low_c_max, capsys):
        cfg = GOLDEN / "simulate_d1m6_tube.json"
        out = tmp_path / "o.csv"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: speed bound ") and "underestimates" in err

    @staticmethod
    def _message(solver, D, M, rows):
        with pytest.raises(RuntimeError) as err:
            solver._spectral_bound_check((D, M, rows))
        return str(err.value)

    @pytest.mark.parametrize("D,M", [(1, 6), (2, 4), (3, 4)])
    def test_stack_reports_its_first_failing_row(self, low_c_max, D, M):
        from helpers import random_state

        rng = np.random.default_rng(100 * D + M)
        rows = np.array([random_state(rng, D, M).w for _ in range(5)])
        # spectral radius ~1e-15, under the guard's absolute slack: passes
        cold = equilibrium(D, M, 1.0, np.zeros(D), 1e-30 * np.eye(D)).w[None]
        low_c_max._spectral_bound_check((D, M, cold))
        for i in range(len(rows)):
            want = self._message(low_c_max, D, M, rows[i : i + 1])
            assert self._message(low_c_max, D, M, rows[i:]) == want
            assert self._message(low_c_max, D, M, np.vstack([cold, rows[i:]])) == want

    def _first_step_message(self, solver):
        from hypermoment.cli import _load_sim_config
        from hypermoment.solver import riemann_cells

        config, left, right, _ = _load_sim_config(str(GOLDEN / "simulate_d1m6_tube.json"))
        W = np.array([c.w for c in riemann_cells(config, left, right)])
        i = int(np.argmax(solver._signal_speeds(W, config.D, config.M)))
        return config, left, right, self._message(solver, config.D, config.M, W[i : i + 1])

    def test_simulate_reports_the_first_step(self, low_c_max):
        config, left, right, want = self._first_step_message(low_c_max)
        with pytest.raises(RuntimeError) as err:
            low_c_max.simulate(config, left, right)
        assert type(err.value) is RuntimeError and str(err.value) == want

    def test_guard_comes_before_a_later_steps_failure(self, low_c_max, monkeypatch):
        config, left, right, want = self._first_step_message(low_c_max)
        real, calls = low_c_max._advance, []

        def advance(*args):
            calls.append(1)
            if len(calls) == 3:
                raise low_c_max.AdmissibilityLoss("cell 0 left the admissible set", cell=0)
            return real(*args)

        monkeypatch.setattr(low_c_max, "_advance", advance)
        with pytest.raises(RuntimeError) as err:
            low_c_max.simulate(config, left, right)
        assert len(calls) == 3
        assert type(err.value) is RuntimeError and str(err.value) == want

    def test_step_checks_its_row_before_transport(self, low_c_max, monkeypatch):
        config, left, right, want = self._first_step_message(low_c_max)
        W = np.array([c.w for c in low_c_max.riemann_cells(config, left, right)])
        monkeypatch.setattr(low_c_max, "_advance", lambda *a: pytest.fail("transport ran"))
        with pytest.raises(RuntimeError) as err:
            low_c_max.step(W, 1e-6, config)
        assert str(err.value) == want


class TestMalformedConfig:
    """Non-finite or mistyped config and state JSON exits 1 before writing."""

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"t_end": float("inf")}, "t_end must be finite"),
            ({"grid": {"nx": 16, "x_max": float("inf")}}, "domain bounds must be finite"),
            ({"grid": {"nx": 16, "x_min": float("-inf")}}, "domain bounds must be finite"),
            ({"grid": [16]}, "'grid' must be a JSON object"),
            ({"collision": [0.0]}, "'collision' must be a JSON object"),
            ({"kinetic": [48]}, "'kinetic' must be a JSON object"),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, over, message):
        cf = write_json(tmp_path, "sim.json", sim_config(**over))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid", [{"nx": 16, "x_min": -1e308, "x_max": 1e308}, {"nx": 16, "x_max": 5e-324}]
    )
    def test_cell_width_out_of_float_range_exits_1(self, tmp_path, capsys, grid):
        cf = write_json(tmp_path, "sim.json", sim_config(grid=grid))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell width ")
        assert err.endswith(" must be finite and positive\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"grid": {"nx": [16]}}, "grid field 'nx' must be a number, got [16]"),
            ({"D": [1]}, "config field 'D' must be a number, got [1]"),
            ({"collision": {"kind": 1}}, "collision kind must be a string, got 1"),
            (
                {"left": {"rho": 1.0, "u": {"a": 1}, "p": [[1.0]], "f": {}}},
                "state JSON field has the wrong type",
            ),
        ],
        ids=["nx-list", "D-list", "kind-int", "u-object"],
    )
    def test_mistyped_scalar_exits_1(self, tmp_path, capsys, over, message):
        cf = write_json(tmp_path, "sim.json", sim_config(**over))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kinetic,message",
        [
            ({"n_v": "abc"}, 'kinetic field \'n_v\' must be a number, got "abc"'),
            ({"n_v": 64.5}, "kinetic field 'n_v' must be an integer, got 64.5"),
            ({"K": [6.0]}, "kinetic field 'K' must be a number, got [6.0]"),
        ],
        ids=["n_v-str", "n_v-frac", "K-list"],
    )
    def test_kinetic_block_is_read_without_oracle(self, tmp_path, capsys, kinetic, message):
        cf = write_json(tmp_path, "sim.json", sim_config(kinetic=kinetic))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("K", [float("inf"), float("nan")])
    def test_non_finite_oracle_span_exits_1(self, tmp_path, capsys, K):
        cf = write_json(tmp_path, "sim.json", sim_config(kinetic={"n_v": 48, "K": K}))
        out = tmp_path / "kin.csv"
        assert run(["simulate", "--config", str(cf), "--oracle", "--out", str(out)]) == 1
        assert "finite velocity span" in capsys.readouterr().err
        assert not out.exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cf = write_json(tmp_path, "sim.json", [1, 2])
        assert run(["simulate", "--config", str(cf)]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1, 2], "state JSON and its field 'f' must be objects"),
            ({**json.loads(STATE.read_text()), "f": [1]}, "state JSON and its field 'f' must be objects"),
            ({**json.loads(STATE.read_text()), "rho": [1.0]}, "wrong type"),
        ],
    )
    def test_bad_state_file_exits_1(self, tmp_path, capsys, doc, message):
        sf = write_json(tmp_path, "s.json", doc)
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--state", str(sf), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_module_entry_point_has_no_import_warning(tmp_path):
    # the package does not import cli eagerly, so runpy finds no stale copy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "hypermoment.cli", "conjecture", "--n-max", "4",
         "--out", str(tmp_path / "conj.csv")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("orders 2..4: 0 violation(s)")


@pytest.mark.parametrize("category", [RuntimeWarning, UserWarning])
def test_warnings_are_errors(category):
    # pyproject.toml's filterwarnings makes both categories errors in every
    # test that sets no filter of its own
    with pytest.raises(category, match="probe"):
        warnings.warn("probe", category)


class TestIntegerFields:
    """Integer fields of a config or state file must be whole numbers: a
    non-finite or fractional value exits 1 with one error line, and an
    integral float such as 16.0 reads as the integer."""

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"D": float("inf")}, "config field 'D' must be an integer, got Infinity"),
            ({"M": 2.5}, "config field 'M' must be an integer, got 2.5"),
            ({"grid": {"nx": float("inf")}}, "grid field 'nx' must be an integer, got Infinity"),
            ({"grid": {"nx": 24.7}}, "grid field 'nx' must be an integer, got 24.7"),
            ({"n_snapshots": float("nan")}, "config field 'n_snapshots' must be an integer, got NaN"),
            (
                {"left": {"D": 1.5, "rho": 1.0, "u": [0.0], "p": [[1.0]], "f": {}}},
                "left state field 'D' must be an integer, got 1.5",
            ),
        ],
        ids=["D-inf", "M-frac", "nx-inf", "nx-frac", "snapshots-nan", "left-D-frac"],
    )
    def test_config_exits_1(self, tmp_path, capsys, over, message):
        cf = write_json(tmp_path, "sim.json", sim_config(**over))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_v", [float("inf"), 47.5])
    def test_oracle_velocity_count_exits_1(self, tmp_path, capsys, n_v):
        cf = write_json(tmp_path, "sim.json", sim_config(kinetic={"n_v": n_v, "K": 6.0}))
        out = tmp_path / "kin.csv"
        assert run(["simulate", "--config", str(cf), "--oracle", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kinetic field 'n_v' must be an integer, got ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "over,shown",
        [({"D": float("inf")}, "'D' must be an integer, got Infinity"),
         ({"D": 1.5}, "'D' must be an integer, got 1.5"),
         ({"M": float("-inf")}, "'M' must be an integer, got -Infinity")],
        ids=["D-inf", "D-frac", "M-inf"],
    )
    def test_state_file_exits_1(self, tmp_path, capsys, over, shown):
        sf = write_json(tmp_path, "s.json", {**json.loads(STATE.read_text()), **over})
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--state", str(sf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: state JSON field {shown}\n"
        assert not out.exists()

    def test_state_file_bool_dimension_exits_1(self, tmp_path, capsys):
        sf = write_json(tmp_path, "s.json", {**json.loads(STATE.read_text()), "D": True})
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--state", str(sf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: state JSON field has the wrong type: 'D' must be a number, got true\n"
        assert not out.exists()

    def test_integral_floats_are_accepted(self, tmp_path):
        plain, whole = tmp_path / "plain.csv", tmp_path / "whole.csv"
        over = {"D": 1.0, "M": 2.0, "n_snapshots": 2.0, "grid": {"nx": 16.0, "x_min": 0.0, "x_max": 1.0}}
        for doc, out in ((sim_config(), plain), (sim_config(**over), whole)):
            cf = write_json(tmp_path, "sim.json", doc)
            assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 0
        assert whole.read_text() == plain.read_text()
        sf = write_json(tmp_path, "s.json", {**json.loads(STATE.read_text()), "D": 1.0, "M": 3.0})
        for src, out in ((STATE, plain), (sf, whole)):
            assert run(["spectrum", "--state", str(src), "--out", str(out)]) == 0
        assert whole.read_text() == plain.read_text()


class TestNumberFields:
    """Every numeric field of a config or state file, and every entry of u, p
    and f, must be a JSON number: a string or a bool exits 1 with one error
    line, and so does an integer too large for a float."""

    BIG = 10**400

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"grid": {"nx": "16"}}, "grid field 'nx' must be a number, got \"16\""),
            ({"t_end": "0.02"}, "config field 't_end' must be a number, got \"0.02\""),
            ({"left": {"rho": "1.0", "u": [0.0], "p": [[1.0]]}}, "'rho' must be a number, got \"1.0\""),
            (
                {"M": 3, "right": {"rho": 0.5, "u": [0.0], "p": [[0.5]], "f": {"3": "0.01"}}},
                "'f' entry '3' must be a number, got \"0.01\"",
            ),
            ({"n_snapshots": True}, "config field 'n_snapshots' must be a number, got true"),
            ({"t_end": BIG}, "config field 't_end' must fit a float, got an integer of 1329 bits"),
        ],
        ids=["nx-str", "t_end-str", "left-rho-str", "right-f-str", "snapshots-bool", "t_end-big"],
    )
    def test_config_exits_1(self, tmp_path, capsys, over, message):
        cf = write_json(tmp_path, "sim.json", sim_config(**over))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", str(cf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"D": "1"}, "'D' must be a number, got \"1\""),
            ({"rho": "1.0"}, "'rho' must be a number, got \"1.0\""),
            ({"u": [True]}, "'u' entry must be a number, got true"),
            ({"p": [["1.0"]]}, "'p' entry must be a number, got \"1.0\""),
            ({"f": {"3": "0.1"}}, "'f' entry '3' must be a number, got \"0.1\""),
            ({"rho": BIG}, "'rho' must fit a float"),
            ({"u": [BIG]}, "'u' entry must fit a float"),
        ],
        ids=["D-str", "rho-str", "u-bool", "p-str", "f-str", "rho-big", "u-big"],
    )
    def test_state_file_exits_1(self, tmp_path, capsys, over, message):
        sf = write_json(tmp_path, "s.json", {**json.loads(STATE.read_text()), **over})
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--state", str(sf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: state JSON field has the wrong type: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


class TestInputErrorLines:
    """Malformed input of each reader exits 1 with exactly one error line and
    writes nothing."""

    D2_STATE = {"D": 2, "M": 3, "rho": 1.0, "u": [0.1, -0.2], "p": [[1.0, 0.1], [0.1, 0.8]], "f": {}}

    @pytest.mark.parametrize(
        "argv,doc,message",
        [
            (["simulate"], {k: v for k, v in sim_config().items() if k != "left"},
             "config is missing required field 'left'"),
            (["simulate"], sim_config(grid={"x_min": 0.0}), "grid is missing required field 'nx'"),
            (["simulate"], sim_config(left=[1]), "left state must be a JSON object"),
            (["simulate"], sim_config(right={"D": 2, "rho": 1.0, "u": [0.0], "p": [[1.0]]}),
             "right state dimensions must match the config (D=1, M=2)"),
            (["spectrum", "--dir", "1,0,0"], D2_STATE, "direction needs 2 components, got 3"),
            (["hyperbolicity", "--scan", "f3=0:1:0"], None, "scan needs at least one step, got 0"),
            (["spectrum"], {"D": 1, "M": 3, "u": [0.3], "p": [[0.5]], "f": {}},
             "state JSON missing field 'rho'"),
            (["simulate"], sim_config(left={"u": [0.0], "p": [[1.0]], "f": {}}),
             "left state: state JSON missing field 'rho'"),
            (["simulate"], sim_config(right={"rho": 0.5, "u": [0.0], "p": [[0.5]], "f": {"2": "0.01"}}),
             "right state: state JSON field has the wrong type: 'f' entry '2' must be a number, got \"0.01\""),
        ],
        ids=["no-left", "no-nx", "left-list", "right-dims", "dir-size", "scan-steps", "no-rho",
             "left-no-rho", "right-f-str"],
    )
    def test_exits_1(self, tmp_path, capsys, argv, doc, message):
        if doc is not None:
            flag = "--config" if argv[0] == "simulate" else "--state"
            argv = argv + [flag, str(write_json(tmp_path, "in.json", doc))]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
