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
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("HYPERMOMENT_THREADS", "1")
        assert run(["hyperbolicity", "--scan", "f3=0:1:5", "--out", str(a)]) == 0
        monkeypatch.setenv("HYPERMOMENT_THREADS", "3")
        assert run(["hyperbolicity", "--scan", "f3=0:1:5", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


    @pytest.mark.parametrize("D,M", [(1, 5), (2, 4), (3, 4)])
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

    def test_rarefaction_endpoints_detected(self, tmp_path):
        left = state_from_json(json.dumps(HUGONIOT_RIGHT))
        fld = classify_field(left, float(he_roots(3)[2]))
        right = rarefaction_curve(left, fld, 0.25)
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
        assert abs(hits[0]["zeta"] - 0.25) < 1e-12
        assert len(doc["table"]["rarefaction"]) == 1
        assert doc["table"]["rarefaction"][0]["ok"] is True

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

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("HYPERMOMENT_THREADS", "zero")
        assert run(["hyperbolicity", "--scan", "f3=0:1:2"]) == 1
        monkeypatch.setenv("HYPERMOMENT_THREADS", "0")
        assert run(["hyperbolicity", "--scan", "f3=0:1:2"]) == 1


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

        tols = (0.0, 1e-9, 1e-3, 0.05, 0.5)
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

    def test_no_reference_without_possible_hits(self, monkeypatch, tmp_path):
        calls = self._count_reference(monkeypatch)
        out = tmp_path / "conj.csv"
        assert run(["conjecture", "--n-max", "200", "--out", str(out)]) == 0
        assert calls == []
        assert out.read_bytes() == (GOLDEN / "conjecture_empty.csv").read_bytes()

    def test_reference_rows_when_hits_possible(self, monkeypatch, tmp_path):
        (want,), _ = self._reference(8, (0.5,))
        calls = self._count_reference(monkeypatch)
        out = tmp_path / "conj.csv"
        assert run(["conjecture", "--n-max", "8", "--tol", "0.5", "--out", str(out)]) == 2
        assert calls == [8]
        head, rows = read_rows(out)
        assert head == ["m", "n", "root", "distance"]
        assert want and rows == [[str(m), str(n), repr(r), repr(d)] for m, n, r, d in want]


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
        "argv,doc,threads,message",
        [
            (["simulate"], {k: v for k, v in sim_config().items() if k != "left"}, None,
             "config is missing required field 'left'"),
            (["simulate"], sim_config(grid={"x_min": 0.0}), None, "grid is missing required field 'nx'"),
            (["simulate"], sim_config(left=[1]), None, "left state must be a JSON object"),
            (["simulate"], sim_config(right={"D": 2, "rho": 1.0, "u": [0.0], "p": [[1.0]]}), None,
             "right state dimensions must match the config (D=1, M=2)"),
            (["spectrum", "--dir", "1,0,0"], D2_STATE, None, "direction needs 2 components, got 3"),
            (["hyperbolicity", "--scan", "f3=0:1:0"], None, None, "scan needs at least one step, got 0"),
            (["hyperbolicity", "--scan", "f3=0:1:2"], None, "0", "HYPERMOMENT_THREADS must be >= 1, got 0"),
            (["spectrum"], {"D": 1, "M": 3, "u": [0.3], "p": [[0.5]], "f": {}}, None,
             "state JSON missing field 'rho'"),
        ],
        ids=["no-left", "no-nx", "left-list", "right-dims", "dir-size", "scan-steps", "threads-0", "no-rho"],
    )
    def test_exits_1(self, tmp_path, capsys, monkeypatch, argv, doc, threads, message):
        monkeypatch.delenv("HYPERMOMENT_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("HYPERMOMENT_THREADS", threads)
        if doc is not None:
            flag = "--config" if argv[0] == "simulate" else "--state"
            argv = argv + [flag, str(write_json(tmp_path, "in.json", doc))]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
