"""The batched fan curves of the genuinely nonlinear fields.

Oracle: the per-field path. Every curve of the top family through one state
comes from one sheared assembly (riemann._fan_curves); it must give the same
bits as rarefaction_curve on each field alone, and the riemann report must
keep the per-field endpoints and error strings.
"""

import json
import math

import numpy as np
import pytest

from hypermoment import riemann as riemann_mod
from hypermoment.cli import run
from hypermoment.riemann import _fan_curves, _field_eigenvector, classify_field, rarefaction_curve
from hypermoment.spectral import unit_spectrum
from hypermoment.state import _packing, state_to_json

from helpers import random_state


def _gn_fields(st):
    fields = [classify_field(st, L.value) for L in unit_spectrum(st.D, st.M)]
    return [f for f in fields if f.genuinely_nonlinear]


@pytest.mark.parametrize("D,M", [(1, 6), (2, 4), (3, 4)])
@pytest.mark.parametrize("zeta", [-0.3, 0.3])
def test_batch_equals_per_field_curves(D, M, zeta):
    st = random_state(np.random.default_rng(7 * D + M), D, M, scale=0.02)
    fields = _gn_fields(st)
    got = _fan_curves(st, fields, zeta)
    want = np.stack([rarefaction_curve(st, f, zeta).w for f in fields])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("D,M", [(1, 6), (2, 4), (3, 4)])
def test_eigenvector_of_root_array_equals_scalar_calls(D, M):
    rng = np.random.default_rng(D + M)
    st = random_state(rng, D, M, scale=0.02)
    fields = _gn_fields(st)
    roots = np.array([f.C for f in fields])
    free = _packing(D, M).free
    W = np.stack([st.w, st.w])  # rows of one theta_11, as the fan batch stacks them
    W[1, free] = random_state(rng, D, M, scale=0.02).w[free]
    for w in (st.w, W):
        got = _field_eigenvector(w, D, M, fields[0], roots)
        want = np.stack([_field_eigenvector(w, D, M, fields[0], r) for r in roots])
        assert got.shape == (len(roots),) + w.shape
        assert got.tobytes() == want.tobytes()


def test_one_eigenvector_call_per_batch(monkeypatch):
    st = random_state(np.random.default_rng(5), 2, 4, scale=0.02)
    fields = _gn_fields(st)
    calls = []
    real = riemann_mod._field_eigenvector

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(riemann_mod, "_field_eigenvector", counted)
    _fan_curves(st, fields, 0.2)
    assert len(calls) == 1 and np.shape(calls[0][4]) == (len(fields),)


def _expected_rows(left, right, tol=1e-8):
    """The rarefaction section built field by field, as the report did
    before its batch."""
    rows = []
    zeta = float(np.log(right.rho / left.rho))
    scale = max(1.0, float(np.max(np.abs(right.w))))
    for C in (L.value for L in unit_spectrum(left.D, left.M)):
        fld = classify_field(left, C)
        if not fld.genuinely_nonlinear:
            continue
        row = {"C": C, "zeta": zeta}
        try:
            end = rarefaction_curve(left, fld, zeta)
            row["max_mismatch"] = float(np.max(np.abs(end.w - right.w))) / scale
            row["ok"] = bool(row["max_mismatch"] <= tol)
        except (ValueError, RuntimeError) as e:
            row["ok"] = False
            row["error"] = str(e)
        rows.append(row)
    return rows


def _report(tmp_path, left, right):
    lf, rf, dst = tmp_path / "l.json", tmp_path / "r.json", tmp_path / "wave.json"
    lf.write_text(state_to_json(left))
    rf.write_text(state_to_json(right))
    assert run(["riemann", "--left", str(lf), "--right", str(rf), "--out", str(dst)]) == 0
    return json.loads(dst.read_text())


def test_failed_batch_keeps_per_field_errors(tmp_path):
    left = random_state(np.random.default_rng(0), 2, 4, scale=0.02).replace(u=np.zeros(2))
    right = left.replace(rho=left.rho * math.exp(90))
    rows = _report(tmp_path, left, right)["rarefactions"]
    assert rows == json.loads(json.dumps(_expected_rows(left, right)))
    errors = [r["error"] for r in rows]
    assert errors[0] == errors[-1] and errors[0].startswith("coefficient (3, 0) must be finite")
    assert all(e.startswith("pressure tensor is not positive definite") for e in errors[1:-1])


def test_report_endpoints_equal_per_field_curves(tmp_path):
    left = random_state(np.random.default_rng(3), 2, 4, scale=0.02)
    right = rarefaction_curve(left, _gn_fields(left)[-1], 0.2)
    rows = _report(tmp_path, left, right)["rarefactions"]
    assert rows == json.loads(json.dumps(_expected_rows(left, right)))
    assert [r["ok"] for r in rows] == [False, False, False, True]
