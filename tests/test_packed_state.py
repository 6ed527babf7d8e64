"""A MomentState is its packed row w: rho, u, p and f are read back from w,
one helper (_check_rows) tests a packed row's admissibility, and malformed
coefficient input is rejected where it enters."""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermoment.assembly import assemble, regularize
from hypermoment.cli import run
from hypermoment.hermite import AnisotropicBasis
from hypermoment.index import IndexSet, order
from hypermoment.state import (
    AdmissibilityError,
    MomentState,
    _check_rows,
    _packing,
    _unpack,
    equilibrium,
    state_from_doc,
    state_from_json,
    state_to_json,
)

from helpers import random_state

_DOC = {"D": 1, "M": 3, "rho": 1.0, "u": [0.0], "p": [[1.0]]}


@st.composite
def _inputs(draw):
    """Fields of an admissible state whose p has its lower triangle moved
    within the symmetry tolerance and whose free coefficients include +-0.0."""
    D = draw(st.integers(1, 3))
    M = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(D, D))
    p = A @ A.T + D * np.eye(D)
    for i, j in zip(*np.tril_indices(D, -1)):
        tol = 1e-12 + 1e-10 * min(abs(p[i, j]), abs(p[j, i]))
        p[i, j] += draw(st.floats(-0.5, 0.5)) * tol
    value = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))
    f = {a: draw(value) for a in IndexSet(D, M).indices if order(a) >= 3}
    return D, M, 0.5 + rng.random(), rng.normal(size=D), p, f


@settings(max_examples=150, deadline=None)
@given(_inputs())
@example((2, 3, 1.0, np.zeros(2), np.array([[1.0, 0.3], [0.3 + 2e-11, 1.0]]), {(3, 0): -0.0}))
def test_state_is_its_packed_row(args):
    D, M, rho, u, p, f = args
    s = MomentState(D=D, M=M, rho=rho, u=u, p=p, f=f)
    assert np.array_equal(s.p, s.p.T)
    assert s.p.tobytes() == _unpack(s.w[None], D, M)[2][0].tobytes()
    t = _packing(D, M)
    assert s.f == {a: v for a, v in zip(t.free_alphas, s.w[t.free].tolist()) if v != 0.0}
    assert MomentState.from_w(D, M, s.w).w.tobytes() == s.w.tobytes()
    assert state_from_json(state_to_json(s)).w.tobytes() == s.w.tobytes()
    assert isinstance(s.basis, AnisotropicBasis)


class TestOneCopy:
    def test_asymmetric_p_reads_as_its_upper_triangle(self):
        s = MomentState(D=2, M=3, rho=1, u=[0, 0], p=[[1, 0.3], [0.3 + 2e-11, 1]], f={})
        assert s.p[1, 0] == s.p[0, 1] == 0.3
        assert np.array_equal(MomentState.from_w(2, 3, s.w).p, s.p)
        assert json.loads(state_to_json(s))["p"] == [[1.0, 0.3], [0.3, 1.0]]

    def test_asymmetry_past_the_tolerance_is_rejected(self):
        with pytest.raises(AdmissibilityError, match="pressure tensor must be symmetric"):
            MomentState(D=2, M=3, rho=1, u=[0, 0], p=[[1, 0.3], [0.31, 1]], f={})

    def test_fields_are_read_only(self):
        s = random_state(np.random.default_rng(2), 2, 4)
        for a in (s.w, s.u, s.p):
            assert not a.flags.writeable

    def test_signed_zero_stays_in_w_not_in_f(self):
        s = MomentState(D=1, M=4, rho=1.0, u=[0.0], p=[[1.0]], f={(3,): -0.0, (4,): 0.5})
        assert s.f == {(4,): 0.5}
        assert np.signbit(s.w[3]) and s.f_value((3,)) == 0.0
        assert json.loads(state_to_json(s))["f"] == {"3": -0.0, "4": 0.5}


class TestCheckRows:
    def test_names_the_lowest_failing_row(self):
        W = np.tile(equilibrium(2, 3, 1.0, [0, 0], np.eye(2)).w, (4, 1))
        _check_rows(W, 2, 3)
        W[2, 0] = -1.0
        W[3, 1] = np.nan
        with pytest.raises(AdmissibilityError, match="density") as err:
            _check_rows(W, 2, 3)
        assert err.value.cell == 2

    def test_indefinite_pressure(self):
        W = equilibrium(2, 3, 1.0, [0, 0], np.eye(2)).w[None].copy()
        W[0, _packing(2, 3).pair[0, 1]] = 2.0
        with pytest.raises(AdmissibilityError, match="pressure tensor is not positive definite"):
            _check_rows(W, 2, 3)

    def test_field_checks_keep_their_messages(self):
        cases = [
            (dict(rho=float("nan")), "density must be finite"),
            (dict(rho=0.0), "density must be positive"),
            (dict(u=[np.inf]), "velocity must be finite"),
            (dict(f={(3,): np.nan}), r"coefficient \(3,\) must be finite"),
            (dict(p=[[np.nan]]), "pressure tensor has non-finite entries"),
            (dict(p=[[-1.0]]), "pressure tensor is not positive definite"),
        ]
        for kw, msg in cases:
            fields = dict(D=1, M=3, rho=1.0, u=[0.0], p=[[1.0]], f={})
            fields.update(kw)
            with pytest.raises(AdmissibilityError, match=msg):
                MomentState(**fields)

    def test_from_w_rejects_a_non_finite_vector(self):
        w = equilibrium(1, 3, 1.0, [0.0], [[1.0]]).w.copy()
        w[3] = np.inf
        with pytest.raises(AdmissibilityError, match="finite"):
            MomentState.from_w(1, 3, w)

    def test_equilibrium_reports_the_pressure_tensor(self):
        with pytest.raises(AdmissibilityError, match="pressure tensor is not positive definite"):
            equilibrium(2, 3, 1.0, [0, 0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(AdmissibilityError, match="density must be positive"):
            equilibrium(1, 3, -1.0, [0.0], [[1.0]])


class TestCoefficientInput:
    @pytest.mark.parametrize("keys", [("3", "03"), ("3", " 3")])
    def test_json_duplicate_index(self, keys):
        doc = dict(_DOC, f={keys[0]: 0.1, keys[1]: 0.2})
        with pytest.raises(ValueError, match=r"'f' index \(3,\) is given twice"):
            state_from_doc(doc)

    def test_constructor_duplicate_index(self):
        with pytest.raises(ValueError, match=r"\(3,\) is given twice"):
            MomentState(D=1, M=3, rho=1.0, u=[0.0], p=[[1.0]], f={("3",): 0.1, (3,): 0.2})

    @pytest.mark.parametrize("key", ["a", "3.0", ""])
    def test_json_malformed_index_names_the_field(self, key):
        with pytest.raises(ValueError, match=f"'f' index '{key}' must be integers"):
            state_from_doc(dict(_DOC, f={key: 0.1}))

    def test_wrong_sizes_name_the_field(self):
        with pytest.raises(ValueError, match="velocity u must have 1 entries"):
            state_from_doc(dict(_DOC, u=[0.0, 0.0]))
        with pytest.raises(ValueError, match="pressure tensor p must have 2x2 entries"):
            state_from_doc(dict(_DOC, D=2, u=[0.0, 0.0], p=[[1.0, 0.0]]))

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        src = tmp_path / "dup.json"
        src.write_text(json.dumps(dict(_DOC, f={"3": 0.1, "03": 0.2})))
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--state", str(src), "--out", str(out)]) == 1
        assert "(3,)" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("regularized", [False, True])
def test_assemble_command_is_one_regularized_pass(tmp_path, regularized):
    s = random_state(np.random.default_rng(7), 2, 4)
    src = tmp_path / "s.json"
    src.write_text(state_to_json(s))
    out = tmp_path / "A.csv"
    argv = ["assemble", "--state", str(src), "--dir", "2", "--out", str(out)]
    assert run(argv + ["--regularized"] * regularized) == 0
    with open(out, newline="") as fh:
        got = np.array([[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]])
    mat = assemble(s, 2)
    want = regularize(mat, s).entries if regularized else mat.entries
    assert got.tobytes() == want.tobytes()


class TestIndexAndShapeInput:
    """Coefficient indices are whole numbers or plain decimal strings, and a
    ragged u or p is reported by its field name."""

    def test_non_whole_entry_is_rejected(self):
        with pytest.raises(ValueError, match=r"'f' index \(3.5,\) must be integers"):
            MomentState(D=1, M=3, rho=1.0, u=[0.0], p=[[1.0]], f={(3.5,): 0.1})

    def test_whole_float_entry_keeps_its_meaning(self):
        st = MomentState(D=1, M=3, rho=1.0, u=[0.0], p=[[1.0]], f={(3.0,): 0.1})
        assert st.f == {(3,): 0.1}

    @pytest.mark.parametrize("key", ["0_3", "3 ", "+3", "3\n"])
    def test_loose_json_key_is_rejected(self, key):
        with pytest.raises(ValueError, match=re.escape(f"'f' index {key!r} must be integers")):
            state_from_doc(dict(_DOC, f={key: 0.1}))

    def test_loose_json_key_exits_1(self, tmp_path, capsys):
        src = tmp_path / "loose.json"
        src.write_text(json.dumps(dict(_DOC, f={"0_3": 0.1})))
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--state", str(src), "--out", str(out)]) == 1
        assert "'0_3'" in capsys.readouterr().err
        assert not out.exists()

    def test_space_after_comma_is_read(self):
        doc = dict(_DOC, D=2, u=[0.0, 0.0], p=[[1.0, 0.0], [0.0, 1.0]], f={"2, 1": 0.1})
        assert state_from_doc(doc).f == {(2, 1): 0.1}

    @pytest.mark.parametrize(
        "field,value,name",
        [("p", [[1.0, 0.0], [0.0]], "pressure tensor p"), ("u", [[0.0], 0.0], "velocity u")],
    )
    def test_ragged_input_names_the_field(self, field, value, name):
        doc = dict(_DOC, D=2, u=[0.0, 0.0], p=[[1.0, 0.0], [0.0, 1.0]])
        doc[field] = value
        with pytest.raises(ValueError, match=f"^{name} must be numbers in rows of equal length$"):
            state_from_doc(doc)
