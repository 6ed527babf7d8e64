"""A MomentState is its packed row w: rho, u, p and f are read back from w,
one helper (_check_rows) tests a packed row's admissibility, and malformed
coefficient input is rejected where it enters."""

import csv
import json
import re
from pathlib import Path

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
    _pack,
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


# -- one-pass construction against the packed reference ------------------------

_PART = re.compile(r" *-?[0-9]+")


def _reference_part(a) -> int:
    if isinstance(a, str):
        if not _PART.fullmatch(a):
            raise ValueError(a)
        return int(a)
    i = int(a)
    if i != a:
        raise ValueError(a)
    return i


def _reference_fields(D, M, rho, u, p, f):
    """(w, u, p, rho, f) of a state built through the packed rows: checks
    field by field, keys matched part by part, then _pack, _check_rows on
    the packed row and _unpack."""
    rho = float(rho)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    if u.size != D:
        raise ValueError(f"velocity u must have {D} entries, got {u.size}")
    if p.size != D * D:
        raise ValueError(f"pressure tensor p must have {D}x{D} entries, got {p.size}")
    p = p.reshape(D, D)
    coeffs = {}
    for key, val in f.items():
        try:
            alpha = tuple(map(_reference_part, key.split(",") if isinstance(key, str) else key))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"'f' index {key!r} must be integers") from None
        if len(alpha) != D or any(a < 0 for a in alpha):
            raise ValueError(f"bad coefficient index {alpha}")
        if not 3 <= order(alpha) <= M:
            raise ValueError(f"free coefficients live at orders 3..{M}, got {alpha}")
        if alpha in coeffs:
            raise ValueError(f"'f' index {alpha} is given twice")
        coeffs[alpha] = float(val)
    if not np.isfinite(rho):
        raise AdmissibilityError(f"density must be finite, got {rho}")
    if rho <= 0:
        raise AdmissibilityError(f"density must be positive, got {rho}")
    if not np.isfinite(u).all():
        raise AdmissibilityError(f"velocity must be finite, got {u.ravel().tolist()}")
    for alpha, val in coeffs.items():
        if not np.isfinite(val):
            raise AdmissibilityError(f"coefficient {alpha} must be finite, got {val}")
    if not np.isfinite(p).all():
        raise AdmissibilityError("pressure tensor has non-finite entries")
    if not np.allclose(p, p.T, rtol=1e-10, atol=1e-12):
        raise AdmissibilityError("pressure tensor must be symmetric")
    t = _packing(D, M)
    fvec = np.zeros((1, t.N))
    for alpha, val in coeffs.items():
        fvec[0, IndexSet(D, M).indices.index(alpha)] = val
    W = _pack(rho, u.reshape(1, D), p[None], fvec, D, M)
    _check_rows(W, D, M)
    r, uu, pp = _unpack(W, D, M)
    fw = {a: v for a, v in zip(t.free_alphas, W[0, t.free].tolist()) if v}
    return W[0], uu[0], pp[0], float(r[0]), fw


def _bits(w, u, p, rho, f):
    return (
        w.tobytes(), w.shape, u.tobytes(), u.shape, p.tobytes(), p.shape,
        np.float64(rho).tobytes(), [(a, np.float64(v).tobytes()) for a, v in f.items()],
    )


def _outcome(build):
    """The bits of the fields a build returns, or its exception's type,
    message, .cell and .eigenvalue."""
    try:
        out = build()
    except (ValueError, TypeError) as e:
        return type(e), str(e), getattr(e, "cell", None), repr(getattr(e, "eigenvalue", None))
    if isinstance(out, MomentState):
        assert not (out.w.flags.writeable or out.u.flags.writeable or out.p.flags.writeable)
        out = (out.w, out.u, out.p, out.rho, out.f)
    return _bits(*out)


_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e300, 1.7e308, -1.7e308)


def _extreme_fields(rng, D, M):
    """Fields of an admissible state with signed zeros and entries from the
    subnormal to the largest floats."""
    def value():
        if rng.random() < 0.4:
            return float(rng.choice(_EXTREMES))
        return float(rng.normal() * 10.0 ** rng.uniform(-300, 300))

    rho = float(10.0 ** rng.uniform(-300, 300))
    if rng.random() < 0.3:
        rho = float(rng.choice([5e-324, 1e-300, 1.0, 1.7e308]))
    A = rng.normal(size=(D, D))
    p = 10.0 ** rng.uniform(-310, 300) * (A @ A.T + D * np.eye(D))
    if rng.random() < 0.3:  # signed zeros off the diagonal
        p = np.where(np.eye(D, dtype=bool), p, np.copysign(0.0, rng.normal(size=(D, D))))
    f = {a: value() for a in IndexSet(D, M).indices if order(a) >= 3 and rng.random() < 0.8}
    return rho, [value() for _ in range(D)], p.tolist(), f


def _doc(D, M, rho, u, p, f, sep=","):
    return {"D": D, "M": M, "rho": rho, "u": u, "p": p, "f": {sep.join(map(str, a)): v for a, v in f.items()}}


class TestOnePassConstruction:
    """MomentState writes its packed row once and checks its pressure tensor
    once; every field and every exception is that of the packed reference."""

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_random_states_match_the_reference(self, D, M):
        rng = np.random.default_rng(100 * D + M)
        base = random_state(rng, D, M)
        built = 0
        for i in range(40):
            rho, u, p, f = _extreme_fields(rng, D, M)
            want = _outcome(lambda: _reference_fields(D, M, rho, u, p, f))
            assert _outcome(lambda: MomentState(D=D, M=M, rho=rho, u=u, p=p, f=f)) == want
            assert _outcome(lambda: base.replace(rho=rho, u=u, p=p, f=f)) == want
            doc = _doc(D, M, rho, u, p, f, sep=", " if i % 2 else ",")
            want_doc = _outcome(lambda: _reference_fields(D, M, rho, u, p, doc["f"]))
            assert _outcome(lambda: state_from_doc(doc)) == want_doc
            if isinstance(want[0], bytes):
                built += 1
                w = np.frombuffer(want[0])
                _, wu, wp = _unpack(w[None], D, M)
                t = _packing(D, M)
                fw = dict(zip(t.free_alphas, w[t.free].tolist()))
                assert _outcome(lambda: MomentState.from_w(D, M, w)) == _outcome(
                    lambda: _reference_fields(D, M, w[0], wu[0], wp[0], fw)
                )
        assert built >= 10

    def test_golden_states_match_the_reference(self):
        golden = Path(__file__).parent / "golden"
        docs = [json.loads((golden / "state_d1m3.json").read_text())]
        for name in ("simulate_d1m6_tube.json", "simulate_d2m4_esbgk.json"):
            cfg = json.loads((golden / name).read_text())
            docs += [dict(cfg[side], D=cfg["D"], M=cfg["M"]) for side in ("left", "right")]
        for doc in docs:
            fields = doc["D"], doc["M"], doc["rho"], doc["u"], doc["p"], doc.get("f", {})
            assert _outcome(lambda: state_from_doc(doc)) == _outcome(lambda: _reference_fields(*fields))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_raise_as_the_reference(self, bad):
        D, M = 2, 4
        rho, u, p = 1.3, [0.2, -0.1], [[1.0, 0.1], [0.1, 0.8]]
        f = {(3, 0): 0.02, (1, 2): -0.01}
        cases = [
            (bad, u, p, f),
            (rho, [0.2, bad], p, f),
            (rho, u, p, {(3, 0): 0.02, (1, 2): bad}),
            (rho, u, [[bad, 0.1], [0.1, 0.8]], f),
            (rho, u, [[1.0, bad], [bad, 0.8]], f),
        ]
        for fields in cases:
            want = _outcome(lambda: _reference_fields(D, M, *fields))
            assert want[0] is AdmissibilityError
            kw = dict(zip(("rho", "u", "p", "f"), fields))
            assert _outcome(lambda: MomentState(D=D, M=M, **kw)) == want
            doc = _doc(D, M, *fields)
            assert _outcome(lambda: state_from_doc(doc)) == want

    def test_asymmetric_and_indefinite_pressure_as_the_reference(self):
        # within the symmetry tolerance, past it, indefinite, negative
        pressures = (
            [[1.0, 0.3], [0.3 + 2e-11, 1.0]],
            [[1.0, 0.3], [0.31, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 0.0], [0.0, -1e-300]],
        )
        for p, ok in zip(pressures, (True, False, False, False)):
            want = _outcome(lambda: _reference_fields(2, 3, 1.0, [0.0, 0.0], p, {}))
            assert (want[0] is not AdmissibilityError) == ok
            assert _outcome(lambda: MomentState(D=2, M=3, rho=1.0, u=[0.0, 0.0], p=p, f={})) == want

    @pytest.mark.parametrize("key", ["3 ,0", "3,,0", "", "+3,0", "3, 0", " 3,0", "3,-0"])
    def test_keys_parse_as_the_reference(self, key):
        doc = _doc(2, 4, 1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], {})
        doc["f"] = {key: 0.1}
        want = _outcome(lambda: _reference_fields(2, 4, 1.0, [0.0, 0.0], doc["p"], doc["f"]))
        assert _outcome(lambda: state_from_doc(doc)) == want
        assert _outcome(lambda: MomentState(D=2, M=4, rho=1.0, u=[0.0, 0.0], p=doc["p"], f=doc["f"])) == want
