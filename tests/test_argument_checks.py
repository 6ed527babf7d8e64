"""Each argument check of the library layers raises its own message: an
out-of-range order, dimension, axis or shape is refused where it enters."""

import re

import numpy as np
import pytest

from hypermoment.assembly import assemble_batch, directional, regularize, structural_report
from hypermoment.hermite import AnisotropicBasis, ghe_table, he_eval, he_monic_eval, he_roots
from hypermoment.index import IndexSet, block_permutation, cardinality
from hypermoment.inputs import join_vector_values
from hypermoment.spectral import find_nonhyperbolic_state
from hypermoment.state import MomentState, equilibrium


def _d2_state():
    return equilibrium(2, 3, 1.0, np.array([0.1, -0.2]), np.array([[1.0, 0.1], [0.1, 0.8]]))


def _oblique(regularized):
    st = _d2_state()
    return directional(st, np.array([0.6, 0.8]), regularized=regularized), st


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: assemble_batch(_d2_state().w[None], 2, 3, 3), ValueError, "direction must be in 1..2, got 3"),
        (lambda: regularize(*_oblique(False)), ValueError, "regularize needs a single-axis matrix"),
        (lambda: structural_report(_oblique(True)[0]), ValueError, "structural report needs a single-axis matrix"),
        (lambda: he_eval(-1, 1.0, 0.5), ValueError, "order must be >= 0, got -1"),
        (lambda: he_monic_eval(2, 0.0, 0.5), ValueError, "scale must be positive, got 0.0"),
        (lambda: he_monic_eval(-1, 1.0, 0.5), ValueError, "order must be >= 0, got -1"),
        (lambda: he_roots(0), ValueError, "order must be >= 1, got 0"),
        (lambda: AnisotropicBasis(np.ones((2, 3))), ValueError, "scale tensor must be square"),
        (lambda: ghe_table(AnisotropicBasis(np.eye(2)), np.zeros((4, 3)), 3), ValueError,
         "points must have last axis 2"),
        (lambda: cardinality(0, 3), ValueError, "dimension must be >= 1, got 0"),
        (lambda: cardinality(2, -1), ValueError, "max order must be >= 0, got -1"),
        (lambda: IndexSet(2, 1), ValueError, "max order must be >= 2, got 1"),
        (lambda: block_permutation(IndexSet(2, 3), axis=3), ValueError, "axis must be in 1..2, got 3"),
        (lambda: find_nonhyperbolic_state(1, 2), ValueError, "need order M >= 3, got 2"),
        (lambda: find_nonhyperbolic_state(1, 3, max_doublings=0), RuntimeError,
         "no complex eigenvalue found for D=1, M=3 with top coefficient up to 0.05"),
        (lambda: MomentState(D=2, M=3, rho=1.0, u=np.zeros(2), p=np.eye(2), f={(3,): 0.1}), ValueError,
         "bad coefficient index (3,)"),
        (lambda: MomentState.from_w(1, 3, np.ones(3)), ValueError, "state vector must have length 4, got (3,)"),
    ],
    ids=[
        "assemble-axis", "regularize-oblique", "report-oblique", "he-order", "monic-scale", "monic-order",
        "roots-order-0", "basis-not-square", "ghe-points", "cardinality-D", "cardinality-M", "index-set-M",
        "permutation-axis", "nonhyperbolic-M2", "nonhyperbolic-no-doublings", "f-index-length", "from-w-length",
    ],
)
def test_rejects(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_dir_join_keeps_a_word():
    # only a number list after --dir is joined to it; a word stays a token
    assert join_vector_values(["--dir", "-x"]) == ["--dir", "-x"]
    assert join_vector_values(["--dir", "-0.6,0.8"]) == ["--dir=-0.6,0.8"]
