"""The Gaussian-moment conversions and relaxation targets against the dense
moment-table route of reference_moments.py.

Both routes compute the same integrals, so they agree to round-off: here to
1e-12 of the largest entry of each row, over D = 1..3 and M = 2..7 and on
states whose scale tensor is close to singular.
"""

import numpy as np
import pytest

from helpers import random_state
from reference_moments import (
    reference_collision_coeffs,
    reference_from_conserved,
    reference_moment_table,
    reference_to_conserved,
)

import hypermoment.state as state_mod
from hypermoment.index import IndexSet, order
from hypermoment.state import (
    CollisionModel,
    MomentState,
    collision_coeffs,
    collision_coeffs_batch,
    from_conserved,
    from_conserved_batch,
    moment_table,
    to_conserved,
    to_conserved_batch,
)

MODELS = [
    CollisionModel(nu=1.0),
    CollisionModel(nu=1.0, kind="es-bgk", Pr=2.0 / 3.0),
    CollisionModel(nu=1.0, kind="es-bgk", Pr=2.0),
]


def edge_state(rng, D, M, ratio=1e-6, scale=0.1):
    """Admissible state whose scale tensor has its smallest eigenvalue at
    `ratio` times its trace, in a random orientation."""
    Q, _ = np.linalg.qr(rng.normal(size=(D, D)))
    lam = 0.5 + rng.random(D)
    lam[0] = ratio * lam[1:].sum() / (1.0 - ratio)
    rho = 0.5 + rng.random()
    p = rho * (Q * lam) @ Q.T
    f = {a: scale * rng.normal() for a in IndexSet(D, M).indices if order(a) >= 3}
    return MomentState(D=D, M=M, rho=rho, u=rng.normal(size=D), p=0.5 * (p + p.T), f=f)


def assert_rows_close(got, want, rtol=1e-12):
    err = np.max(np.abs(got - want), axis=-1)
    scale = np.max(np.abs(want), axis=-1)
    assert np.all(err <= rtol * scale), float(np.max(err / scale))


def check_against_reference(states):
    D, M = states[0].D, states[0].M
    W = np.array([s.w for s in states])
    F = reference_to_conserved(W, D, M)
    assert_rows_close(to_conserved_batch(W, D, M), F)
    assert_rows_close(from_conserved_batch(F, D, M), reference_from_conserved(F, D, M))
    for model in MODELS:
        assert_rows_close(
            collision_coeffs_batch(W, D, M, model), reference_collision_coeffs(W, D, M, model)
        )
    T = np.array([s.theta_tensor for s in states])
    s = IndexSet(D, M)
    assert_rows_close(
        moment_table(T, s).reshape(len(states), -1),
        reference_moment_table(T, s).reshape(len(states), -1),
    )


@pytest.mark.parametrize("M", range(2, 8))
@pytest.mark.parametrize("D", [1, 2, 3])
def test_agrees_with_dense_moment_table(D, M):
    rng = np.random.default_rng(100 * D + M)
    check_against_reference([random_state(rng, D, M, scale=0.1) for _ in range(4)])


@pytest.mark.parametrize("D, M", [(2, 6), (3, 6)])
def test_agrees_near_admissibility_edge(D, M):
    rng = np.random.default_rng(7 + D)
    states = [edge_state(rng, D, M) for _ in range(4)]
    for s in states:
        lo = np.linalg.eigvalsh(s.theta_tensor)[0]
        assert lo == pytest.approx(1e-6 * np.trace(s.theta_tensor), rel=1e-6)
    check_against_reference(states)


def test_bgk_target_in_one_dimension_is_the_density():
    # D = 1 BGK relaxes to the Gaussian the basis is built on: Lambda = Theta
    st = random_state(np.random.default_rng(3), 1, 6)
    G = collision_coeffs(st, CollisionModel(nu=1.0))
    expect = np.zeros(st.index_set.N)
    expect[0] = st.rho
    np.testing.assert_array_equal(G, expect)


def test_kernels_do_not_build_the_moment_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("moment_table called")

    monkeypatch.setattr(state_mod, "moment_table", forbidden)
    st = random_state(np.random.default_rng(5), 2, 5)
    from_conserved(to_conserved(st))
    for model in MODELS:
        collision_coeffs(st, model)
