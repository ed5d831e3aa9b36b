import numpy as np
import pytest

from orbitstates import gns, groups, states

CLOSED = [
    ("heisenberg_loc_p", dict(k=1.3)),
    ("heisenberg_loc_q", dict(l=0.8)),
    ("euclid_plane", dict(k=2.0, s=1)),
    ("su2_highest_weight", dict(j=1.5)),
]


def _space(kind, params, n=16, seed=0):
    st = states.make_state(kind, **params)
    samples, probes = gns.closed_sample_set(st, n=n, seed=seed)
    return st, gns.build(st, samples), probes


# ---------------------------------------------------------------------------
# construction on closed sample sets

@pytest.mark.parametrize("kind,params", CLOSED)
def test_closed_sets_have_identity_first_and_full_rank(kind, params):
    st, space, probes = _space(kind, params)
    assert space.rank >= 2
    # delta-type closed sets diagonalize exactly (Gram = I);
    # the quaternion set for the spin state quotients to the 2j+1 <= irrep
    if kind != "su2_highest_weight":
        assert np.max(np.abs(space.gram.entries - np.eye(space.gram.n))) \
            < 1e-12
        assert space.rank == space.gram.n


def test_su2_half_spin_closed_set_carries_the_two_dim_irrep():
    st, space, probes = _space("su2_highest_weight", dict(j=0.5))
    assert space.gram.n == 8
    assert space.rank == 2


@pytest.mark.parametrize("kind,params", CLOSED)
def test_probe_actions_are_isometric(kind, params):
    st, space, probes = _space(kind, params)
    for g in probes:
        R, residual = gns.rep_matrix(space, g)
        assert residual < 1e-12, kind
        assert np.max(np.abs(R.conj().T @ R - np.eye(space.rank))) < 1e-9


@pytest.mark.parametrize("kind,params", CLOSED)
def test_rep_matrix_on_a_stack_matches_each_element(kind, params):
    st, space, probes = _space(kind, params)
    # the first six probes as a (2, 3) stack
    gs = probes[:6].reshape((2, 3, -1))
    R, residuals = gns.rep_matrix(space, gs)
    coefficients = gns.coefficient(space, gs)
    assert R.shape == (2, 3, space.rank, space.rank)
    assert residuals.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            Rij, res = gns.rep_matrix(space, gs[i, j])
            assert np.array_equal(R[i, j], Rij)
            assert residuals[i, j] == res
            assert coefficients[i, j] == gns.coefficient(space, gs[i, j])


@pytest.mark.parametrize("kind,params", CLOSED)
def test_probe_homomorphism(kind, params):
    st, space, probes = _space(kind, params)
    rng = np.random.default_rng(2)
    idx = rng.integers(0, len(probes), size=(10, 2))
    for i, jj in idx:
        g, h = probes[i], probes[jj]
        Rg, _ = gns.rep_matrix(space, g)
        Rh, _ = gns.rep_matrix(space, h)
        Rgh, res = gns.rep_matrix(space,
                                  groups.compose_coords(st.family, g, h))
        assert res < 1e-12
        assert np.max(np.abs(Rgh - Rg @ Rh)) < 1e-9, kind


@pytest.mark.parametrize("kind,params", CLOSED)
def test_coefficient_recovery(kind, params):
    """<m_e, pi(g) m_e> equals the state value, on probes and at random g."""
    st, space, probes = _space(kind, params)
    rng = np.random.default_rng(3)
    gs = list(probes) + list(groups.random_elements(st.family, rng, 20))
    for g in gs:
        got = gns.coefficient(space, g)
        assert abs(got - states.evaluate(st, g)) < 1e-9, kind


@pytest.mark.parametrize("kind,params", CLOSED)
def test_reproducing_identity(kind, params):
    st, space, probes = _space(kind, params)
    rng = np.random.default_rng(4)
    cs = [rng.standard_normal(space.gram.n)
          + 1j * rng.standard_normal(space.gram.n) for _ in range(6)]
    assert gns.reproducing_check(space, cs) < 1e-10


# ---------------------------------------------------------------------------
# spectral structure of the finite representations

def test_loc_p_translations_act_as_characters_on_cyclic_vector():
    st, space, probes = _space("heisenberg_loc_p", dict(k=1.3))
    a, c = np.random.default_rng(5).uniform(-3, 3, (10, 2)).T
    hs = np.column_stack([a, np.zeros_like(a), c])
    chi = [np.exp(1j * (1.3 * h[2] - h[0])) for h in hs]
    assert gns.eigenvector_check(space, hs, chi) < 1e-9


def test_loc_p_probe_commutant_is_diagonal_algebra():
    # probes act diagonally on the b-indexed basis, so their commutant is
    # everything diagonal: dimension n
    st, space, probes = _space("heisenberg_loc_p", dict(k=1.3), n=8)
    assert gns.commutant_dim(space, probes) == 8


def test_su2_half_spin_commutant_is_scalars():
    st, space, probes = _space("su2_highest_weight", dict(j=0.5))
    assert gns.commutant_dim(space, probes) == 1


def test_commutant_rejects_lossy_generators():
    st, space, probes = _space("heisenberg_loc_p", dict(k=1.3))
    # a b-translation off the sampled lattice escapes the span entirely
    bad = np.array([0.0, 10.5, 0.0])
    with pytest.raises(gns.ResidualError):
        gns.commutant_dim(space, bad[None])


# ---------------------------------------------------------------------------
# guard rails

def test_build_requires_identity_first():
    st = states.make_state("heisenberg_loc_p", k=1.0)
    with pytest.raises(ValueError):
        gns.build(st, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    # a rotation by 1e-6: w is 1 to 1e-12, the axis part is not
    spin = states.make_state("su2_highest_weight", j=1.0)
    with pytest.raises(ValueError):
        gns.build(spin, groups.check_coords("su2", np.array(
            [[np.cos(5e-7), np.sin(5e-7), 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])))


def test_build_rejects_non_state():
    bad = states.make_state(
        "custom", family="heisenberg",
        evaluator=lambda g: 1.0 if abs(g[1]) < 1e-9 else -1.0)
    samples = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    with pytest.raises(gns.NotAStateError):
        gns.build(bad, samples)


def test_euclid_closed_set_chains_past_the_renormalization():
    # the powers of the rotation by 2 pi / n are chained products,
    # re-orthonormalized every RENORM_EVERY-th one; at n = 200 they pass
    # that point three times and stay on exp(i Z) and in SO(3)
    st = states.make_state("euclid_plane", k=2.0, s=1)
    n = 200
    assert n > 3 * groups.RENORM_EVERY
    samples, probes = gns.closed_sample_set(st, n=n)
    Z = np.zeros(6)
    Z[:3] = 2.0 * np.pi / (n * np.sqrt(3.0))
    want = groups.exp_coords("euclid", np.arange(n)[:, None] * Z)
    assert samples.shape == (n, 12)
    assert np.abs(samples - want).max() <= 1e-12
    assert np.array_equal(probes[0], groups.exp_coords("euclid", Z))
    for row in samples:
        groups._check_euclid_rotation(groups.euclid_parts(row)[0])


def test_closed_sample_set_unsupported_kind():
    st = states.make_state("euclid_spherical", k=1.0)
    with pytest.raises(ValueError):
        gns.closed_sample_set(st)
