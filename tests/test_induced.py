import numpy as np
import pytest

from orbitstates import groups, induced, states


def _sorted_pairs(f):
    sup = np.atleast_2d(f.support.reshape(len(f.values), -1))
    order = np.lexsort(sup.T[::-1])
    return sup[order], f.values[order]


def _sections_equal(f, g, tol=1e-12):
    sf, vf = _sorted_pairs(f)
    sg, vg = _sorted_pairs(g)
    return sf.shape == sg.shape and np.max(np.abs(sf - sg)) < 1e-9 \
        and np.max(np.abs(vf - vg)) < tol


def _rand_heis(rng, n=1):
    return list(rng.uniform(-2, 2, (n, 3)))


# ---------------------------------------------------------------------------
# counting actions on the line and plane

@pytest.mark.parametrize("row,t", [("a", 0.0), ("b", 0.0), ("c", 0.7),
                                   ("d", 0.0)])
def test_action_preserves_norm(row, t):
    rng = np.random.default_rng(1)
    if row == "d":
        support = rng.uniform(-2, 2, (5, 2))
    else:
        support = rng.uniform(-2, 2, 5)
    vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    f = induced.SectionVector(support, vals)
    act = induced.HeisenbergRow(row, t=t)
    for g in _rand_heis(rng, 10):
        assert abs(act.apply(g, f).norm() - f.norm()) < 1e-12


@pytest.mark.parametrize("row,t", [("a", 0.0), ("b", 0.0), ("c", 0.7),
                                   ("d", 0.0)])
def test_action_is_a_homomorphism(row, t):
    rng = np.random.default_rng(2)
    if row == "d":
        support = rng.uniform(-2, 2, (4, 2))
    else:
        support = rng.uniform(-2, 2, 4)
    vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = induced.SectionVector(support, vals)
    act = induced.HeisenbergRow(row, t=t)
    for _ in range(10):
        g, h = _rand_heis(rng, 2)
        two_step = act.apply(g, act.apply(h, f))
        one_step = act.apply(groups.compose_coords("heisenberg", g, h), f)
        assert _sections_equal(two_step, one_step, tol=1e-10)


def test_delta_cyclic_vectors_reproduce_the_localized_states():
    rng = np.random.default_rng(3)
    gs = _rand_heis(rng, 60) + [np.array([0.3, 0.0, -1.2]),
                                np.array([0.3, 1.1, 0.0])]
    cases = [
        ("a", 0.0, induced.delta_section([1.3]),
         states.make_state("heisenberg_loc_p", k=1.3)),
        ("b", 0.0, induced.delta_section([0.8]),
         states.make_state("heisenberg_loc_q", l=0.8)),
        ("c", 0.4, induced.delta_section([0.9]),
         states.make_state("heisenberg_loc_t", k=0.0, l=0.9, t=0.4)),
        # the time-t row only sees k*t + l, so a sharp-momentum labelling
        # of the same delta must give identical coefficients
        ("c", 0.4, induced.delta_section([0.9]),
         states.make_state("heisenberg_loc_t", k=0.5, l=0.9 - 0.5 * 0.4,
                           t=0.4)),
        ("d", 0.0, induced.delta_section([[0.0, 0.0]]),
         states.make_state("heisenberg_center")),
    ]
    for row, t, f, st in cases:
        act = induced.HeisenbergRow(row, t=t)
        for g in gs:
            got = induced.matrix_coefficient(act, f, g)
            assert abs(got - states.evaluate(st, g)) < 1e-12, (row, g)


def test_plane_delta_away_from_origin_still_gives_center():
    act = induced.HeisenbergRow("d")
    f = induced.delta_section([[1.7, -2.4]])
    st = states.make_state("heisenberg_center")
    rng = np.random.default_rng(4)
    for g in _rand_heis(rng, 30) + [np.array([0.5, 0, 0])]:
        assert abs(induced.matrix_coefficient(act, f, g)
                   - states.evaluate(st, g)) < 1e-12


def test_inner_pairs_translated_points_on_one_key():
    f = induced.SectionVector([0.3, 1.0], [0.6, 0.8])
    act = induced.HeisenbergRow("a")
    out = act.apply(np.array([0.0, 0.7, 0.0]), f)   # 0.3 -> 1
    assert abs(induced.inner(f, out) - 0.48) < 1e-15


def test_inner_sums_every_pair_on_one_key():
    # two points within one grid cell are one point, whose value is the
    # sum: 0.6 + 0.8j of modulus 1, and 0.6 + 0.8 = 1.4
    f = induced.SectionVector([0.0, 0.4e-9], [0.6, 0.8j])
    assert abs(induced.inner(f, f) - 1.0) < 1e-15
    assert abs(f.norm() - 1.0) < 1e-15
    f = induced.SectionVector([0.0, 0.4e-9], [0.6, 0.8])
    assert abs(induced.inner(f, f) - 1.96) < 1e-15
    assert abs(f.norm() - 1.4) < 1e-15


@pytest.mark.parametrize("act,f", [
    (induced.HeisenbergRow("a"), induced.delta_section([1.3])),
    (induced.HeisenbergRow("b"), induced.delta_section([0.8])),
    (induced.HeisenbergRow("c", t=0.4), induced.delta_section([0.9])),
    (induced.HeisenbergRow("d"), induced.delta_section([[0.0, 0.0]])),
    (induced.HeisenbergRow("a"),
     induced.SectionVector([0.0, 1.0, 2.0], [0.6, 0.0, 0.8j]))])
def test_stacked_heisenberg_coefficients_equal_per_element(act, f):
    rng = np.random.default_rng(10)
    G = rng.uniform(-2, 2, (6, 3))
    G[:3, 1] = [1.0, -1.0, 2.0]                # shifts onto the support
    one = np.array([induced.matrix_coefficient(act, f, x) for x in G])
    assert np.array_equal(induced.matrix_coefficient(act, f, G), one)
    assert np.array_equal(
        induced.matrix_coefficient(act, f, G.reshape(3, 2, 3)),
        one.reshape(3, 2))


def test_stacked_euclid_coefficients_equal_per_element():
    rng = np.random.default_rng(11)
    G = groups.random_elements("euclid", rng, 6)
    act = induced.EuclidAction(2.0)
    for f, tol in [(induced.delta_section(np.array([[0.0, 0.0, 1.0]])), 1e-14),
                   (induced.constant_section(8, 16), 0.0)]:
        one = np.array([induced.matrix_coefficient(act, f, G[i])
                        for i in range(6)])
        flat = induced.matrix_coefficient(act, f, G)
        grid = induced.matrix_coefficient(act, f, G.reshape(3, 2, 12))
        assert flat.shape == (6,) and grid.shape == (3, 2)
        assert np.max(np.abs(flat - one)) <= tol
        assert np.max(np.abs(grid - one.reshape(3, 2))) <= tol


# ---------------------------------------------------------------------------
# sphere action

def test_sphere_grid_weights_and_exactness():
    pts, w = induced.sphere_grid(64, 128)
    assert abs(np.sum(w) - 1.0) < 1e-14
    z = pts[:, 2]
    assert abs(np.sum(w * z)) < 1e-14
    assert abs(np.sum(w * z ** 2) - 1.0 / 3.0) < 1e-13
    assert abs(np.sum(w * z ** 4) - 1.0 / 5.0) < 1e-13
    assert abs(np.sum(w * pts[:, 0] ** 2) - 1.0 / 3.0) < 1e-13
    assert abs(np.sum(w * pts[:, 0] * pts[:, 1])) < 1e-13


def test_quadrature_coefficient_matches_spherical_state():
    k = 2.0
    act = induced.EuclidAction(k)
    f = induced.constant_section()
    st = states.make_state("euclid_spherical", k=k)
    rng = np.random.default_rng(5)
    for g in groups.random_elements("euclid", rng, 25):
        got = induced.matrix_coefficient(act, f, g)
        assert abs(got - states.evaluate(st, g)) < 1e-8


def test_counting_delta_on_pole_gives_plane_wave_state():
    k = 2.0
    act = induced.EuclidAction(k)
    f = induced.delta_section(np.array([[0.0, 0.0, 1.0]]))
    st = states.make_state("euclid_plane", k=k, s=0)
    rng = np.random.default_rng(6)
    gs = list(groups.random_elements("euclid", rng, 25))
    th = 0.77
    Rz = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0],
                   [0, 0, 1.0]])
    gs.append(groups.euclid_coords(Rz, np.array([0.4, -0.2, 1.5])))
    for g in gs:
        got = induced.matrix_coefficient(act, f, g)
        assert abs(got - states.evaluate(st, g)) < 1e-12


def test_counting_mode_requires_unit_support():
    act = induced.EuclidAction(1.0)
    f = induced.delta_section(np.array([[0.0, 0.0, 2.0]]))
    with pytest.raises(ValueError):
        act.apply(groups.exp_coords("euclid", np.zeros(6)), f)


def test_matrix_coefficient_requires_unit_norm():
    act = induced.HeisenbergRow("a")
    f = induced.SectionVector([0.0], [2.0])
    with pytest.raises(ValueError):
        induced.matrix_coefficient(act, f, np.zeros(3))


def test_inner_mode_mismatch():
    f = induced.delta_section([0.0])
    g = induced.constant_section(8, 16)
    with pytest.raises(ValueError):
        induced.inner(f, g)


def test_inner_refuses_sections_on_different_grids():
    # a one-node grid used to broadcast silently: (f, g) read 1+0j
    f = induced.constant_section(8, 16)
    for g, m in [(induced.constant_section(1, 1), 1),
                 (induced.constant_section(4, 8), 32),
                 (induced.constant_section(16, 8), 128)]:
        for a, b, sizes in [(f, g, (128, m)), (g, f, (m, 128))]:
            with pytest.raises(ValueError, match=r"different grids \(%d and "
                               r"%d nodes\)" % sizes):
                induced.inner(a, b)


def test_quadrature_section_without_evaluator_must_be_constant():
    pts, w = induced.sphere_grid(8, 16)
    with pytest.raises(ValueError, match="rotation-invariant"):
        induced.SectionVector(pts, pts[:, 2], mode="quadrature", weights=w)


def test_quadrature_action_takes_one_element():
    act, f = induced.EuclidAction(1.0), induced.constant_section(8, 16)
    for n in (2, 3):
        G = groups.random_elements("euclid", np.random.default_rng(n), n)
        with pytest.raises(ValueError, match="one element"):
            act.apply(G, f)


def test_quadrature_coefficient_needs_the_sphere_action():
    with pytest.raises(ValueError, match="sphere action"):
        induced.matrix_coefficient(induced.HeisenbergRow("a"),
                                   induced.constant_section(8, 16),
                                   np.zeros(3))


def test_constant_section_is_neither_rotated_nor_rebuilt(monkeypatch):
    # a rotation-invariant section's coefficient reads only the translation:
    # the rotation blocks may be anything, and no section is built per element
    rng = np.random.default_rng(12)
    G = groups.random_elements("euclid", rng, 5)
    act, f = induced.EuclidAction(1.5), induced.constant_section()
    want = induced.matrix_coefficient(act, f, G)
    monkeypatch.setattr(induced, "SectionVector", None)
    monkeypatch.setattr(induced.EuclidAction, "apply", None)
    H = G.copy()
    H[:, :9] = np.nan
    assert induced.matrix_coefficient(act, f, H).tobytes() == want.tobytes()


def _dipole_section(n_theta=64, n_phi=128):
    """f(v) = sqrt(3) v_z, of unit norm on the sphere."""
    pts, w = induced.sphere_grid(n_theta, n_phi)
    def evaluator(v):
        return np.sqrt(3.0) * v[..., 2]
    return induced.SectionVector(pts, evaluator(pts), mode="quadrature",
                                 weights=w, evaluator=evaluator)


def test_dipole_section_action_composes_on_the_grid():
    f = _dipole_section()
    assert abs(f.norm() - 1.0) <= 1.5e-15
    act = induced.EuclidAction(1.7)
    rng = np.random.default_rng(13)
    for _ in range(5):
        g, h = groups.random_elements("euclid", rng, 2)
        two_step = act.apply(g, act.apply(h, f))
        one_step = act.apply(groups.compose_coords("euclid", g, h), f)
        assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-12
        assert abs(two_step.norm() - 1.0) <= 1e-14


def test_dipole_section_coefficients_match_the_quadrature_sum():
    k = 1.7
    f = _dipole_section()
    v, w = f.support, f.weights
    G = groups.random_elements("euclid", np.random.default_rng(14), 8)
    got = induced.matrix_coefficient(induced.EuclidAction(k), f, G)
    A, c = groups.euclid_parts(G)
    for i in range(len(G)):
        # f(A^T v) at each grid point, and the plane wave e^{i<v, kc>}
        rotated = np.sqrt(3.0) * (v @ A[i])[:, 2]
        want = np.sum(w * np.conj(f.values) * rotated
                      * np.exp(1j * (v @ (k * c[i]))))
        assert abs(got[i] - want) <= 1e-14


def test_stacked_dipole_coefficients_equal_per_element():
    f = _dipole_section(8, 16)
    G = groups.random_elements("euclid", np.random.default_rng(15), 6)
    act = induced.EuclidAction(2.0)
    one = np.array([induced.matrix_coefficient(act, f, G[i])
                    for i in range(6)])
    assert induced.matrix_coefficient(act, f, G).tobytes() == one.tobytes()
    assert induced.matrix_coefficient(act, f, G.reshape(3, 2, 12)).tobytes() \
        == one.reshape(3, 2).tobytes()
