import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

import oracles
from orbitstates import groups

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

coord = st_.floats(-3.0, 3.0, allow_nan=False)
triple = st_.tuples(coord, coord, coord)
quad = st_.tuples(coord, coord, coord, coord)


# ---------------------------------------------------------------------------
# composition against the matrix models

@given(triple, triple)
def test_heisenberg_compose_matches_matrix_model(x, y):
    got = groups.compose(groups.heisenberg(*x), groups.heisenberg(*y)).data
    want = oracles.heis_coords(oracles.heis_mat(*x) @ oracles.heis_mat(*y))
    assert np.allclose(got, want, atol=1e-12)


@given(quad, quad)
def test_bargmann_compose_matches_matrix_model(x, y):
    got = groups.compose(groups.bargmann(*x), groups.bargmann(*y)).data
    want = oracles.barg_coords(oracles.barg_mat(*x) @ oracles.barg_mat(*y))
    assert np.allclose(got, want, atol=1e-12)


def test_euclid_compose_matches_homogeneous_matrices():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = groups.euclid(oracles.random_rotation(rng), rng.uniform(-3, 3, 3))
        h = groups.euclid(oracles.random_rotation(rng), rng.uniform(-3, 3, 3))
        gh = groups.compose(g, h)
        M = oracles.se3_mat(*groups.euclid_parts(g.data)) \
            @ oracles.se3_mat(*groups.euclid_parts(h.data))
        assert np.allclose(oracles.se3_mat(*groups.euclid_parts(gh.data)), M,
                           atol=1e-12)


def test_su2_compose_is_the_two_by_two_product():
    rng = np.random.default_rng(8)
    for _ in range(60):
        p = oracles.random_unit_quaternion(rng)
        q = oracles.random_unit_quaternion(rng)
        got = oracles.su2_mat(
            groups.compose(groups.su2(*p), groups.su2(*q)).data)
        assert np.allclose(got, oracles.su2_mat(p) @ oracles.su2_mat(q),
                           atol=1e-12)


@given(st_.sampled_from(["heisenberg", "bargmann", "torus"]), triple, triple,
       triple)
def test_associativity_vector_families(family, x, y, z):
    if family == "bargmann":
        mk = lambda v: groups.bargmann(v[0], v[1], v[2], 0.5)
    elif family == "torus":
        mk = lambda v: groups.torus(v)
    else:
        mk = lambda v: groups.heisenberg(*v)
    g, h, k = mk(x), mk(y), mk(z)
    a = groups.compose(groups.compose(g, h), k)
    b = groups.compose(g, groups.compose(h, k))
    assert np.allclose(a.data, b.data, atol=1e-10)


@given(st_.sampled_from(["heisenberg", "bargmann", "euclid", "su2", "torus"]),
       st_.integers(0, 10 ** 6))
def test_inverse_cancels(family, seed):
    rng = np.random.default_rng(seed)
    g = groups.random_elements(family, rng, 1)[0]
    e = groups.compose(g, groups.inverse(g))
    if family == "euclid":
        A, c = groups.euclid_parts(e.data)
        assert np.abs(A - np.eye(3)).max() < 1e-12
        assert np.abs(c).max() < 1e-12
    elif family == "su2":
        assert abs(abs(e.data[0]) - 1.0) < 1e-12
    elif family == "torus":
        ang = np.mod(e.data + np.pi, 2 * np.pi) - np.pi
        assert np.abs(ang).max() < 1e-9
    else:
        assert np.abs(e.data).max() < 1e-12


# ---------------------------------------------------------------------------
# exp

@given(triple)
def test_heisenberg_exp_matches_expm(z):
    got = groups.exp(groups.algebra("heisenberg", z)).data
    assert np.allclose(got, oracles.group_exp("heisenberg", z), atol=1e-12)


@given(quad)
def test_bargmann_exp_matches_expm(z):
    got = groups.exp(groups.algebra("bargmann", z)).data
    assert np.allclose(got, oracles.group_exp("bargmann", z), atol=1e-11)


def test_euclid_exp_matches_expm():
    from scipy.linalg import expm
    rng = np.random.default_rng(5)
    for _ in range(40):
        axis = rng.uniform(-2.5, 2.5, 3)
        rate = rng.uniform(-3, 3, 3)
        g = groups.exp(groups.algebra("euclid", np.concatenate([axis, rate])))
        M = expm(oracles.se3_alg(axis, rate))
        assert np.allclose(oracles.se3_mat(*groups.euclid_parts(g.data)), M,
                           atol=1e-10)


def test_su2_exp_matches_matrix_exponential():
    from scipy.linalg import expm
    rng = np.random.default_rng(6)
    for _ in range(40):
        v = rng.uniform(-2.5, 2.5, 3)
        got = oracles.su2_mat(groups.exp(groups.algebra("su2", v)).data)
        # chart: exp(v) = (cos(|v|/2), sin(|v|/2) vhat), so the 2x2 model is
        # expm of -i (v.sigma) / 2
        H = v[0] * oracles.SIGMA[0] + v[1] * oracles.SIGMA[1] \
            + v[2] * oracles.SIGMA[2]
        assert np.allclose(got, expm(-0.5j * H), atol=1e-12)


# ---------------------------------------------------------------------------
# bracket / adjoint / coadjoint

def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(13)
    for _ in range(40):
        z = rng.uniform(-2, 2, 4)
        w = rng.uniform(-2, 2, 4)
        got = groups.bracket(groups.algebra("bargmann", z),
                             groups.algebra("bargmann", w)).coords
        A, B = oracles.barg_alg(*z), oracles.barg_alg(*w)
        C = A @ B - B @ A
        assert np.allclose(got, [C[0, 3], C[0, 1], C[1, 3], C[2, 3]],
                           atol=1e-12)
        ze = rng.uniform(-2, 2, 6)
        we = rng.uniform(-2, 2, 6)
        got = groups.bracket(groups.algebra("euclid", ze),
                             groups.algebra("euclid", we)).coords
        A = oracles.se3_alg(ze[:3], ze[3:])
        B = oracles.se3_alg(we[:3], we[3:])
        C = A @ B - B @ A
        want = np.concatenate([[C[2, 1], C[0, 2], C[1, 0]], C[:3, 3]])
        assert np.allclose(got, want, atol=1e-12)


def test_su2_bracket_is_cross_product_scaled():
    # [v, w] = v x w in this chart; the 2x2 commutator of -i v.sigma / 2
    # matrices reproduces it
    rng = np.random.default_rng(14)
    for _ in range(20):
        v, w = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        got = groups.bracket(groups.algebra("su2", v),
                             groups.algebra("su2", w)).coords
        assert np.allclose(got, np.cross(v, w), atol=1e-12)


def test_adjoint_matches_matrix_conjugation():
    rng = np.random.default_rng(15)
    for _ in range(30):
        g = rng.uniform(-2, 2, 4)
        z = rng.uniform(-2, 2, 4)
        got = groups.adjoint(groups.bargmann(*g),
                             groups.algebra("bargmann", z)).coords
        M = oracles.barg_mat(*g)
        C = M @ oracles.barg_alg(*z) @ np.linalg.inv(M)
        assert np.allclose(got, [C[0, 3], C[0, 1], C[1, 3], C[2, 3]],
                           atol=1e-10)
        A = oracles.random_rotation(rng)
        c = rng.uniform(-2, 2, 3)
        ze = rng.uniform(-2, 2, 6)
        got = groups.adjoint(groups.euclid(A, c),
                             groups.algebra("euclid", ze)).coords
        M = oracles.se3_mat(A, c)
        C = M @ oracles.se3_alg(ze[:3], ze[3:]) @ np.linalg.inv(M)
        want = np.concatenate([[C[2, 1], C[0, 2], C[1, 0]], C[:3, 3]])
        assert np.allclose(got, want, atol=1e-10)


@given(st_.sampled_from(["heisenberg", "bargmann", "euclid", "su2"]),
       st_.integers(0, 10 ** 6))
def test_coadjoint_is_dual_to_adjoint(family, seed):
    rng = np.random.default_rng(seed)
    g = groups.random_elements(family, rng, 1)[0]
    dims = {"heisenberg": 3, "bargmann": 4, "euclid": 6, "su2": 3}
    w = groups.covector(family, rng.uniform(-2, 2, dims[family]))
    z = groups.algebra(family, rng.uniform(-2, 2, dims[family]))
    lhs = groups.pairing(groups.coadjoint(g, w), z)
    rhs = groups.pairing(w, groups.adjoint(groups.inverse(g), z))
    assert abs(lhs - rhs) < 1e-9


def test_heisenberg_coadjoint_closed_form():
    g = groups.heisenberg(0.7, 1.1, -0.4)
    w = groups.covector("heisenberg", [2.0, 0.3, -1.5])
    out = groups.coadjoint(g, w).coords
    assert np.allclose(out, [2.0, 0.3 + 2.0 * 1.1, -1.5 + 2.0 * (-0.4)],
                       atol=1e-12)


def test_adjoint_of_exp_is_exp_of_bracket_series():
    # Ad(exp Z) W = W + [Z, W] + [Z,[Z,W]]/2 + ... (nilpotent: exact)
    rng = np.random.default_rng(16)
    for _ in range(20):
        z = rng.uniform(-2, 2, 4)
        w = rng.uniform(-2, 2, 4)
        Z = groups.algebra("bargmann", z)
        W = groups.algebra("bargmann", w)
        acc = np.array(w, dtype=float)
        term = W
        fact = 1.0
        for n in range(1, 4):
            term = groups.bracket(Z, term)
            fact *= n
            acc = acc + term.coords / fact
        got = groups.adjoint(groups.exp(Z), W).coords
        assert np.allclose(got, acc, atol=1e-10)


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_stacked_adjoint_and_bracket_match_the_element_calls(family):
    # on a stack of n rows and on an (n, 1) x (1, m) broadcast, row by row
    rng = np.random.default_rng(17)
    dim = groups.ALGEBRA_DIM.get(family, 2)
    gs = groups.random_elements(family, rng, 5, dim=dim)
    Z, W = rng.uniform(-2, 2, (2, 5, dim))
    alg = [groups.algebra(family, z) for z in Z]
    ad = groups.adjoint_coords(family, gs.data, Z)
    br = groups.bracket_coords(family, Z, W)
    for i in range(5):
        assert np.array_equal(ad[i], groups.adjoint(gs[i], alg[i]).coords)
        assert np.array_equal(br[i], groups.bracket(
            alg[i], groups.algebra(family, W[i])).coords)
    ad = groups.adjoint_coords(family, gs.data[:, None], W[None, :3])
    br = groups.bracket_coords(family, Z[:, None], W[None, :3])
    assert ad.shape == br.shape == (5, 3, dim)
    for i in range(5):
        for j in range(3):
            w = groups.algebra(family, W[j])
            assert np.array_equal(ad[i, j], groups.adjoint(gs[i], w).coords)
            assert np.array_equal(br[i, j], groups.bracket(alg[i], w).coords)


def test_commuting_detects_brackets():
    a = groups.algebra("heisenberg", [0.0, 1.0, 0.0])
    b = groups.algebra("heisenberg", [0.0, 0.0, 1.0])
    c = groups.algebra("heisenberg", [1.0, 0.0, 0.0])
    assert not groups.commuting([a, b])
    assert groups.commuting([a, c])
    assert groups.commuting([a])


def test_pairing_closed_forms():
    w = groups.covector("heisenberg", [2.0, 3.0, 5.0])
    z = groups.algebra("heisenberg", [0.5, -1.0, 2.0])
    # p*gamma - q*beta - M*alpha
    assert abs(groups.pairing(w, z) - (3.0 * 2.0 - 5.0 * (-1.0) - 2.0 * 0.5)) \
        < 1e-15
    w = groups.covector("bargmann", [2.0, 3.0, 5.0, 7.0])
    z = groups.algebra("bargmann", [0.5, -1.0, 2.0, 0.25])
    assert abs(groups.pairing(w, z)
               - (3.0 * 2.0 - 5.0 * (-1.0) - 7.0 * 0.25 - 2.0 * 0.5)) < 1e-15
    w = groups.covector("euclid", [1, 2, 3, 4, 5, 6])
    z = groups.algebra("euclid", [6, 5, 4, 3, 2, 1])
    assert abs(groups.pairing(w, z) - (6 + 10 + 12 + 12 + 10 + 6)) < 1e-12


# ---------------------------------------------------------------------------
# sampling helpers

def test_random_elements_shapes_and_rotations():
    rng = np.random.default_rng(18)
    for family in ("heisenberg", "bargmann", "euclid", "su2", "torus"):
        gs = groups.random_elements(family, rng, 300)
        assert len(gs) == 300
        for g in gs:
            assert g.family == family
            if family == "euclid":
                A, _ = groups.euclid_parts(g.data)
                assert np.abs(A @ A.T - np.eye(3)).max() < 1e-12
                assert abs(np.linalg.det(A) - 1.0) < 1e-12
            if family == "su2":
                assert abs(np.linalg.norm(g.data) - 1.0) < 1e-12


def _draw_one(family, rng, scale, dim):
    """One element the way a per-element loop draws it."""
    if family == "heisenberg":
        return groups.heisenberg(*rng.uniform(-scale, scale, 3)).data
    if family == "bargmann":
        return groups.bargmann(*rng.uniform(-scale, scale, 4)).data
    if family == "torus":
        return groups.torus(rng.uniform(0, 2 * np.pi, dim)).data
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return groups.su2(*q).data


@pytest.mark.parametrize("family", ["heisenberg", "bargmann", "su2", "torus"])
def test_random_elements_draw_what_a_per_element_loop_draws(family):
    # one stack per call consumes the stream as count single draws did
    for count, scale, dim in ((1, 3.0, 1), (9, 0.5, 3), (40, 3.0, 2)):
        gs = groups.random_elements(family, np.random.default_rng(count),
                                    count, scale=scale, dim=dim)
        rng = np.random.default_rng(count)
        want = np.array([_draw_one(family, rng, scale, dim)
                         for _ in range(count)])
        got = gs.data
        if family == "su2":
            assert np.abs(got - want).max() <= 1e-15
        else:
            assert np.array_equal(got, want)


def test_stack_checks_reject_one_bad_block():
    X = groups.random_elements("euclid", np.random.default_rng(4), 50).data
    groups.from_coords("euclid", X)
    A = groups.euclid_parts(X)[0]
    A[17, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        groups._check_euclid_rotation(A)
    with pytest.raises(ValueError):
        groups.from_coords("euclid", X)
    Q = groups.random_elements("su2", np.random.default_rng(5), 50).data
    Q[31] *= 1.001
    with pytest.raises(ValueError):
        groups.from_coords("su2", Q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_elements_are_rejected(bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ValueError):
        groups.euclid(A, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        groups.su2(bad, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        groups.su2(1.0, bad, 0.0, 0.0)
    # one non-finite block or quaternion inside a stack of good ones
    gs = groups.random_elements("euclid", np.random.default_rng(6), 20)
    groups.euclid_parts(gs.data)[0][11, 2, 0] = bad
    with pytest.raises(ValueError):
        groups.from_coords("euclid", gs.data)
    Q = groups.random_elements("su2", np.random.default_rng(7), 20).data
    Q[13, 0] = bad
    with pytest.raises(ValueError):
        groups.from_coords("su2", Q)


def test_reflections_are_rejected():
    flip = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="determinant"):
        groups.euclid(flip, [0.0, 0.0, 0.0])
    # an orthogonal block of determinant -1 inside a stack of rotations
    X = groups.random_elements("euclid", np.random.default_rng(8), 30).data
    A, c = groups.euclid_parts(X)
    A[19] = A[19] @ flip
    assert np.abs(A[19].T @ A[19] - np.eye(3)).max() < 1e-12
    with pytest.raises(ValueError, match="determinant"):
        groups.from_coords("euclid", X)
    with pytest.raises(ValueError, match="determinant"):
        groups.from_coords("euclid", X.reshape(5, 6, 12))
    with pytest.raises(ValueError, match="determinant"):
        groups.euclid(A.reshape(5, 6, 3, 3), c.reshape(5, 6, 3))


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_random_elements_are_one_indexable_stack(family):
    gs = groups.random_elements(family, np.random.default_rng(6), 9, dim=2)
    assert isinstance(gs, groups.GroupElement) and gs.family == family
    assert len(gs) == 9
    rows = gs.data
    for i in range(9):
        assert gs[i].family == family
        assert np.array_equal(gs[i].data, rows[i])
    assert [g.data.tolist() for g in gs] == rows.tolist()
    idx = np.array([7, 0, 7])
    assert np.array_equal(gs[idx].data, rows[idx])
    assert np.array_equal(gs[2:8:3].data, rows[2:8:3])
    one = gs[4]
    with pytest.raises(TypeError):
        len(one)
    with pytest.raises(TypeError):
        one[0]


@pytest.mark.parametrize("family", groups.FAMILIES)
@pytest.mark.parametrize("age", [0, groups.RENORM_EVERY - 1])
def test_compose_on_stacks_composes_row_by_row(family, age):
    # su2 rows are renormalized by their own norms, and at RENORM_EVERY
    # every euclid rotation block is re-orthonormalized on its own
    rng = np.random.default_rng(42)
    G = groups.GroupElement(family, groups.random_elements(
        family, rng, 6, dim=2).data, _age=age)
    H = groups.GroupElement(family, groups.random_elements(
        family, rng, 6, dim=2).data, _age=age)
    zipped = groups.compose(G, H)
    broadcast = groups.compose(G[0], H)
    assert len(zipped) == len(broadcast) == 6
    for i in range(6):
        want = groups.compose(G[i], H[i]).data
        assert np.abs(zipped[i].data - want).max() < 1e-12
        want = groups.compose(G[0], H[i]).data
        assert np.abs(broadcast[i].data - want).max() < 1e-12
    if family == "su2":
        norms = np.linalg.norm(zipped.data, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-15


def test_euclid_rejects_non_rotation():
    with pytest.raises(ValueError):
        groups.euclid(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        groups.su2(1.0, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the array law against the element law

ALGEBRA_DIM = {"heisenberg": 3, "bargmann": 4, "euclid": 6, "su2": 3,
               "torus": 2}


@pytest.mark.parametrize("family", sorted(ALGEBRA_DIM))
def test_compose_coords_matches_element_compose(family):
    rng = np.random.default_rng(40)
    gs = groups.random_elements(family, rng, 7, dim=2)
    hs = groups.random_elements(family, rng, 5, dim=2)
    X, Y = gs.data, hs.data
    hs2 = hs[np.array([0, 1, 2, 3, 4, 0, 1])]
    zipped = groups.compose_coords(family, X, hs2.data)
    for i, (g, h) in enumerate(zip(gs, hs2)):
        want = groups.compose(g, h).data
        assert np.abs(zipped[i] - want).max() < 1e-12
    table = groups.compose_coords(family, X[:, None], Y[None])
    for i, g in enumerate(gs):
        for j, h in enumerate(hs):
            want = groups.compose(g, h).data
            assert np.abs(table[i, j] - want).max() < 1e-12


@pytest.mark.parametrize("family", sorted(ALGEBRA_DIM))
def test_inverse_and_exp_coords_match_element_law(family):
    rng = np.random.default_rng(41)
    gs = groups.random_elements(family, rng, 6, dim=2)
    inv = groups.inverse_coords(family, gs.data)
    C = rng.uniform(-3, 3, (6, ALGEBRA_DIM[family]))
    C[0] = 0.0
    ex = groups.exp_coords(family, C)
    # the same stacks with two leading axes
    ex2 = groups.exp_coords(family, C.reshape(3, 2, -1))
    for i, g in enumerate(gs):
        assert np.abs(inv[i] - groups.inverse(g).data).max() < 1e-12
        want = groups.exp(groups.algebra(family, C[i])).data
        assert np.abs(ex[i] - want).max() < 1e-12
        assert np.abs(ex2[divmod(i, 2)] - want).max() < 1e-12


AXIS_SIZES = (0.0, 1e-9, 0.99e-4, 1.01e-4, 1.0, 3.0)


@pytest.mark.parametrize("size", AXIS_SIZES)
def test_euclid_exp_coords_matches_expm_across_series_switch(size):
    from scipy.linalg import expm
    rng = np.random.default_rng(42)
    axes = rng.standard_normal((16, 3))
    axes *= size / np.linalg.norm(axes, axis=1, keepdims=True)
    C = np.hstack([axes, rng.uniform(-3, 3, (16, 3))])
    A, c = groups.euclid_parts(groups.exp_coords("euclid", C))
    for i, row in enumerate(C):
        M = expm(oracles.se3_alg(row[:3], row[3:]))
        assert np.abs(oracles.se3_mat(A[i], c[i]) - M).max() < 1e-12


def test_euclid_exp_coords_translations_match_general_rows():
    # a pure-translation stack and the same rows among screws give the same
    # coordinates
    rng = np.random.default_rng(43)
    C = np.hstack([np.zeros((4, 3)), rng.uniform(-3, 3, (4, 3))])
    screws = np.vstack([C, rng.uniform(-3, 3, (4, 6))])
    X = groups.exp_coords("euclid", C)
    X2 = groups.exp_coords("euclid", screws)
    A, c = groups.euclid_parts(X)
    assert np.array_equal(A, np.broadcast_to(np.eye(3), (4, 3, 3)))
    assert np.array_equal(c, C[:, 3:])
    assert X.shape == X2[:4].shape == (4, 12)
    assert np.array_equal(X2[:4], X)


# ---------------------------------------------------------------------------
# the euclid layout: one array per stack, known to groups alone

def test_euclid_coords_and_parts_round_trip():
    rng = np.random.default_rng(44)
    A = np.array([oracles.random_rotation(rng) for _ in range(5)])
    c = rng.uniform(-3, 3, (5, 3))
    X = groups.euclid_coords(A, c)
    assert X.shape == (5, 12)
    A2, c2 = groups.euclid_parts(X)
    assert np.array_equal(A2, A) and np.array_equal(c2, c)
    assert np.shares_memory(A2, X) and np.shares_memory(c2, X)
    # an (n, 1) x (1, m) broadcast of rotation blocks against translations
    d = rng.uniform(-3, 3, (4, 3))
    Y = groups.euclid_coords(A[:, None], d[None])
    assert Y.shape == (5, 4, 12)
    A3, c3 = groups.euclid_parts(Y)
    for i in range(5):
        for j in range(4):
            assert np.array_equal(A3[i, j], A[i])
            assert np.array_equal(c3[i, j], d[j])
    assert np.array_equal(groups.euclid(A[:, None], d[None]).data, Y)


WIDTH = {"heisenberg": 3, "bargmann": 4, "euclid": 12, "su2": 4, "torus": 2}


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_every_element_and_stack_is_one_array(family):
    gs = groups.random_elements(family, np.random.default_rng(45), 4, dim=2)
    one = groups.identity(family, dim=2)
    made = [gs, gs[1], one, groups.compose(gs, gs), groups.inverse(gs),
            groups.compose(one, gs[2]),
            groups.exp(groups.algebra(family, np.ones(ALGEBRA_DIM[family])))]
    for g in made:
        assert isinstance(g.data, np.ndarray) and g.data.dtype == float
        assert g.data.shape[-1] == WIDTH[family]
    assert gs.data.shape == (4, WIDTH[family])
    assert one.data.shape == gs[1].data.shape == (WIDTH[family],)
    with pytest.raises(TypeError):
        len(one)


def _layout_reads(tree):
    """(line, what) for each slice bound of 9 and each reshape whose shape
    ends in (3, 3): the places that know where a euclid row splits."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Slice):
            if any(isinstance(b, ast.Constant) and b.value == 9
                   for b in (node.lower, node.upper)):
                found.append((node.lineno, "slice at 9"))
        elif isinstance(node, ast.Call) and "reshape" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            shapes = [node.args] + [t.elts for t in ast.walk(node)
                                    if isinstance(t, ast.Tuple)]
            if any([getattr(e, "value", None) for e in elts[-2:]] == [3, 3]
                   for elts in shapes):
                found.append((node.lineno, "reshape to (..., 3, 3)"))
    return found


def test_only_groups_knows_the_euclid_layout():
    # every other module reaches rotation blocks and translations through
    # groups.euclid_parts and builds stacks through groups.euclid_coords
    src = Path(groups.__file__).parent
    assert _layout_reads(ast.parse((src / "groups.py").read_text()))
    found = {path.name: _layout_reads(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py")) if path.name != "groups.py"}
    assert {name: f for name, f in found.items() if f} == {}
