import ast
import math
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


def _row(v):
    return np.array(v, dtype=float)


# ---------------------------------------------------------------------------
# composition against the matrix models

@given(triple, triple)
def test_heisenberg_compose_matches_matrix_model(x, y):
    got = groups.compose_coords("heisenberg", _row(x), _row(y))
    want = oracles.heis_coords(oracles.heis_mat(*x) @ oracles.heis_mat(*y))
    assert np.allclose(got, want, atol=1e-12)


@given(quad, quad)
def test_bargmann_compose_matches_matrix_model(x, y):
    got = groups.compose_coords("bargmann", _row(x), _row(y))
    want = oracles.barg_coords(oracles.barg_mat(*x) @ oracles.barg_mat(*y))
    assert np.allclose(got, want, atol=1e-12)


def _euclid(A, c):
    return groups.check_coords("euclid", groups.euclid_coords(A, c))


def test_euclid_compose_matches_homogeneous_matrices():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = _euclid(oracles.random_rotation(rng), rng.uniform(-3, 3, 3))
        h = _euclid(oracles.random_rotation(rng), rng.uniform(-3, 3, 3))
        gh = groups.compose_coords("euclid", g, h)
        M = oracles.se3_mat(*groups.euclid_parts(g)) \
            @ oracles.se3_mat(*groups.euclid_parts(h))
        assert np.allclose(oracles.se3_mat(*groups.euclid_parts(gh)), M,
                           atol=1e-12)


def test_su2_compose_is_the_two_by_two_product():
    rng = np.random.default_rng(8)
    for _ in range(60):
        p = oracles.random_unit_quaternion(rng)
        q = oracles.random_unit_quaternion(rng)
        got = oracles.su2_mat(groups.compose_coords(
            "su2", groups.check_coords("su2", p),
            groups.check_coords("su2", q)))
        assert np.allclose(got, oracles.su2_mat(p) @ oracles.su2_mat(q),
                           atol=1e-12)


@given(st_.sampled_from(["heisenberg", "bargmann", "torus"]), triple, triple,
       triple)
def test_associativity_vector_families(family, x, y, z):
    if family == "bargmann":
        mk = lambda v: _row([v[0], v[1], v[2], 0.5])
    elif family == "torus":
        mk = lambda v: np.mod(_row(v), 2 * np.pi)
    else:
        mk = _row
    g, h, k = mk(x), mk(y), mk(z)
    compose = lambda a, b: groups.compose_coords(family, a, b)
    a = compose(compose(g, h), k)
    b = compose(g, compose(h, k))
    assert np.allclose(a, b, atol=1e-10)


@given(st_.sampled_from(["heisenberg", "bargmann", "euclid", "su2", "torus"]),
       st_.integers(0, 10 ** 6))
def test_inverse_cancels(family, seed):
    rng = np.random.default_rng(seed)
    g = groups.random_elements(family, rng, 1)[0]
    e = groups.compose_coords(family, g, groups.inverse_coords(family, g))
    if family == "euclid":
        A, c = groups.euclid_parts(e)
        assert np.abs(A - np.eye(3)).max() < 1e-12
        assert np.abs(c).max() < 1e-12
    elif family == "su2":
        assert abs(abs(e[0]) - 1.0) < 1e-12
    elif family == "torus":
        ang = np.mod(e + np.pi, 2 * np.pi) - np.pi
        assert np.abs(ang).max() < 1e-9
    else:
        assert np.abs(e).max() < 1e-12


# ---------------------------------------------------------------------------
# exp

@given(triple)
def test_heisenberg_exp_matches_expm(z):
    got = groups.exp_coords("heisenberg", _row(z))
    assert np.allclose(got, oracles.group_exp("heisenberg", z), atol=1e-12)


@given(quad)
def test_bargmann_exp_matches_expm(z):
    got = groups.exp_coords("bargmann", _row(z))
    assert np.allclose(got, oracles.group_exp("bargmann", z), atol=1e-11)


def test_euclid_exp_matches_expm():
    from scipy.linalg import expm
    rng = np.random.default_rng(5)
    for _ in range(40):
        axis = rng.uniform(-2.5, 2.5, 3)
        rate = rng.uniform(-3, 3, 3)
        g = groups.exp_coords("euclid", np.concatenate([axis, rate]))
        M = expm(oracles.se3_alg(axis, rate))
        assert np.allclose(oracles.se3_mat(*groups.euclid_parts(g)), M,
                           atol=1e-10)


def test_su2_exp_matches_matrix_exponential():
    from scipy.linalg import expm
    rng = np.random.default_rng(6)
    for _ in range(40):
        v = rng.uniform(-2.5, 2.5, 3)
        got = oracles.su2_mat(groups.exp_coords("su2", v))
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
        got = groups.bracket_coords("bargmann", z, w)
        A, B = oracles.barg_alg(*z), oracles.barg_alg(*w)
        C = A @ B - B @ A
        assert np.allclose(got, [C[0, 3], C[0, 1], C[1, 3], C[2, 3]],
                           atol=1e-12)
        ze = rng.uniform(-2, 2, 6)
        we = rng.uniform(-2, 2, 6)
        got = groups.bracket_coords("euclid", ze, we)
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
        got = groups.bracket_coords("su2", v, w)
        assert np.allclose(got, np.cross(v, w), atol=1e-12)


def test_adjoint_matches_matrix_conjugation():
    rng = np.random.default_rng(15)
    for _ in range(30):
        g = rng.uniform(-2, 2, 4)
        z = rng.uniform(-2, 2, 4)
        got = groups.adjoint_coords("bargmann", g, z)
        M = oracles.barg_mat(*g)
        C = M @ oracles.barg_alg(*z) @ np.linalg.inv(M)
        assert np.allclose(got, [C[0, 3], C[0, 1], C[1, 3], C[2, 3]],
                           atol=1e-10)
        A = oracles.random_rotation(rng)
        c = rng.uniform(-2, 2, 3)
        ze = rng.uniform(-2, 2, 6)
        got = groups.adjoint_coords("euclid", _euclid(A, c), ze)
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
    w = rng.uniform(-2, 2, dims[family])
    z = rng.uniform(-2, 2, dims[family])
    lhs = groups.pairing_coords(family, groups.coadjoint_coords(family, g, w),
                                z)
    rhs = groups.pairing_coords(family, w, groups.adjoint_coords(
        family, groups.inverse_coords(family, g), z))
    assert abs(lhs - rhs) < 1e-9


def test_heisenberg_coadjoint_closed_form():
    g = _row([0.7, 1.1, -0.4])
    out = groups.coadjoint_coords("heisenberg", g, [2.0, 0.3, -1.5])
    assert np.allclose(out, [2.0, 0.3 + 2.0 * 1.1, -1.5 + 2.0 * (-0.4)],
                       atol=1e-12)


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_coadjoint_coords_on_stacks_match_row_calls(family):
    # on a stack of n rows and on an (n, 1) x (1, m) broadcast, row by row
    rng = np.random.default_rng(19)
    dim = groups.ALGEBRA_DIM.get(family, 2)
    gs = groups.random_elements(family, rng, 5, dim=dim)
    W = rng.uniform(-2, 2, (5, dim))
    zipped = groups.coadjoint_coords(family, gs, W)
    table = groups.coadjoint_coords(family, gs[:, None], W[None, :3])
    assert zipped.shape == (5, dim) and table.shape == (5, 3, dim)
    for i in range(5):
        assert np.array_equal(zipped[i],
                              groups.coadjoint_coords(family, gs[i], W[i]))
        for j in range(3):
            assert np.array_equal(table[i, j], groups.coadjoint_coords(
                family, gs[i], W[j]))


def test_adjoint_of_exp_is_exp_of_bracket_series():
    # Ad(exp Z) W = W + [Z, W] + [Z,[Z,W]]/2 + ... (nilpotent: exact)
    rng = np.random.default_rng(16)
    for _ in range(20):
        z = rng.uniform(-2, 2, 4)
        w = rng.uniform(-2, 2, 4)
        acc = np.array(w, dtype=float)
        term = w
        fact = 1.0
        for n in range(1, 4):
            term = groups.bracket_coords("bargmann", z, term)
            fact *= n
            acc = acc + term / fact
        got = groups.adjoint_coords("bargmann",
                                    groups.exp_coords("bargmann", z), w)
        assert np.allclose(got, acc, atol=1e-10)


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_stacked_adjoint_and_bracket_match_the_row_calls(family):
    # on a stack of n rows and on an (n, 1) x (1, m) broadcast, row by row
    rng = np.random.default_rng(17)
    dim = groups.ALGEBRA_DIM.get(family, 2)
    gs = groups.random_elements(family, rng, 5, dim=dim)
    Z, W = rng.uniform(-2, 2, (2, 5, dim))
    ad = groups.adjoint_coords(family, gs, Z)
    br = groups.bracket_coords(family, Z, W)
    for i in range(5):
        assert np.array_equal(ad[i], groups.adjoint_coords(family, gs[i],
                                                           Z[i]))
        assert np.array_equal(br[i], groups.bracket_coords(family, Z[i],
                                                           W[i]))
    ad = groups.adjoint_coords(family, gs[:, None], W[None, :3])
    br = groups.bracket_coords(family, Z[:, None], W[None, :3])
    assert ad.shape == br.shape == (5, 3, dim)
    for i in range(5):
        for j in range(3):
            assert np.array_equal(ad[i, j], groups.adjoint_coords(
                family, gs[i], W[j]))
            assert np.array_equal(br[i, j], groups.bracket_coords(
                family, Z[i], W[j]))


def test_commuting_detects_brackets():
    a, b, c = [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    assert not groups.commuting("heisenberg", [a, b])
    assert groups.commuting("heisenberg", [a, c])
    assert groups.commuting("heisenberg", [a])
    assert groups.commuting("heisenberg", np.empty((0, 3)))


def test_pairing_closed_forms():
    def pairing(family, w, z):
        return groups.pairing_coords(family, _row(w), _row(z))
    # p*gamma - q*beta - M*alpha
    assert abs(pairing("heisenberg", [2.0, 3.0, 5.0], [0.5, -1.0, 2.0])
               - (3.0 * 2.0 - 5.0 * (-1.0) - 2.0 * 0.5)) < 1e-15
    assert abs(pairing("bargmann", [2.0, 3.0, 5.0, 7.0],
                       [0.5, -1.0, 2.0, 0.25])
               - (3.0 * 2.0 - 5.0 * (-1.0) - 7.0 * 0.25 - 2.0 * 0.5)) < 1e-15
    assert abs(pairing("euclid", [1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
               - (6 + 10 + 12 + 12 + 10 + 6)) < 1e-12


# ---------------------------------------------------------------------------
# sampling helpers

WIDTH = {"heisenberg": 3, "bargmann": 4, "euclid": 12, "su2": 4, "torus": 2}


def test_random_elements_shapes_and_rotations():
    rng = np.random.default_rng(18)
    for family in ("heisenberg", "bargmann", "euclid", "su2", "torus"):
        gs = groups.random_elements(family, rng, 300, dim=2)
        assert isinstance(gs, np.ndarray) and gs.dtype == float
        assert gs.shape == (300, WIDTH[family])
        for g in gs:
            if family == "euclid":
                A, _ = groups.euclid_parts(g)
                assert np.abs(A @ A.T - np.eye(3)).max() < 1e-12
                assert abs(np.linalg.det(A) - 1.0) < 1e-12
            if family == "su2":
                assert abs(np.linalg.norm(g) - 1.0) < 1e-12


def _draw_one(family, rng, scale, dim):
    """One element the way a per-element loop draws it."""
    if family == "heisenberg":
        return rng.uniform(-scale, scale, 3)
    if family == "bargmann":
        return rng.uniform(-scale, scale, 4)
    if family == "torus":
        return np.mod(rng.uniform(0, 2 * np.pi, dim), 2 * np.pi)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return groups.check_coords("su2", q)


@pytest.mark.parametrize("family", ["heisenberg", "bargmann", "su2", "torus"])
def test_random_elements_draw_what_a_per_element_loop_draws(family):
    # one stack per call consumes the stream as count single draws did
    for count, scale, dim in ((1, 3.0, 1), (9, 0.5, 3), (40, 3.0, 2)):
        got = groups.random_elements(family, np.random.default_rng(count),
                                     count, scale=scale, dim=dim)
        rng = np.random.default_rng(count)
        want = np.array([_draw_one(family, rng, scale, dim)
                         for _ in range(count)])
        if family == "su2":
            assert np.abs(got - want).max() <= 1e-15
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("family", ["heisenberg", "bargmann", "euclid",
                                    "su2", "torus"])
def test_random_elements_sets_equal_separate_calls(family):
    for count, sets in ((0, 2), (1, 1), (5, 3), (12, 4)):
        rng = np.random.default_rng(count)
        want = np.concatenate([groups.random_elements(
            family, rng, count, scale=0.7, dim=2) for _ in range(sets)])
        got = groups.random_elements(family, np.random.default_rng(count),
                                     count, scale=0.7, dim=2, sets=sets)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _bad_blocks():
    """A reflection, an orthogonality defect of 1e-9 at det 1, a NaN and an
    inf."""
    skew = np.eye(3)
    skew[0, 1] = 1e-9
    blocks = [np.diag([1.0, 1.0, -1.0]), skew]
    for bad in (np.nan, np.inf):
        A = np.eye(3)
        A[2, 1] = bad
        blocks.append(A)
    return blocks


@pytest.mark.parametrize("rows", [1, 10000])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_rotation_check_rejects_a_bad_last_block(rows):
    good = groups.random_elements("euclid", np.random.default_rng(rows), rows)
    A = groups.euclid_parts(good)[0]
    groups._check_euclid_rotation(A)
    for bad in _bad_blocks():
        B = A.copy()
        B[-1] = bad
        with pytest.raises(ValueError, match="special orthogonal"):
            groups._check_euclid_rotation(B)
    groups._check_euclid_rotation(A[:0])


def test_stack_checks_reject_one_bad_block():
    X = groups.random_elements("euclid", np.random.default_rng(4), 50)
    groups.check_coords("euclid", X)
    A = groups.euclid_parts(X)[0]
    A[17, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        groups._check_euclid_rotation(A)
    with pytest.raises(ValueError):
        groups.check_coords("euclid", X)
    Q = groups.random_elements("su2", np.random.default_rng(5), 50)
    Q[31] *= 1.001
    with pytest.raises(ValueError):
        groups.check_coords("su2", Q)


def test_check_coords_names_the_family_and_the_width():
    with pytest.raises(groups.FamilyError, match="unknown family"):
        groups.check_coords("lorentz", np.zeros(3))
    for family, width in WIDTH.items():
        if family != "torus":
            with pytest.raises(groups.FamilyError, match="length %d" % width):
                groups.check_coords(family, np.zeros((2, width + 1)))
    # a torus has the dimension of its rows, and takes them as they come
    X = np.array([[0.5, 7.0, -1.0]])
    assert np.array_equal(groups.check_coords("torus", X), X)
    rows = groups.check_coords("heisenberg", [[1, 2, 3]])
    assert rows.dtype == float and rows.tolist() == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_elements_are_rejected(bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ValueError):
        _euclid(A, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        groups.check_coords("su2", [bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        groups.check_coords("su2", [1.0, bad, 0.0, 0.0])
    # one non-finite block or quaternion inside a stack of good ones
    gs = groups.random_elements("euclid", np.random.default_rng(6), 20)
    groups.euclid_parts(gs)[0][11, 2, 0] = bad
    with pytest.raises(ValueError):
        groups.check_coords("euclid", gs)
    Q = groups.random_elements("su2", np.random.default_rng(7), 20)
    Q[13, 0] = bad
    with pytest.raises(ValueError):
        groups.check_coords("su2", Q)


def test_reflections_are_rejected():
    flip = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="determinant"):
        _euclid(flip, [0.0, 0.0, 0.0])
    # an orthogonal block of determinant -1 inside a stack of rotations
    X = groups.random_elements("euclid", np.random.default_rng(8), 30)
    A, c = groups.euclid_parts(X)
    A[19] = A[19] @ flip
    assert np.abs(A[19].T @ A[19] - np.eye(3)).max() < 1e-12
    with pytest.raises(ValueError, match="determinant"):
        groups.check_coords("euclid", X)
    with pytest.raises(ValueError, match="determinant"):
        groups.check_coords("euclid", X.reshape(5, 6, 12))
    with pytest.raises(ValueError, match="determinant"):
        _euclid(A.reshape(5, 6, 3, 3), c.reshape(5, 6, 3))


def test_euclid_rejects_non_rotation():
    with pytest.raises(ValueError):
        _euclid(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        groups.check_coords("su2", [1.0, 1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# the law on stacks against the law on single rows

ALGEBRA_DIM = {"heisenberg": 3, "bargmann": 4, "euclid": 6, "su2": 3,
               "torus": 2}


@pytest.mark.parametrize("family", sorted(ALGEBRA_DIM))
def test_compose_coords_on_stacks_composes_row_by_row(family):
    # zipped rows, one row against a stack, and an (n, 1) x (1, m) table
    rng = np.random.default_rng(40)
    X = groups.random_elements(family, rng, 7, dim=2)
    Y = groups.random_elements(family, rng, 5, dim=2)
    Y2 = Y[np.array([0, 1, 2, 3, 4, 0, 1])]
    zipped = groups.compose_coords(family, X, Y2)
    broadcast = groups.compose_coords(family, X[0], Y)
    table = groups.compose_coords(family, X[:, None], Y[None])
    assert zipped.shape == (7, WIDTH[family])
    assert broadcast.shape == (5, WIDTH[family])
    assert table.shape == (7, 5, WIDTH[family])
    for i in range(7):
        want = groups.compose_coords(family, X[i], Y2[i])
        assert np.abs(zipped[i] - want).max() < 1e-12
        for j in range(5):
            want = groups.compose_coords(family, X[i], Y[j])
            assert np.abs(table[i, j] - want).max() < 1e-12
    for j in range(5):
        want = groups.compose_coords(family, X[0], Y[j])
        assert np.abs(broadcast[j] - want).max() < 1e-12
    if family == "su2":
        norms = np.linalg.norm(zipped, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-15


@pytest.mark.parametrize("family", sorted(ALGEBRA_DIM))
def test_inverse_and_exp_coords_on_stacks_match_row_calls(family):
    rng = np.random.default_rng(41)
    gs = groups.random_elements(family, rng, 6, dim=2)
    inv = groups.inverse_coords(family, gs)
    C = rng.uniform(-3, 3, (6, ALGEBRA_DIM[family]))
    C[0] = 0.0
    ex = groups.exp_coords(family, C)
    # the same stacks with two leading axes
    ex2 = groups.exp_coords(family, C.reshape(3, 2, -1))
    for i, g in enumerate(gs):
        assert np.abs(inv[i] - groups.inverse_coords(family, g)).max() < 1e-12
        want = groups.exp_coords(family, C[i])
        assert np.abs(ex[i] - want).max() < 1e-12
        assert np.abs(ex2[divmod(i, 2)] - want).max() < 1e-12


@pytest.mark.parametrize("family", ["heisenberg", "bargmann"])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_log_and_exp_coords_invert_each_other_on_stacks(family, shape):
    rng = np.random.default_rng(46)
    C = rng.uniform(-3, 3, shape + (ALGEBRA_DIM[family],))
    X = rng.uniform(-3, 3, shape + (WIDTH[family],))
    log_exp = groups.log_coords(family, groups.exp_coords(family, C))
    exp_log = groups.exp_coords(family, groups.log_coords(family, X))
    assert log_exp.shape == C.shape and exp_log.shape == X.shape
    assert np.abs(log_exp - C).max() < 1e-14
    assert np.abs(exp_log - X).max() < 1e-14


@pytest.mark.parametrize("family", ["euclid", "su2", "torus"])
def test_log_coords_takes_the_nilpotent_families_only(family):
    X = groups.random_elements(family, np.random.default_rng(47), 2)
    with pytest.raises(groups.FamilyError):
        groups.log_coords(family, X)


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
    assert np.array_equal(_euclid(A[:, None], d[None]), Y)


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_every_element_and_stack_is_one_array(family):
    gs = groups.random_elements(family, np.random.default_rng(45), 4, dim=2)
    one = groups.exp_coords(family, np.zeros(ALGEBRA_DIM[family]))
    made = [gs, gs[1], one, groups.compose_coords(family, gs, gs),
            groups.inverse_coords(family, gs),
            groups.compose_coords(family, one, gs[2]),
            groups.exp_coords(family, np.ones(ALGEBRA_DIM[family]))]
    for g in made:
        assert isinstance(g, np.ndarray) and g.dtype == float
        assert g.shape[-1] == WIDTH[family]
    assert gs.shape == (4, WIDTH[family])
    assert one.shape == gs[1].shape == (WIDTH[family],)


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


def test_src_speaks_coordinates_only():
    # group, algebra and dual elements are coordinate arrays: groups defines
    # no wrapper around them, and no module unwraps one
    assert not any(hasattr(groups, name) for name in (
        "GroupElement", "AlgebraElement", "CoadjointVector", "algebra",
        "covector", "identity", "exp", "inverse", "pairing", "adjoint",
        "bracket", "coadjoint", "from_coords"))
    src = Path(groups.__file__).parent
    found = {path.name: sorted({node.attr for node in ast.walk(ast.parse(
        path.read_text())) if isinstance(node, ast.Attribute)
        and node.attr in ("data", "coords")})
        for path in sorted(src.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


# ---------------------------------------------------------------------------
# the unit phase e^{ix}

@pytest.mark.parametrize("reach", [1.0, 1e3, 1e6, 1e300])
def test_expi_meets_complex_exp(reach):
    x = np.random.default_rng(12).uniform(-reach, reach, 100000)
    z = groups.expi(x)
    assert np.max(np.abs(z - np.exp(1j * x))) <= 1e-15
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_expi_of_zero_is_one_with_positive_imaginary_part(zero):
    for z in (groups.expi(zero), groups.expi(np.array([zero]))[0]):
        assert (float(z.real).hex(), float(z.imag).hex()) \
            == ((1.0).hex(), (0.0).hex())
        assert math.copysign(1.0, z.imag) == 1.0


def test_expi_at_half_and_quarter_turns():
    x = np.array([np.pi, -np.pi, np.pi / 2, -np.pi / 2])
    want = np.array([-1.0, -1.0, 1j, -1j])
    assert np.max(np.abs(groups.expi(x) - want)) <= 1e-15


def test_expi_of_nonfinite_input_is_nan():
    with np.errstate(invalid="ignore"):
        z = groups.expi(np.array([np.nan, np.inf, -np.inf]))
    assert np.isnan(z.real).all() and np.isnan(z.imag).all()


def test_expi_keeps_the_shape_and_gives_complex128():
    rng = np.random.default_rng(13)
    strided = rng.uniform(-4, 4, (300, 7))[:, ::2]
    for x in (np.float64(0.7), strided, rng.uniform(-4, 4, (2, 3, 4))):
        z = groups.expi(x)
        assert z.shape == np.shape(x) and z.dtype == np.complex128
        assert np.max(np.abs(z - np.exp(1j * x))) <= 1e-15


def _unit_phase_calls(tree):
    """The innermost enclosing function ("<module>" at top level) of each
    np.exp call whose argument holds an imaginary literal."""
    spans = [(f.end_lineno - f.lineno, f.lineno, f.end_lineno, f.name)
             for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "exp" \
                and getattr(node.func.value, "id", None) == "np" \
                and any(isinstance(c, ast.Constant)
                        and isinstance(c.value, complex)
                        for a in node.args for c in ast.walk(a)):
            found.append(min(((size, name) for size, lo, hi, name in spans
                              if lo <= node.lineno <= hi),
                             default=(0, "<module>"))[1])
    return found


def test_unit_phases_go_through_expi():
    # every e^{ix} of src is groups.expi, so both sides of an identity that
    # must meet to the last bit round alike.  Two sites stay: the trial
    # coefficient draw (keeping every trial tuple) and the lattice phase of
    # the spectral scan (computed once per lattice)
    src = Path(groups.__file__).parent
    found = {path.name: _unit_phase_calls(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {
        "orbits.py": ["_draw_block"], "spectral.py": ["_lattice", "_lattice"]}
