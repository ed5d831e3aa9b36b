import json

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
        M = oracles.se3_mat(*g.data) @ oracles.se3_mat(*h.data)
        assert np.allclose(oracles.se3_mat(*gh.data), M, atol=1e-12)


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
        A, c = e.data
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
# exp / log

@given(triple)
def test_heisenberg_exp_matches_expm(z):
    got = groups.exp(groups.algebra("heisenberg", z)).data
    assert np.allclose(got, oracles.group_exp("heisenberg", z), atol=1e-12)


@given(quad)
def test_bargmann_exp_matches_expm(z):
    got = groups.exp(groups.algebra("bargmann", z)).data
    assert np.allclose(got, oracles.group_exp("bargmann", z), atol=1e-11)


@given(quad)
def test_bargmann_log_matches_logm(g):
    got = groups.log(groups.bargmann(*g)).coords
    assert np.allclose(got, oracles.group_log("bargmann", g), atol=1e-9)


def test_euclid_exp_matches_expm():
    from scipy.linalg import expm
    rng = np.random.default_rng(5)
    for _ in range(40):
        axis = rng.uniform(-2.5, 2.5, 3)
        rate = rng.uniform(-3, 3, 3)
        g = groups.exp(groups.algebra("euclid", np.concatenate([axis, rate])))
        M = expm(oracles.se3_alg(axis, rate))
        assert np.allclose(oracles.se3_mat(*g.data), M, atol=1e-10)


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


@given(st_.sampled_from(["heisenberg", "bargmann", "euclid", "su2", "torus"]),
       st_.integers(0, 10 ** 6))
def test_log_exp_round_trip(family, seed):
    rng = np.random.default_rng(seed)
    dims = {"heisenberg": 3, "bargmann": 4, "euclid": 6, "su2": 3, "torus": 2}
    z = rng.uniform(-1.2, 1.2, dims[family])
    if family in ("euclid", "su2"):
        # keep clear of the branch cut at rotation angle pi
        z[:3] *= min(1.0, 2.8 / max(np.linalg.norm(z[:3]), 1e-9))
    back = groups.log(groups.exp(groups.algebra(family, z))).coords
    assert np.allclose(back, z, atol=1e-9)


def test_exp_log_round_trip_on_group():
    rng = np.random.default_rng(11)
    for family in ("heisenberg", "bargmann", "euclid", "su2"):
        for g in groups.random_elements(family, rng, 30):
            try:
                h = groups.exp(groups.log(g))
            except groups.BranchCutError:
                continue
            if family == "euclid":
                assert np.abs(h.data[0] - g.data[0]).max() < 1e-9
                assert np.abs(h.data[1] - g.data[1]).max() < 1e-9
            elif family == "su2":
                # g and -g are distinct group elements; log lands on the
                # principal branch, whose exp has nonnegative scalar part
                sgn = 1.0 if g.data[0] >= 0 else -1.0
                assert np.abs(h.data - sgn * g.data).max() < 1e-9
            else:
                assert np.abs(h.data - g.data).max() < 1e-9


def test_log_branch_cut_raises():
    R = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(groups.BranchCutError):
        groups.log(groups.euclid(R, np.zeros(3)))
    with pytest.raises(groups.BranchCutError):
        groups.log(groups.su2(0.0, 0.0, 0.0, 1.0))


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
# serialization and sampling helpers

def test_json_round_trip_all_families():
    rng = np.random.default_rng(17)
    for family in ("heisenberg", "bargmann", "euclid", "su2", "torus"):
        for g in groups.random_elements(family, rng, 5):
            h = groups.loads(groups.dumps(g))
            assert h.family == family
            if family == "euclid":
                assert np.allclose(h.data[0], g.data[0], atol=1e-15)
                assert np.allclose(h.data[1], g.data[1], atol=1e-15)
            else:
                assert np.allclose(h.data, g.data, atol=1e-15)


def test_random_elements_shapes_and_rotations():
    rng = np.random.default_rng(18)
    for family in ("heisenberg", "bargmann", "euclid", "su2", "torus"):
        gs = groups.random_elements(family, rng, 300)
        assert len(gs) == 300
        for g in gs:
            assert g.family == family
            if family == "euclid":
                A, _ = g.data
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
    gs = groups.random_elements("euclid", np.random.default_rng(4), 50)
    A, c = gs.data
    groups.from_coords("euclid", (A, c))
    A[17, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        groups._check_euclid_rotation(A)
    with pytest.raises(ValueError):
        groups.from_coords("euclid", (A, c))
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
        groups.loads(json.dumps({"family": "euclid", "A": A.tolist(),
                                 "c": [0.0, 0.0, 0.0]}))
    with pytest.raises(ValueError):
        groups.su2(bad, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        groups.loads(json.dumps({"family": "su2", "q": [1.0, bad, 0.0, 0.0]}))
    # one non-finite block or quaternion inside a stack of good ones
    gs = groups.random_elements("euclid", np.random.default_rng(6), 20)
    gs.data[0][11, 2, 0] = bad
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
    A, c = groups.random_elements("euclid", np.random.default_rng(8), 30).data
    A[19] = A[19] @ flip
    assert np.abs(A[19].T @ A[19] - np.eye(3)).max() < 1e-12
    with pytest.raises(ValueError, match="determinant"):
        groups.from_coords("euclid", (A, c))
    with pytest.raises(ValueError, match="determinant"):
        groups.from_coords("euclid", (A.reshape(5, 6, 3, 3),
                                      c.reshape(5, 6, 3)))


def _rows(gs):
    """The coordinate rows of a stack, flattened as _flat flattens one."""
    if gs.family == "euclid":
        A, c = gs.data
        return np.concatenate([A.reshape(len(A), 9), c], axis=1)
    return gs.data


@pytest.mark.parametrize("family", groups.FAMILIES)
def test_random_elements_are_one_indexable_stack(family):
    gs = groups.random_elements(family, np.random.default_rng(6), 9, dim=2)
    assert isinstance(gs, groups.GroupElement) and gs.family == family
    assert len(gs) == 9
    rows = _rows(gs)
    for i in range(9):
        assert gs[i].family == family
        assert np.array_equal(_flat(gs[i]), rows[i])
    assert [_flat(g).tolist() for g in gs] == rows.tolist()
    idx = np.array([7, 0, 7])
    assert np.array_equal(_rows(gs[idx]), rows[idx])
    assert np.array_equal(_rows(gs[2:8:3]), rows[2:8:3])
    one = gs[4]
    with pytest.raises(TypeError):
        len(one)
    with pytest.raises(TypeError):
        one[0]


def test_stack_gathers_single_elements():
    gs = groups.random_elements("euclid", np.random.default_rng(7), 5)
    back = groups.stack("euclid", list(gs))
    assert len(back) == 5 and np.array_equal(_rows(back), _rows(gs))
    with pytest.raises(groups.FamilyError):
        groups.stack("su2", list(gs))
    with pytest.raises(ValueError):
        groups.stack("euclid", [])


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
        want = _flat(groups.compose(G[i], H[i]))
        assert np.abs(_flat(zipped[i]) - want).max() < 1e-12
        want = _flat(groups.compose(G[0], H[i]))
        assert np.abs(_flat(broadcast[i]) - want).max() < 1e-12
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


def _lead(X, axis):
    """A coordinate stack with a new broadcast axis (euclid: (A, c))."""
    if isinstance(X, tuple):
        return tuple(np.expand_dims(x, axis) for x in X)
    return np.expand_dims(X, axis)


def _entry(X, idx):
    """One entry of a coordinate stack, flattened."""
    if isinstance(X, tuple):
        return np.concatenate([X[0][idx].ravel(), X[1][idx]])
    return X[idx]


def _flat(g):
    if g.family == "euclid":
        return np.concatenate([g.data[0].ravel(), g.data[1]])
    return g.data


@pytest.mark.parametrize("family", sorted(ALGEBRA_DIM))
def test_compose_coords_matches_element_compose(family):
    rng = np.random.default_rng(40)
    gs = groups.random_elements(family, rng, 7, dim=2)
    hs = groups.random_elements(family, rng, 5, dim=2)
    X, Y = gs.data, hs.data
    hs2 = groups.stack(family, list(hs) + list(hs[:2]))
    zipped = groups.compose_coords(family, X, hs2.data)
    for i, (g, h) in enumerate(zip(gs, hs2)):
        want = _flat(groups.compose(g, h))
        assert np.abs(_entry(zipped, i) - want).max() < 1e-12
    table = groups.compose_coords(family, _lead(X, 1), _lead(Y, 0))
    for i, g in enumerate(gs):
        for j, h in enumerate(hs):
            want = _flat(groups.compose(g, h))
            assert np.abs(_entry(table, (i, j)) - want).max() < 1e-12


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
        assert np.abs(_entry(inv, i) - _flat(groups.inverse(g))).max() < 1e-12
        want = _flat(groups.exp(groups.algebra(family, C[i])))
        assert np.abs(_entry(ex, i) - want).max() < 1e-12
        assert np.abs(_entry(ex2, divmod(i, 2)) - want).max() < 1e-12


AXIS_SIZES = (0.0, 1e-9, 0.99e-4, 1.01e-4, 1.0, 3.0)


@pytest.mark.parametrize("size", AXIS_SIZES)
def test_euclid_exp_coords_matches_expm_across_series_switch(size):
    from scipy.linalg import expm
    rng = np.random.default_rng(42)
    axes = rng.standard_normal((16, 3))
    axes *= size / np.linalg.norm(axes, axis=1, keepdims=True)
    C = np.hstack([axes, rng.uniform(-3, 3, (16, 3))])
    A, c = groups.exp_coords("euclid", C)
    for i, row in enumerate(C):
        M = expm(oracles.se3_alg(row[:3], row[3:]))
        assert np.abs(oracles.se3_mat(A[i], c[i]) - M).max() < 1e-12


def test_euclid_exp_coords_translations_match_general_rows():
    # a pure-translation stack and the same rows among screws give the same
    # coordinates
    rng = np.random.default_rng(43)
    C = np.hstack([np.zeros((4, 3)), rng.uniform(-3, 3, (4, 3))])
    screws = np.vstack([C, rng.uniform(-3, 3, (4, 6))])
    A, c = groups.exp_coords("euclid", C)
    A2, c2 = groups.exp_coords("euclid", screws)
    assert np.array_equal(A, np.broadcast_to(np.eye(3), (4, 3, 3)))
    assert np.array_equal(c, C[:, 3:])
    assert np.array_equal(A2[:4], A) and np.array_equal(c2[:4], c)
