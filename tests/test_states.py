import math

import numpy as np
import pytest
from hypothesis import given, strategies as st_
from scipy.special import j0

from orbitstates import groups, states
from orbitstates.tolerances import DEFAULT


BUILTIN = [
    ("heisenberg_loc_p", dict(k=1.3)),
    ("heisenberg_loc_q", dict(l=0.8)),
    ("heisenberg_loc_t", dict(k=0.5, l=1.1, t=0.4)),
    ("heisenberg_center", dict()),
    ("bargmann_loc_pe", dict(k=1.0)),
    ("bargmann_loc_q", dict(l=1.0)),
    ("euclid_plane", dict(k=2.0, s=1)),
    ("euclid_spherical", dict(k=2.0)),
    ("euclid_cylindrical", dict(k=2.0, eps=0)),
    ("su2_highest_weight", dict(j=1.5)),
    ("constant_one", dict(family="heisenberg")),
]


def _mk(kind, params):
    return states.make_state(kind, **params)


# ---------------------------------------------------------------------------
# closed forms at hand-computed points

def test_loc_p_values():
    st = _mk("heisenberg_loc_p", dict(k=1.3))
    # on the b = 0 subgroup: e^{i(k c - a)}
    v = states.evaluate(st, [0.5, 0.0, 2.0])
    want = complex(math.cos(1.3 * 2.0 - 0.5), math.sin(1.3 * 2.0 - 0.5))
    assert abs(v - want) < 1e-14
    # off the subgroup: 0
    assert states.evaluate(st, [0.5, 0.3, 2.0]) == 0.0


def test_loc_q_values():
    st = _mk("heisenberg_loc_q", dict(l=0.8))
    v = states.evaluate(st, [-0.2, 1.5, 0.0])
    want = complex(math.cos(-(-0.2) - 0.8 * 1.5), math.sin(0.2 - 0.8 * 1.5))
    assert abs(v - want) < 1e-14
    assert states.evaluate(st, [0.0, 0.0, 1e-3]) == 0.0


def test_loc_t_values():
    k, l, t = 0.5, 1.1, 0.4
    st = _mk("heisenberg_loc_t", dict(k=k, l=l, t=t))
    b = 0.9
    g = [0.3, b, -b * t]
    phase = -(0.3 + 0.5 * b * b * t + (k * t + l) * b)
    assert abs(states.evaluate(st, g) - np.exp(1j * phase)) < 1e-14
    assert states.evaluate(st, [0.3, b, 0.2 - b * t]) == 0.0


def test_center_and_constant():
    st = _mk("heisenberg_center", {})
    assert abs(states.evaluate(st, [1.0, 0.0, 0.0]) - np.exp(-1j)) < 1e-15
    assert states.evaluate(st, [1.0, 0.5, 0.0]) == 0.0
    one = _mk("constant_one", dict(family="euclid"))
    g = groups.euclid_coords(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert states.evaluate(one, g) == 1.0


def test_bargmann_values():
    st = _mk("bargmann_loc_pe", dict(k=1.5))
    g = [0.2, 0.0, 0.7, -0.3]
    want = np.exp(1j * (1.5 * 0.7 - 0.5 * 1.5 ** 2 * (-0.3) - 0.2))
    assert abs(states.evaluate(st, g) - want) < 1e-14
    assert states.evaluate(st, [0.0, 0.1, 0.0, 0.0]) == 0.0

    st = _mk("bargmann_loc_q", dict(l=0.9))
    g = [0.4, -1.2, 0.0, 0.0]
    assert abs(states.evaluate(st, g) - np.exp(-1j * (0.4 + 0.9 * -1.2))) \
        < 1e-14
    assert states.evaluate(st, [0.0, 0.0, 1e-3, 0.0]) == 0.0
    assert states.evaluate(st, [0.0, 0.0, 0.0, 1e-3]) == 0.0


def test_euclid_plane_values():
    st = _mk("euclid_plane", dict(k=2.0, s=1))
    th = 0.6
    R = np.array([[math.cos(th), -math.sin(th), 0.0],
                  [math.sin(th), math.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    g = groups.euclid_coords(R, np.array([5.0, -1.0, 0.25]))
    want = np.exp(1j * (1 * th + 2.0 * 0.25))
    assert abs(states.evaluate(st, g) - want) < 1e-14
    # rotation moving e3 kills the value
    Rx = np.array([[1.0, 0.0, 0.0],
                   [0.0, math.cos(th), -math.sin(th)],
                   [0.0, math.sin(th), math.cos(th)]])
    assert states.evaluate(st, groups.euclid_coords(Rx, np.zeros(3))) == 0.0


def test_euclid_spherical_is_sinc():
    st = _mk("euclid_spherical", dict(k=2.0))
    rng = np.random.default_rng(1)
    for _ in range(40):
        c = rng.uniform(-4, 4, 3)
        A = np.eye(3)
        v = states.evaluate(st, groups.euclid_coords(A, c))
        r = 2.0 * np.linalg.norm(c)
        want = 1.0 if r == 0 else math.sin(r) / r
        assert abs(v - want) < 1e-12
    # rotation part is ignored entirely
    g = groups.euclid_coords(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                                       [0.0, 0.0, 1.0]]),
                             np.array([1.0, 0.0, 0.0]))
    assert abs(states.evaluate(st, g) - math.sin(2.0) / 2.0) < 1e-14


def test_j0_matches_scipy():
    from scipy.special import jn_zeros
    rng = np.random.default_rng(4)
    zeros = jn_zeros(0, 12)
    x = np.concatenate([
        np.linspace(0.0, 40.0, 40001),
        states.J0_SWITCH + np.linspace(-1e-3, 1e-3, 2001),   # the switch
        (zeros[:, None] + np.linspace(-1e-4, 1e-4, 201)).ravel(),
        np.geomspace(1.0, 1e6, 20001), rng.uniform(0.0, 1e6, 20000),
        [0.0, states.J0_SWITCH, np.nextafter(states.J0_SWITCH, 99), 1e6]])
    assert np.max(np.abs(states.j0(x) - j0(x))) < 1e-14
    assert np.array_equal(states.j0(-x), states.j0(x))
    assert states.j0(2.0).shape == () and states.j0(x.reshape(-1, 1)).shape \
        == (x.size, 1)
    assert np.isnan(states.j0(np.nan))


def test_euclid_cylindrical_is_bessel():
    st = _mk("euclid_cylindrical", dict(k=2.0, eps=0))
    c = np.array([0.6, -0.8, 3.0])
    v = states.evaluate(st, groups.euclid_coords(np.eye(3), c))
    assert abs(v - j0(2.0 * 1.0)) < 1e-14      # |c_perp| = 1, z ignored
    # flip: A e3 = -e3 picks up (-1)^eps
    F = np.diag([1.0, -1.0, -1.0])
    v = states.evaluate(st, groups.euclid_coords(F, c))
    assert abs(v - j0(2.0)) < 1e-14
    st1 = _mk("euclid_cylindrical", dict(k=2.0, eps=1))
    v = states.evaluate(st1, groups.euclid_coords(F, c))
    assert abs(v + j0(2.0)) < 1e-14
    # tilted rotation axis kills it
    th = 0.3
    Rx = np.array([[1.0, 0.0, 0.0],
                   [0.0, math.cos(th), -math.sin(th)],
                   [0.0, math.sin(th), math.cos(th)]])
    assert states.evaluate(st, groups.euclid_coords(Rx, c)) == 0.0


def test_cylindrical_support_samples_reach_both_axis_cosets():
    # the even-indexed draws sit on A e3 = +-e3, so the Gram matrices carry
    # Bessel values off the diagonal and see the sign (-1)^eps
    samples = states.support_samples(
        _mk("euclid_cylindrical", dict(k=2.0, eps=0)),
        np.random.default_rng(0), 24)
    g0, g1 = (states.gram(_mk("euclid_cylindrical", dict(k=2.0, eps=e)),
                          samples) for e in (0, 1))
    off = ~np.eye(24, dtype=bool)
    assert np.count_nonzero(np.abs(g0.entries[off]) > 1e-12) >= 24
    assert np.max(np.abs(g0.entries - g1.entries)) > 1e-3
    assert states.check_psd(g0)["pass"] and states.check_psd(g1)["pass"]


@pytest.mark.parametrize("kind", [
    kind for kind, _ in BUILTIN if kind not in (
        "euclid_spherical", "su2_highest_weight", "constant_one")])
def test_support_draws_land_on_the_modulus_one_set(kind):
    # the even-indexed draws follow the kind's subgroup H or its e3 axis;
    # on A e3 = +-e3 the cylindrical modulus is the Bessel factor's, not 1
    params = dict(BUILTIN)[kind]
    st = _mk(kind, params)
    samples = states.support_samples(st, np.random.default_rng(7), 400)[::2]
    got = np.abs(states.evaluate(st, samples))
    want = np.ones(len(samples))
    if kind == "euclid_cylindrical":
        A, c = groups.euclid_parts(samples)
        want = np.abs(j0(params["k"] * np.hypot(c[:, 0], c[:, 1])))
        flips = A[:, 2, 2].tolist()
        assert flips[0::2] == [1.0] * 100 and flips[1::2] == [-1.0] * 100
    assert np.max(np.abs(got - want)) < DEFAULT.modulus_one


@pytest.mark.parametrize("kind,params", BUILTIN)
def test_support_samples_draw_one_generic_stack(kind, params, monkeypatch):
    # the generic draws come from a single random_elements call, whatever
    # the count: no per-element loop
    calls = []
    draw = groups.random_elements

    def counted(*args, **kwargs):
        calls.append(args[2])
        return draw(*args, **kwargs)

    monkeypatch.setattr(groups, "random_elements", counted)
    st = _mk(kind, params)
    for count in (0, 1, 2, 7, 12):
        calls.clear()
        gs = states.support_samples(st, np.random.default_rng(count), count)
        assert gs.shape == (count, groups.COORD_DIM[st.family])
        has_draw = states.KINDS[kind].draw is not None
        assert calls == [count // 2 if has_draw else count]


def _support_one_set(st, rng, count):
    """One set the way a single draw reads the stream: the generic odd
    rows, then the support draw's uniforms and angles for the even ones."""
    draw = states.KINDS[st.kind].draw
    if draw is None:
        return groups.random_elements(st.family, rng, count)
    odd = groups.random_elements(st.family, rng, count // 2)
    idx = np.arange(0, count, 2)
    U = rng.uniform(-3.0, 3.0, (len(idx), 4))
    th = rng.uniform(0, 2 * np.pi, len(idx)) if draw.angles else None
    even = draw.build(st, U, th, idx)
    out = np.empty((count, odd.shape[-1]))
    out[0::2], out[1::2] = even, odd
    return out


@pytest.mark.parametrize("kind,params", BUILTIN)
def test_multi_set_draw_equals_single_draws(kind, params, monkeypatch):
    # k sets in one call read the stream as k calls do, and as the
    # reference above, value for value, with one random_elements call for
    # the generic half of all k sets
    st = _mk(kind, params)
    rng = np.random.default_rng(9)
    want = np.concatenate([_support_one_set(st, rng, 7) for _ in range(3)])
    got = states.support_samples(st, np.random.default_rng(9), 7, sets=3)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    calls = []
    draw = groups.random_elements

    def counted(*args, **kwargs):
        calls.append((args[2], kwargs.get("sets", 1)))
        return draw(*args, **kwargs)

    monkeypatch.setattr(groups, "random_elements", counted)
    has_draw = states.KINDS[kind].draw is not None
    for count in (0, 1, 2, 7, 24):
        for k in (1, 3):
            rng = np.random.default_rng(count)
            want = np.concatenate([states.support_samples(st, rng, count)
                                   for _ in range(k)])
            rest = rng.integers(0, 2 ** 63, 4)
            calls.clear()
            rng = np.random.default_rng(count)
            got = states.support_samples(st, rng, count, sets=k)
            assert calls == [(count // 2 if has_draw else count, k)]
            assert got.shape == want.shape == (
                k * count, groups.COORD_DIM[st.family])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(rng.integers(0, 2 ** 63, 4), rest)


def test_su2_highest_weight_values():
    st = _mk("su2_highest_weight", dict(j=1.0))
    g = groups.check_coords("su2", [math.cos(0.4), 0.0, 0.0, math.sin(0.4)])
    want = np.exp(2j * 0.4)                     # (cos + i sin)^{2j}
    assert abs(states.evaluate(st, g) - want) < 1e-14
    g = groups.check_coords("su2", [0.0, 1.0, 0.0, 0.0])
    assert states.evaluate(st, g) == 0.0        # w + iz = 0


def test_sinc_matches_numpy_and_series():
    xs = np.concatenate([np.linspace(-30, 30, 101),
                         np.array([1e-3, -1e-3, 1e-5, -1e-7, 0.0])])
    got = states.sinc(xs)
    want = np.sinc(xs / np.pi)
    assert np.max(np.abs(got - want)) < 1e-13


# ---------------------------------------------------------------------------
# structural properties of states

@pytest.mark.parametrize("kind,params", BUILTIN)
def test_identity_value_is_one(kind, params):
    st = _mk(kind, params)
    e = groups.exp_coords(st.family, np.zeros(groups.ALGEBRA_DIM[st.family]))
    assert abs(states.evaluate(st, e) - 1.0) < 1e-14


@pytest.mark.parametrize("kind,params", BUILTIN)
def test_hermitian_symmetry_and_bound(kind, params):
    st = _mk(kind, params)
    rng = np.random.default_rng(3)
    gs = groups.random_elements(st.family, rng, 80)
    vals = states.evaluate(st, gs)
    inv_vals = states.evaluate(st, groups.inverse_coords(st.family, gs))
    assert np.max(np.abs(inv_vals - np.conj(vals))) < 1e-12
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


@pytest.mark.parametrize("kind,params", BUILTIN)
def test_gram_entries_match_scalar_route(kind, params):
    st = _mk(kind, params)
    rng = np.random.default_rng(4)
    gs = groups.check_coords(st.family, np.concatenate([
        groups.random_elements(st.family, rng, 6),
        states.support_samples(st, np.random.default_rng(5), 6)]))
    gm = states.gram(st, gs)
    n = len(gs)
    for i in range(n):
        for jj in range(n):
            direct = states.evaluate(st, groups.compose_coords(
                st.family, groups.inverse_coords(st.family, gs[i]), gs[jj]))
            assert abs(gm.entries[i, jj] - direct) < 1e-12
    # hermitian kernel
    assert np.max(np.abs(gm.entries - gm.entries.conj().T)) < 1e-12


@pytest.mark.parametrize("kind,params", BUILTIN)
def test_stacked_gram_min_eigenvalues_equal_per_set_gram(kind, params):
    st = _mk(kind, params)
    rng = np.random.default_rng(21)
    sets = [states.support_samples(st, rng, 9) for _ in range(4)]
    X = np.stack(sets)
    K = states.pair_eval(st, X[:, :, None], X[:, None, :])
    assert K.shape == (4, 9, 9)
    lows = states.gram_min_eigenvalues(st, X)
    for i, s in enumerate(sets):
        gm = states.gram(st, s)
        assert np.array_equal(K[i], gm.entries)
        assert lows[i] == gm.eigenvalues[-1]


@pytest.mark.parametrize("kind,params", BUILTIN)
def test_gram_positive_on_mixed_samples(kind, params):
    st = _mk(kind, params)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        samples = states.support_samples(st, rng, n)
        gm = states.gram(st, samples)
        res = states.check_psd(gm)
        assert res["pass"], (kind, seed, res)


@given(st_.integers(0, 10 ** 6))
def test_localized_states_match_character_on_their_subgroup(seed):
    """On its localization subgroup a state is exactly the character
    e^{i<x, Z>} of the dual point recorded in its metadata."""
    rng = np.random.default_rng(seed)
    for kind, params in [("heisenberg_loc_p", dict(k=1.3)),
                         ("heisenberg_loc_q", dict(l=0.8)),
                         ("heisenberg_loc_t", dict(k=0.5, l=1.1, t=0.4)),
                         ("heisenberg_center", {}),
                         ("bargmann_loc_pe", dict(k=1.5)),
                         ("bargmann_loc_q", dict(l=0.9))]:
        st = _mk(kind, params)
        x = np.array(st.localization["x"])
        u = rng.uniform(-3, 3, 2)
        if kind == "heisenberg_loc_p":
            z = [u[0], 0.0, u[1]]
        elif kind == "heisenberg_loc_q":
            z = [u[0], u[1], 0.0]
        elif kind == "heisenberg_loc_t":
            z = [u[0], u[1], -u[1] * params["t"]]
        elif kind == "heisenberg_center":
            z = [u[0], 0.0, 0.0]
        elif kind == "bargmann_loc_pe":
            z = [u[0], 0.0, u[1], rng.uniform(-3, 3)]
        else:
            z = [u[0], u[1], 0.0, 0.0]
        Z = np.array(z)
        got = states.evaluate(st, groups.exp_coords(st.family, Z))
        want = np.exp(1j * groups.pairing_coords(st.family, x, Z))
        assert abs(got - want) < 1e-12, kind


def test_euclid_plane_character_on_subgroup():
    st = _mk("euclid_plane", dict(k=2.0, s=1))
    w = np.array(st.localization["w"])
    rng = np.random.default_rng(9)
    for _ in range(20):
        om = rng.uniform(-3, 3)
        r = rng.uniform(-3, 3, 3)
        Z = np.array([0.0, 0.0, om, r[0], r[1], r[2]])
        got = states.evaluate(st, groups.exp_coords("euclid", Z))
        want = np.exp(1j * groups.pairing_coords("euclid", w, Z))
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# inequality margins

@pytest.mark.parametrize("kind,params", BUILTIN)
def test_inequalities_hold(kind, params):
    st = _mk(kind, params)
    rng = np.random.default_rng(21)
    gs = states.support_samples(st, rng, 200)
    hs = states.support_samples(st, rng, 200)
    out = states.check_inequalities(st, gs, hs)
    assert out["pass"], (kind, out)
    assert out["worst_margin"] <= 1e-12


CHARACTERS = BUILTIN[:6]


def test_character_kinds_carry_no_closed_form_of_their_own():
    # a kind whose localization records H and x is [g in H] e^{i<x, log g>};
    # a values entry would encode the same state a second time
    recorded = [kind for kind, spec in states.KINDS.items()
                if spec.localization is not None
                and {"H", "x"} <= set(states.make_state(kind).localization)]
    assert recorded == [kind for kind, _ in CHARACTERS]
    assert [states.KINDS[kind].values for kind in recorded] == [None] * 6


@pytest.mark.parametrize("kind,params", CHARACTERS)
def test_long_flows_keep_the_character_phase_exactly(kind, params):
    # m(exp Z) is [Z in h] e^{i<x, Z>} to the last bit out to |Z| = 1.3e7,
    # inside cli.FLOW_REACH; exp_coords followed by heisenberg_loc_t's group
    # form, whose b^2 t / 2 term cancels, is 2.8e-3 rad off on these Z
    st = _mk(kind, params)
    loc = st.localization
    rng = np.random.default_rng(26)
    U = rng.uniform(-1, 1, (40, len(loc["H"])))
    Z = (U @ np.asarray(loc["H"]))[:, None] * np.logspace(0, 7, 8)[:, None]
    want = groups.expi(groups.pairing_coords(
        st.family, np.array(loc["x"], dtype=float), Z))
    assert np.array_equal(states.exp_values(st, Z), want)
    # off h by 1e-6 in a coordinate the pivots do not pick: 0
    off = Z.copy()
    free = np.setdiff1d(np.arange(Z.shape[-1]), loc["pivots"])[0]
    off[..., free] += 1e-6
    assert not np.any(states.exp_values(st, off))


@pytest.mark.parametrize("kind,params", BUILTIN + [
    ("custom", dict(family="su2", evaluator=lambda g: g[0] + 1j * g[3]))])
def test_exp_values_match_element_evaluation(kind, params):
    st = _mk(kind, dict(params))
    rng = np.random.default_rng(24)
    C = rng.uniform(-2, 2, (3, 2, groups.ALGEBRA_DIM[st.family]))
    C[0, 0] = 0.0
    got = states.exp_values(st, C)
    assert got.shape == (3, 2)
    for idx in np.ndindex(3, 2):
        want = states.evaluate(st, groups.exp_coords(st.family, C[idx]))
        assert abs(got[idx] - want) < 1e-12
        assert abs(complex(states.exp_values(st, C[idx])) - want) < 1e-12


def test_euclid_custom_evaluator_receives_one_packed_row():
    # a custom evaluator sees each element as one 12-coordinate row, which
    # groups.euclid_parts splits; here it is the spherical closed form
    seen = []

    def spherical(g):
        seen.append(g)
        return states.sinc(2.0 * np.linalg.norm(groups.euclid_parts(g)[1]))

    st = states.make_state("custom", family="euclid", evaluator=spherical)
    X = groups.random_elements("euclid", np.random.default_rng(25), 6)
    got = states.pair_eval(st, X[:2, None], X[None, 2:])
    assert got.shape == (2, 4) and len(seen) == 8
    assert all(type(row) is np.ndarray and row.shape == (12,) for row in seen)
    want = states.pair_eval(_mk("euclid_spherical", dict(k=2.0)),
                            X[:2, None], X[None, 2:])
    assert np.max(np.abs(got - want)) < 1e-12


def test_krein_margin_holds_for_near_coincident_pairs():
    # in its square-root form the Krein bound cancels for pairs a few 1e-6
    # apart, and the centre state failed the 1e-12 slack by up to 4e-11
    st = _mk("heisenberg_center", dict())
    rng = np.random.default_rng(31)
    for d in (1e-5, 3e-6, 1e-7):
        a_s = rng.uniform(-3, 3, 200)
        zero = np.zeros_like(a_s)
        gs = np.column_stack([a_s, zero, zero])
        hs = np.column_stack([a_s + d, zero, zero])
        out = states.check_inequalities(st, gs, hs)
        assert out["pass"], (d, out)
        assert out["krein_margin"] < 1e-15


def test_inequalities_reject_overscaled_function():
    bad = states.make_state(
        "custom", family="heisenberg",
        evaluator=lambda g: 1.5 * np.exp(-1j * g[0]))
    rng = np.random.default_rng(22)
    gs = groups.random_elements("heisenberg", rng, 50)
    hs = groups.random_elements("heisenberg", rng, 50)
    out = states.check_inequalities(bad, gs, hs)
    assert not out["pass"]
    assert out["herglotz_margin"] > 0.4


def test_check_psd_flags_indefinite_kernel():
    # m = 1 on the b = 0 coset, -1 off it: not positive definite
    bad = states.make_state(
        "custom", family="heisenberg",
        evaluator=lambda g: 1.0 if abs(g[1]) < 1e-9 else -1.0)
    samples = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    gm = states.gram(bad, samples)
    assert not states.check_psd(gm)["pass"]


def test_modulus_one_probe_finds_subgroup():
    st = _mk("euclid_spherical", dict(k=2.0))
    rng = np.random.default_rng(23)
    samples = groups.check_coords("euclid", np.concatenate([
        groups.exp_coords("euclid", np.zeros((1, 6))),
        groups.random_elements("euclid", rng, 20)]))
    out = states.modulus_one_subgroup_probe(st, samples)
    assert out["pass"]
    assert 0 in out["inside"]


def test_modulus_one_probe_partitions_the_samples():
    st = _mk("heisenberg_loc_p", dict(k=1.3))
    samples = states.support_samples(st, np.random.default_rng(8), 301)
    out = states.modulus_one_subgroup_probe(st, samples)
    vals = np.abs(states.evaluate(st, samples))
    assert out["inside"] == [i for i, v in enumerate(vals)
                             if abs(v - 1.0) < DEFAULT.modulus_one]
    assert sorted(out["inside"] + out["outside"]) == list(range(301))
    assert all(type(i) is int for i in out["inside"] + out["outside"])
    assert out["inside"][:3] == [0, 2, 4] and out["pass"]


# ---------------------------------------------------------------------------
# parameter validation

def test_parameter_validation():
    with pytest.raises(states.StateParameterError):
        states.make_state("no_such_state")
    with pytest.raises(states.StateParameterError):
        states.make_state("heisenberg_loc_p", k=-1.0)
    with pytest.raises(states.StateParameterError):
        states.make_state("euclid_plane", k=1.0, s=0.5)
    with pytest.raises(states.StateParameterError):
        states.make_state("euclid_cylindrical", k=1.0, eps=2)
    with pytest.raises(states.StateParameterError):
        states.make_state("su2_highest_weight", j=0.3)
    with pytest.raises(states.StateParameterError):
        states.make_state("su2_highest_weight", j=5.0)
    st = states.make_state("su2_highest_weight", j=2)
    assert st.params["j"] == 2.0


def test_gram_rejects_family_mismatch():
    st = _mk("heisenberg_loc_p", dict(k=1.0))
    with pytest.raises(groups.FamilyError):
        states.gram(st, groups.random_elements("euclid",
                                               np.random.default_rng(0), 1))
    with pytest.raises(ValueError):
        states.gram(st, groups.random_elements(st.family,
                                               np.random.default_rng(0), 0))
    euclid = groups.random_elements("euclid", np.random.default_rng(0), 6)
    with pytest.raises(groups.FamilyError):
        states.gram_min_eigenvalues(st, euclid.reshape(2, 3, 12))
    for shape in [(0, 5), (3, 0)]:
        with pytest.raises(ValueError):
            states.gram_min_eigenvalues(st, np.zeros(shape + (3,)))
