import numpy as np
import pytest

import oracles
from orbitstates import groups, orbits, states
from orbitstates.tolerances import DEFAULT


# ---------------------------------------------------------------------------
# moment maps

def test_euclid_moment_closed_forms():
    spec = orbits.euclid_orbit(2.0, 0.5)
    # r parallel to u contributes nothing to the angular part
    w = spec.moment((np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]),
                     np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])))
    assert np.allclose(w, [[0, 0, 0.5, 0, 0, 2.0]] * 2, atol=1e-12)


def test_euclid_moment_rejects_non_unit_direction():
    spec = orbits.euclid_orbit(1.0)
    for bad in (2.0, np.nan):
        with pytest.raises(ValueError):
            spec.moment((np.zeros((2, 3)), np.array([[0.0, 0.0, 1.0],
                                                     [0.0, 0.0, bad]])))


def test_bargmann_and_heisenberg_moment():
    w = orbits.bargmann_orbit().moment(np.array([[2.0, 0.0]]))
    assert np.allclose(w, [[1.0, 2.0, 0.0, 2.0]], atol=1e-15)
    w = orbits.heisenberg_orbit().moment(np.array([[0.3, -1.2]]))
    assert np.allclose(w, [[1.0, 0.3, -1.2]], atol=1e-15)


def test_su2_moment_scales_onto_the_sphere():
    spec = orbits.su2_orbit(1.5)
    w = spec.moment(np.array([[0.0, 3.0, 4.0]]))
    assert np.allclose(w, [[0.0, 0.9, 1.2]], atol=1e-15)
    with pytest.raises(ValueError):
        spec.moment(np.zeros((1, 3)))


def _phase_points(family, rng, n):
    """n phase-space points of the family's orbit chart."""
    if family == "euclid":
        u = rng.standard_normal((n, 3))
        return rng.uniform(-2, 2, (n, 3)), u / np.linalg.norm(u, axis=1,
                                                              keepdims=True)
    return rng.uniform(-3, 3, (n, 3 if family == "su2" else 2))


def _moved(family, gs, X):
    """g_i . x_i for a stack of elements gs and phase-space points X."""
    if family in ("heisenberg", "bargmann"):
        b, c, p, q = gs[:, 1], gs[:, 2], X[:, 0], X[:, 1]
        if family == "bargmann":
            e = gs[:, 3]
            return np.column_stack([p + b, q + c - b * e - p * e])
        return np.column_stack([p + b, q + c])
    if family == "euclid":
        A, c = groups.euclid_parts(gs)
        r, u = X
        return (np.einsum("nij,nj->ni", A, r) + c,
                np.einsum("nij,nj->ni", A, u))
    return np.array([oracles.su2_rotation(g) @ x for g, x in zip(gs, X)])


@pytest.mark.parametrize("spec", [
    orbits.heisenberg_orbit(), orbits.bargmann_orbit(),
    orbits.euclid_orbit(2.0, 0.7), orbits.su2_orbit(1.5)],
    ids=lambda spec: spec.family)
def test_moment_is_equivariant(spec):
    # Ad*(g) moment(x) == moment(g . x), through OrbitSpec.moment
    rng = np.random.default_rng(2)
    f = spec.family
    gs = groups.random_elements(f, rng, 20)
    X = _phase_points(f, rng, 20)
    left = groups.coadjoint_coords(f, gs, spec.moment(X))
    assert np.allclose(left, spec.moment(_moved(f, gs, X)), atol=1e-9)


@pytest.mark.parametrize("spec", [
    orbits.heisenberg_orbit(), orbits.bargmann_orbit(),
    orbits.euclid_orbit(2.0, 0.7), orbits.su2_orbit(1.5)],
    ids=lambda spec: spec.family)
def test_moment_lands_on_the_orbit(spec):
    rng = np.random.default_rng(4)
    w = spec.moment(_phase_points(spec.family, rng, 50))
    assert w.shape == (50, spec.dim)
    assert np.max(orbits.relation_residuals(spec, w)) < 1e-10


def _reference_sample(spec, rng, count, box):
    """Orbit samples written out family by family, drawing from the stream
    in the order OrbitSpec.sample does."""
    f = spec.family
    if f in ("heisenberg", "bargmann"):
        pq = rng.uniform(-box, box, size=(count, 2))
        cols = [np.ones(count), pq]
        if f == "bargmann":
            cols.append(0.5 * pq[:, 0] ** 2)
        return np.column_stack(cols)
    if f == "euclid":
        k, s = spec.params["k"], spec.params["s"]
        u = rng.standard_normal((count, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(-box, box, size=(count, 3))
        r -= np.sum(r * u, axis=1, keepdims=True) * u
        return np.hstack([k * np.cross(r, u) + s * u, k * u])
    if f == "su2":
        x = rng.standard_normal((count, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return spec.params["lam"] * x
    return np.tile(np.asarray(spec.params["y"], dtype=float), (count, 1))


@pytest.mark.parametrize("spec", [
    orbits.heisenberg_orbit(), orbits.heisenberg_orbit(2.0, -0.5),
    orbits.bargmann_orbit(), orbits.euclid_orbit(2.0, 0.5),
    orbits.euclid_orbit(1.0), orbits.su2_orbit(1.5),
    orbits.torus_orbit([0.5, 2.0])],
    ids=["heisenberg", "heisenberg_k2", "bargmann", "euclid_s", "euclid",
         "su2", "torus"])
def test_sample_rows_match_the_reference_stream(spec):
    # sample draws its points, then maps them through moment: the rows
    # must equal the family-by-family formulas bit for bit
    for seed in (0, 1, 49):
        for count in (1, 7, 1000):
            got = spec.sample(np.random.default_rng(seed), count, box=3.0)
            want = _reference_sample(spec, np.random.default_rng(seed),
                                     count, 3.0)
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# orbit sampling

def test_sampled_points_satisfy_orbit_relations():
    rng = np.random.default_rng(3)
    pts = orbits.euclid_orbit(2.0, 0.5).sample(rng, 200)
    L, P = pts[:, :3], pts[:, 3:]
    assert np.max(np.abs(np.linalg.norm(P, axis=1) - 2.0)) < 1e-10
    assert np.max(np.abs(np.sum(L * P, axis=1) - 2.0 * 0.5)) < 1e-10

    pts = orbits.bargmann_orbit().sample(rng, 200)
    assert np.max(np.abs(pts[:, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(pts[:, 3] - 0.5 * pts[:, 1] ** 2)) < 1e-10

    pts = orbits.su2_orbit(1.5).sample(rng, 200)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.5)) < 1e-10

    pts = orbits.heisenberg_orbit(1.0, 0.0).sample(rng, 50)
    assert np.max(np.abs(pts[:, 0] - 1.0)) < 1e-15

    pts = orbits.torus_orbit([0.5, 2.0]).sample(rng, 4)
    assert np.allclose(pts, [[0.5, 2.0]] * 4, atol=1e-15)


# ---------------------------------------------------------------------------
# sup estimates

def test_single_element_sup_is_modulus():
    spec = orbits.heisenberg_orbit()
    est = orbits.orbit_sup(spec, [[0.3, 1.0, 2.0]],
                           [0.7 + 0.0j])
    assert float(est) == 0.7


def test_euclid_antipodal_translations_reach_two():
    # Z1 = 0, Z2 = gamma e3 with k|gamma| >= pi: phases cover a half turn,
    # so sup |1 - e^{i k gamma u3}| = 2
    spec = orbits.euclid_orbit(2.0)
    Zs = [np.zeros(6), [0, 0, 0, 0, 0, 1.6]]
    est = orbits.orbit_sup(spec, Zs, [1.0, -1.0], budget=20000)
    assert abs(float(est) - 2.0) < 1e-6


def test_su2_single_direction_sup_is_one():
    spec = orbits.su2_orbit(1.0)
    est = orbits.orbit_sup(spec, [[0.0, 0.0, 2.0]], [1.0])
    assert abs(float(est) - 1.0) < 1e-12


def test_pure_center_tuple_is_exact():
    spec = orbits.heisenberg_orbit()
    Zs = [[0.4, 0, 0], [-1.1, 0, 0]]
    cs = [0.6 + 0.2j, -0.3 + 0.8j]
    est = orbits.orbit_sup(spec, Zs, cs)
    want = abs(cs[0] * np.exp(-0.4j) + cs[1] * np.exp(1.1j))
    assert abs(float(est) - want) < 1e-14


def test_torus_sup_is_the_point_value():
    spec = orbits.torus_orbit([2.0])
    Zs = [[1.0], [0.5]]
    cs = [1.0, 1.0j]
    est = orbits.orbit_sup(spec, Zs, cs)
    want = abs(np.exp(2.0j) + 1.0j * np.exp(1.0j))
    assert abs(float(est) - want) < 1e-14


def _mc_sup(spec, Zs, cs, n, seed):
    """Independent oracle: direct dense sampling of the orbit chart."""
    rng = np.random.default_rng(seed)
    pts = spec.sample(rng, n)
    fam = spec.family
    C = np.asarray(Zs, dtype=float)
    if fam == "heisenberg":
        ph = np.outer(pts[:, 1], C[:, 2]) - np.outer(pts[:, 2], C[:, 1]) \
            - np.outer(pts[:, 0], C[:, 0])
    elif fam == "bargmann":
        ph = np.outer(pts[:, 1], C[:, 2]) - np.outer(pts[:, 2], C[:, 1]) \
            - np.outer(pts[:, 3], C[:, 3]) - np.outer(pts[:, 0], C[:, 0])
    elif fam == "euclid":
        ph = pts[:, :3] @ C[:, :3].T + pts[:, 3:] @ C[:, 3:].T
    else:
        ph = pts @ C.T
    return float(np.max(np.abs(np.exp(1j * ph) @ np.asarray(cs))))


def test_sup_dominates_dense_sampling_oracle():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(6):
        th = rng.uniform(0, np.pi)
        d = np.array([np.cos(th), np.sin(th)])
        Zs = [[rng.uniform(-np.pi, np.pi)] + list(rng.uniform(-2, 2) * d)
              for _ in range(3)]
        cases.append((orbits.heisenberg_orbit(), Zs))
    for _ in range(6):
        Zs = [np.concatenate([np.zeros(3), rng.uniform(-2, 2, 3)])
              for _ in range(3)]
        cases.append((orbits.euclid_orbit(2.0), Zs))
    for _ in range(4):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        Zs = [rng.uniform(-3, 3) * v for _ in range(3)]
        cases.append((orbits.su2_orbit(1.3), Zs))
    for spec, Zs in cases:
        cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        est = orbits.orbit_sup(spec, Zs, cs, budget=20000)
        oracle = _mc_sup(spec, Zs, cs, 20000, 13)
        total = float(np.sum(np.abs(cs)))
        # both routes bound the same sup from below, so they can only
        # disagree by search resolution
        assert float(est) >= oracle - 1e-3
        assert float(est) <= total + 1e-9


def test_sup_rejects_non_commuting_tuple():
    spec = orbits.su2_orbit(1.0)
    Zs = [[1.0, 0, 0], [0, 1.0, 0]]
    with pytest.raises(ValueError):
        orbits.orbit_sup(spec, Zs, [1.0, 1.0])


def _line_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# one random commuting tuple per chart of the sup search
EARLY_EXIT_CHARTS = {
    "euclid-sphere": lambda rng: (orbits.euclid_orbit(2.0), [
        np.concatenate([np.zeros(3), rng.uniform(-2, 2, 3)])
        for _ in range(3)]),
    "euclid-strip": lambda rng: (orbits.euclid_orbit(2.0, 1.0), [
        np.concatenate([s * n, t * n])
        for n in [_line_direction(rng)]
        for s, t in rng.uniform(-3, 3, (3, 2))]),
    "heisenberg-line": lambda rng: (orbits.heisenberg_orbit(1.3, 0.0), [
        [a, m * np.cos(th), m * np.sin(th)]
        for th in [rng.uniform(0, np.pi)]
        for a, m in rng.uniform(-3, 3, (3, 2))]),
    "bargmann-ideal": lambda rng: (orbits.bargmann_orbit(), [
        [a, 0.0, g, e]
        for a, g, e in rng.uniform(-2, 2, (3, 3))]),
    "bargmann-boost": lambda rng: (orbits.bargmann_orbit(), [
        [a, m, m * gh, m * eh]
        for gh, eh in [rng.uniform(-2, 2, 2)]
        for a, m in rng.uniform(-3, 3, (3, 2))]),
    "su2-interval": lambda rng: (orbits.su2_orbit(1.5), [
        t * v for v in [_line_direction(rng)]
        for t in rng.uniform(-4, 4, 3)]),
}


@pytest.mark.parametrize("chart", sorted(EARLY_EXIT_CHARTS))
def test_sup_monotone_in_budget(chart):
    # the branch and bound evaluates its points in an order that reads
    # neither the budget nor the target, so budget B runs the first rounds
    # of budget 2B: the value never falls and the sample count never rises
    # as B halves
    rng = np.random.default_rng(29)
    for _ in range(4):
        spec, Zs = EARLY_EXIT_CHARTS[chart](rng)
        cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        prev = None
        for budget in (1000, 2000, 4000, 8000):
            est = orbits.orbit_sup(spec, Zs, cs, budget=budget)
            assert est.stage == len(orbits.STAGES)
            assert est.drawn <= budget
            if prev is not None:
                assert est.value >= prev.value
                assert est.samples >= prev.samples
                assert est.samples - est.drawn == prev.samples - prev.drawn
            prev = est


def test_sup_budget_caps_only_the_refinement():
    # the first partition is always evaluated; a budget of 0, or a
    # negative one, refines nothing
    spec = orbits.euclid_orbit(2.0)
    Zs = [np.zeros(6), [0, 0, 0, 0, 0, 1.6]]
    ests = [orbits.orbit_sup(spec, Zs, [1.0, -1.0], budget=b)
            for b in (-5, 0, 1)]
    assert all(e == ests[0] for e in ests)
    assert ests[0].drawn == 0 and ests[0].stage == len(orbits.STAGES)
    assert ests[0].samples > len(orbits._CUBE_CELLS[0])


@pytest.mark.parametrize("chart", sorted(EARLY_EXIT_CHARTS))
def test_sup_early_exit_matches_full_search_verdicts(chart):
    # with a target the estimate may be smaller, but never above the
    # full-budget value, and never below the target when that is reachable;
    # the stages together are the full search, so its own value is reachable
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec, Zs = EARLY_EXIT_CHARTS[chart](rng)
        cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        full = orbits.orbit_sup(spec, Zs, cs, budget=8000)
        assert full.stage == len(orbits.STAGES) and full.drawn <= 8000
        for t in (0.5 * full.value, full.value):
            cut = orbits.orbit_sup(spec, Zs, cs, budget=8000, target=t)
            assert t - 1e-12 <= cut.value <= full.value + 1e-12
            assert cut.stage <= full.stage and cut.samples <= full.samples
            assert cut.drawn <= (full.drawn if cut.stage == full.stage
                                 else 0)


def test_line_box_settles_a_target_it_cannot_reach_without_certifying():
    # slow phases keep |S| near 0 on the box p in [-50, 50], while the sup
    # over R and the class bound are 2: the first partition's cell bounds
    # lie below the target, so stage 3 settles the row, and its upper
    # bound stays the class bound, which does not refute the target
    spec = orbits.heisenberg_orbit()
    Zs = [[0.0, 0.0, g] for g in (0.0, 1e-3, 2.3e-3)]
    est = orbits.orbit_sup(spec, Zs, [0.5, 0.5, -1.0], budget=8000,
                           target=1.5)
    assert (est.stage, est.drawn) == (3, 0)
    assert est.value < 1.5 < est.upper


@pytest.mark.parametrize("chart", sorted(EARLY_EXIT_CHARTS))
def test_sup_upper_bound_is_sound(chart):
    # the certified upper bound lies above the search's own lower bound and
    # above a dense evaluation of the orbit that the search never sees
    rng = np.random.default_rng(41)
    for _ in range(4):
        spec, Zs = EARLY_EXIT_CHARTS[chart](rng)
        cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        est = orbits.orbit_sup(spec, Zs, cs, budget=8000)
        assert est.upper >= est.value
        assert est.upper >= _mc_sup(spec, Zs, cs, 100000, 19)


# orbit_sup on fixed tuples of each chart (default_rng(31), two per chart,
# no target, an odd budget above two BATCH rounds): the bits of the value
# and the upper bound, the samples and the refinement evaluations
SEARCH_RECORD = {
    "bargmann-boost": [
        ("0x1.def36e0b80f4bp+0", "0x1.df00cf5ad585dp+0", 16644, 16388),
        ("0x1.e455ea0e131b2p+0", "0x1.e455ea1c0ff00p+0", 16644, 16388)],
    "bargmann-ideal": [
        ("0x1.dfac6343402e4p+0", "0x1.dfb1e8347ac43p+0", 16644, 16388),
        ("0x1.35a4e8fd42bd5p+0", "0x1.35a4fd778a6d9p+0", 16644, 16388)],
    "euclid-sphere": [
        ("0x1.27c6969cd5660p+0", "0x1.34b465d9ee1acp+0", 16778, 16388),
        ("0x1.95e9b45b55f8dp+0", "0x1.95ea1cae0e3ebp+0", 16778, 16388)],
    "euclid-strip": [
        ("0x1.eac153a0473d5p+0", "0x1.eadd794017fa7p+0", 16900, 16388),
        ("0x1.14e0870663618p+0", "0x1.14e11db2e4975p+0", 16900, 16388)],
    "heisenberg-line": [
        ("0x1.e46fe42547143p+0", "0x1.e46ff41560ddbp+0", 16644, 16388),
        ("0x1.48bf890dc1edap+0", "0x1.48bfb763ff6c6p+0", 16644, 16388)],
    "su2-interval": [
        ("0x1.96400bed0effep+0", "0x1.96400fa8b9a42p+0", 16651, 16388),
        ("0x1.b4e7888569376p+0", "0x1.b4e7918bf9423p+0", 16651, 16388)],
}


def test_search_keeps_the_recorded_estimates():
    # the search reads no random stream, so the same tuple and budget give
    # the same estimate to the last bit
    rng = np.random.default_rng(31)
    for chart in sorted(EARLY_EXIT_CHARTS):
        for record in SEARCH_RECORD[chart]:
            spec, Zs = EARLY_EXIT_CHARTS[chart](rng)
            cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
            est = orbits.orbit_sup(spec, Zs, cs, budget=2 * orbits.BATCH + 5)
            assert est.stage == len(orbits.STAGES), chart
            assert (est.value.hex(), est.upper.hex(), est.samples,
                    est.drawn) == record, chart


# the signal, first partition, Lipschitz constant and compactness of each
# chart shape that the branch and bound searches
BRANCH_CHARTS = {
    "line": lambda rng, cs: (*orbits._line_chart(
        cs, rng.uniform(-3, 3, 3), rng.uniform(-2, 2, 3),
        rng.uniform(-3, 3, 3), 4.0), False),
    "interval": lambda rng, cs: (*orbits._line_chart(
        cs, rng.uniform(-4, 4, 3), np.zeros(3), np.zeros(3), 1.5), True),
    "sphere": lambda rng, cs: (*orbits._sphere_chart(
        cs, rng.uniform(-4, 4, (3, 3))), True),
    "strip": lambda rng, cs: (*orbits._strip_chart(
        cs, rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3), 2.0, 5.0), False),
}


def _branch_run(value, centre, half, lip, compact, budget, slack):
    """Stages 3 and 4 of one row from a zero lower bound, without a target,
    and the points they evaluated, in order."""
    seen = []

    def record(X):
        seen.append(X.copy())
        return value(X)

    run = orbits._Bound(np.full(1, np.inf), 1e-6, np.zeros(1),
                        np.full(1, np.inf), np.full(1, slack))
    vals, done = orbits._grid(run, 0, record, centre, half, lip, compact)
    assert not done             # no target: stage 4 runs
    orbits._branch_and_bound(run, 0, record, centre, half, lip, vals, budget,
                             compact)
    return orbits.SupEstimate(run.value[0], run.samples[0], run.stage[0],
                              run.drawn[0], run.upper[0]), np.concatenate(seen)


def _dense(rng, centre, half):
    """100,000 uniform points of the box that the partition tiles."""
    lo, hi = centre.min(axis=0) - half, centre.max(axis=0) + half
    return lo + (hi - lo) * rng.uniform(0, 1, (100000, len(lo)))


@pytest.mark.parametrize("shape", sorted(BRANCH_CHARTS))
def test_branch_and_bound_extends_its_shorter_runs(shape):
    # the points stay in the box, the value is the best of them, a smaller
    # budget evaluates a subset of the larger one's points, and on a
    # compact chart the upper bound covers a dense evaluation of the box
    rng = np.random.default_rng(23)
    for _ in range(5):
        cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        value, centre, half, lip, compact = BRANCH_CHARTS[shape](rng, cs)
        lo, hi = centre.min(axis=0) - half, centre.max(axis=0) + half
        slack = orbits.ROUNDING * np.sum(np.abs(cs))
        short, Xs = _branch_run(value, centre, half, lip, compact, 1001,
                                slack)
        full, Xf = _branch_run(value, centre, half, lip, compact, 2002,
                               slack)
        for run, X, budget in ((short, Xs, 1001), (full, Xf, 2002)):
            assert run.samples == len(X) == len(centre) + run.drawn
            assert run.drawn <= budget
            assert np.array_equal(X[:len(centre)], centre)
            assert np.all((X >= lo) & (X <= hi))
            assert run.value == np.max(value(X))
        assert full.value >= short.value
        assert {tuple(x) for x in Xs} <= {tuple(x) for x in Xf}
        if compact:
            assert full.upper <= short.upper
            assert full.upper >= np.max(value(_dense(rng, centre, half)))
        else:
            assert full.upper == np.inf


@pytest.mark.parametrize("shape", sorted(BRANCH_CHARTS))
def test_branch_and_bound_caps_its_open_cells(shape, monkeypatch):
    # with a small batch, cap and first partitions the open list stays
    # bounded (it is ranked before each split and each drop), the dropped
    # cells' bound keeps the compact charts' upper bound above a dense
    # evaluation of the box, and a smaller budget still runs a prefix of
    # the larger one
    monkeypatch.setattr(orbits, "BATCH", 16)
    monkeypatch.setattr(orbits, "OPEN_MAX", 64)
    monkeypatch.setattr(orbits, "_LINE_CELLS", orbits._partition([1.0], [16]))
    monkeypatch.setattr(orbits, "_CUBE_CELLS",
                        orbits._partition([6.0, 1.0], [12, 2]))
    monkeypatch.setattr(orbits, "_STRIP_CELLS",
                        orbits._partition([1.0, 1.0], [8, 2]))
    sizes = []
    rank = orbits._best_first

    def ranked(bound, k):
        sizes.append(len(bound))
        return rank(bound, k)

    monkeypatch.setattr(orbits, "_best_first", ranked)
    rng = np.random.default_rng(29)
    for _ in range(5):
        cs = rng.uniform(0, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        value, centre, half, lip, compact = BRANCH_CHARTS[shape](rng, cs)
        slack = orbits.ROUNDING * np.sum(np.abs(cs))
        short, Xs = _branch_run(value, centre, half, lip, compact, 1001,
                                slack)
        full, Xf = _branch_run(value, centre, half, lip, compact, 2002,
                               slack)
        assert full.value >= short.value
        assert {tuple(x) for x in Xs} <= {tuple(x) for x in Xf}
        if compact:
            assert full.upper >= np.max(value(_dense(rng, centre, half)))
    assert 64 < max(sizes) <= 64 + 2 * 16


def _onto_cube(U):
    """A cube-chart point of each unit vector: the face of its largest
    coordinate, and the other two divided by that coordinate's modulus."""
    i = np.argmax(np.abs(U), axis=1)
    rows = np.arange(len(U))
    top = U[rows, i]
    f = 2 * i + (top > 0)
    scaled = U / np.abs(top)[:, None]
    return np.column_stack([scaled[rows, (i + 1) % 3] + (2.0 * f - 5.0),
                            scaled[rows, (i + 2) % 3]])


def test_cube_chart_is_a_one_lipschitz_cover_of_the_sphere():
    rng = np.random.default_rng(37)
    # unit vectors, and 1-Lipschitz between two points of one face
    f = rng.integers(0, 6, 100000)
    X, Y = (np.column_stack([rng.uniform(-1, 1, 100000) - 5.0 + 2.0 * f,
                             rng.uniform(-1, 1, 100000)]) for _ in range(2))
    U, V = orbits._cube(X), orbits._cube(Y)
    assert np.abs(np.linalg.norm(U, axis=1) - 1.0).max() <= 1e-15
    assert np.all(np.linalg.norm(U - V, axis=1)
                  <= np.linalg.norm(X - Y, axis=1) * (1 + 1e-12))
    # onto: each unit vector has a chart point in the box mapping back to it
    W = orbits._unit(rng.standard_normal((10000, 3)))
    P = _onto_cube(W)
    assert np.all((np.abs(P) <= (6.0, 1.0)))
    assert np.abs(orbits._cube(P) - W).max() <= 1e-15
    # no cell of the first partition spans a face edge x = -4, -2, .., 4,
    # so no cell that halving makes does
    centre, half = orbits._CUBE_CELLS
    assert np.all(np.abs(centre[:, :1] - np.arange(-4.0, 5.0, 2.0))
                  >= half[0])


# each chart shape on a stack: its term arrays after cs, (R, 3) or
# (R, 3, 3), and its other arguments, (R,) arrays or numbers
STACK_CHARTS = {
    "line": (orbits._line_chart, lambda rng, R: (
        [rng.uniform(-3, 3, (R, 3)), rng.uniform(-2, 2, (R, 3)),
         rng.uniform(-3, 3, (R, 3))], [rng.uniform(1, 50, R)])),
    "interval": (orbits._line_chart, lambda rng, R: (
        [rng.uniform(-4, 4, (R, 3)), np.zeros((R, 3)), np.zeros((R, 3))],
        [rng.uniform(0.5, 4, R)])),
    "sphere": (orbits._sphere_chart, lambda rng, R: (
        [rng.uniform(-4, 4, (R, 3, 3))], [])),
    "strip": (orbits._strip_chart, lambda rng, R: (
        [rng.uniform(-3, 3, (R, 3)), rng.uniform(-3, 3, (R, 3))],
        [2.0, 5.0])),
}


@pytest.mark.parametrize("shape", sorted(STACK_CHARTS))
def test_chart_values_do_not_depend_on_the_stack(shape):
    # a chart of a stack of rows, padded with zero terms, gives each row
    # the partition, Lipschitz constant and values, to the last bit, of
    # the chart of that row's own terms
    rng = np.random.default_rng(43)
    rows = 64
    chart, draw = STACK_CHARTS[shape]
    n = rng.integers(1, 4, rows)
    live = np.arange(3) < n[:, None]
    cs = np.where(live, rng.uniform(0, 1, (rows, 3))
                  * np.exp(2j * np.pi * rng.uniform(0, 1, (rows, 3))), 0.0)
    terms, rest = draw(rng, rows)
    terms = [np.where(live if a.ndim == 2 else live[..., None], a, 0.0)
             for a in terms]
    value, centre, half, lip = chart(cs, *terms, *rest)
    vals = value(centre)
    for t in range(rows):
        one = chart(cs[t, :n[t]], *(a[t, :n[t]] for a in terms),
                    *(a[t] if isinstance(a, np.ndarray) else a for a in rest))
        assert np.array_equal(one[1], centre[t] if centre.ndim == 3
                              else centre)
        assert np.array_equal(one[2], half[t] if half.ndim == 2 else half)
        assert one[3] == lip[t]
        assert np.array_equal(one[0](one[1]), vals[t]), t


# stacks of drawn tuples on every chart: the line (Heisenberg, Bargmann),
# the SU(2) interval, and the sphere and strip rows of one Euclid stack
STACK_SPECS = {"heisenberg": orbits.heisenberg_orbit(),
               "bargmann": orbits.bargmann_orbit(),
               "su2": orbits.su2_orbit(1.5),
               "euclid": orbits.euclid_orbit(2.0, 1.0)}


def _stack(spec, rows=96):
    """Drawn tuples (padded to width 3) and targets: inf (a full search)
    on every third row, else a fraction of sum |c_j| that some rows reach
    and some refute."""
    C, cs, n = (a[:rows] for a in orbits._block_tuples(spec, 3, 13, 1))
    rng = np.random.default_rng(5)
    target = np.sum(np.abs(cs), axis=1) * rng.uniform(0.5, 1.0, rows)
    target[::3] = np.inf
    return C, cs, n, target


def _search_stack(spec, C, cs, n, target, budget=700):
    est = orbits._sup_rows(spec, C, cs, n, np.zeros((0, spec.dim)), target,
                           budget, DEFAULT.box_radius)
    return [(v.hex(), u.hex(), int(m), int(g), int(d)) for v, u, m, g, d in
            zip(est.value.tolist(), est.upper.tolist(), est.samples,
                est.stage, est.drawn)]


@pytest.mark.parametrize("family", sorted(STACK_SPECS))
def test_stacked_search_gives_each_row_its_own_search(family):
    # stage 3 runs on the whole stack, yet every row gets the bits of
    # orbit_sup on that row alone: its own terms, unpadded, in a stack of one
    spec = STACK_SPECS[family]
    C, cs, n, target = _stack(spec)
    stacked = _search_stack(spec, C, cs, n, target)
    for t, row in enumerate(stacked):
        est = orbits.orbit_sup(
            spec, C[t, :n[t]], cs[t, :n[t]],
            budget=700, target=target[t])
        assert row == (est.value.hex(), est.upper.hex(), est.samples,
                       est.stage, est.drawn), t
    # the stack exercises stages 3 and 4, on both Euclid charts
    stage = np.array([row[3] for row in stacked])
    assert {3, 4} <= set(stage.tolist())
    if family == "euclid":
        sphere = ~np.any(C[:, :, :3], axis=(1, 2))
        assert np.any(sphere & (stage >= 3)) and np.any(~sphere & (stage >= 3))


@pytest.mark.parametrize("family", sorted(STACK_SPECS))
def test_stacked_search_does_not_depend_on_the_chunk_size(family,
                                                          monkeypatch):
    spec = STACK_SPECS[family]
    C, cs, n, target = _stack(spec)
    runs = [_search_stack(spec, C, cs, n, target)]
    for cells in (1, 10 ** 9):        # one row per chunk; the whole stack
        monkeypatch.setattr(orbits, "GRID_CELLS", cells)
        runs.append(_search_stack(spec, C, cs, n, target))
    assert runs[1] == runs[0] and runs[2] == runs[0]


# ---------------------------------------------------------------------------
# the quantum check

QUANTUM_CASES = [
    ("heisenberg_loc_p", dict(k=1.3), orbits.heisenberg_orbit(1.3, 0.0)),
    ("heisenberg_loc_t", dict(k=0.5, l=1.0, t=0.4),
     orbits.heisenberg_orbit(0.5, 1.0)),
    ("bargmann_loc_pe", dict(k=1.0), orbits.bargmann_orbit()),
    ("euclid_spherical", dict(k=2.0), orbits.euclid_orbit(2.0)),
    ("euclid_cylindrical", dict(k=2.0), orbits.euclid_orbit(2.0)),
    ("su2_highest_weight", dict(j=1.0), orbits.su2_orbit(1.0)),
]


@pytest.mark.parametrize("kind,params,spec", QUANTUM_CASES)
def test_quantum_check_passes_for_localized_states(kind, params, spec):
    st = states.make_state(kind, **params)
    rep = orbits.quantum_check(st, spec, trials=150, n_max=3, budget=4000,
                               seed=2)
    assert rep["pass"], rep["failures"][:1]
    assert rep["worst_margin"] >= -1e-6
    assert len(rep["margins"]) == 150


def test_quantum_check_torus_character():
    st = states.make_state(
        "custom", family="torus",
        evaluator=lambda g: np.exp(2j * g[0]))
    rep = orbits.quantum_check(st, orbits.torus_orbit([2.0]), trials=100,
                               n_max=3, budget=100, seed=4)
    assert rep["pass"]


def test_relation_residuals_vanish_on_orbit_samples():
    rng = np.random.default_rng(9)
    for spec in (orbits.heisenberg_orbit(), orbits.bargmann_orbit(),
                 orbits.euclid_orbit(2.0, 1.0), orbits.su2_orbit(1.5),
                 orbits.torus_orbit([1.0, 2.0])):
        res = orbits.relation_residuals(spec, spec.sample(rng, 200))
        assert res.shape == (200,) and res.max() <= 1e-10
    off = orbits.relation_residuals(orbits.euclid_orbit(1.0),
                                    np.array([[0, 0, 1.0, 0, 0, 2.0]]))
    # |P| - k = 1 relative to max(1, k) = 1, and L.P - k s = 2 relative to
    # max(1, |L| |P|) = 2
    assert off.tolist() == [1.0]


@pytest.mark.parametrize("k", [300.0, 2.9e5])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_euclid_relations_hold_on_samples_of_large_orbits(k, s):
    # L = k r x u + s u reaches |L| = k box_radius, so L.P cancels terms of
    # size k^2 box_radius: the defects are read relative to them
    spec = orbits.euclid_orbit(k, s)
    pts = spec.sample(np.random.default_rng(1), 1000)
    assert np.max(orbits.relation_residuals(spec, pts)) <= DEFAULT.relation


@pytest.mark.parametrize("k", [1.0, 300.0, 2.9e5])
def test_euclid_relations_still_reject_a_stretched_momentum(k):
    # |P| = k (1 + 1e-6) with L.P = k s exact still fails the gate
    spec = orbits.euclid_orbit(k, 1.0)
    P = np.array([0.0, 0.0, k * (1 + 1e-6)])
    L = np.array([3.0, -2.0, k / P[2]])
    res = orbits.relation_residuals(spec, np.concatenate([L, P])[None])
    assert np.sum(L * P) == k * 1.0
    assert res[0] > DEFAULT.relation


def test_off_orbit_anchor_certifies_nothing():
    # euclid_plane(2, 1) is localized at w = (0, 0, 1, 0, 0, 2), which is
    # not on the orbit |P| = 1: used as an anchor it certified false passes
    st = states.make_state("euclid_plane", k=2.0, s=1)
    spec = orbits.euclid_orbit(1.0, 0.0)
    rep = orbits.quantum_check(st, spec, trials=300, seed=0)
    assert not rep["pass"] and rep["failures"]
    assert rep["worst_margin"] < -0.1
    assert orbits._state_anchors(st, spec).shape == (0, 6)


# anchor-stage counts of the nine criterion-08 pairs (500 trials, seed 8):
# each state's localization point is on its orbit and stays an anchor
CERTIFY_ANCHORS = [
    ("euclid_plane", dict(k=2.0, s=1), orbits.euclid_orbit(2.0, 1.0), 467),
    ("euclid_spherical", dict(k=2.0), orbits.euclid_orbit(2.0), 148),
    ("euclid_cylindrical", dict(k=2.0, eps=1), orbits.euclid_orbit(2.0), 192),
    ("heisenberg_loc_p", dict(k=1.3), orbits.heisenberg_orbit(1.3, 0.0), 468),
    ("heisenberg_loc_q", dict(l=0.8), orbits.heisenberg_orbit(0.0, 0.8), 466),
    ("heisenberg_loc_t", dict(k=0.5, l=1.0, t=0.4),
     orbits.heisenberg_orbit(0.5, 1.0), 445),
    ("bargmann_loc_pe", dict(k=1.0), orbits.bargmann_orbit(), 483),
    ("bargmann_loc_q", dict(l=0.8), orbits.bargmann_orbit(), 469),
    ("su2_highest_weight", dict(j=1.5), orbits.su2_orbit(1.5), 500),
]


@pytest.mark.parametrize("kind,params,spec,anchored", CERTIFY_ANCHORS)
def test_on_orbit_anchors_are_kept(kind, params, spec, anchored):
    st = states.make_state(kind, **params)
    loc = st.localization or {}
    assert len(orbits._state_anchors(st, spec)) == ("x" in loc or "w" in loc)
    rep = orbits.quantum_check(st, spec, trials=500, budget=100000, seed=8)
    assert rep["pass"] and rep["stages"]["anchor"] == anchored


# the character kinds with the orbits their CERTIFY_ANCHORS rows use, and
# the center, whose x = (1, 0, 0) lies on every Heisenberg orbit
ANCHORED_CHARACTERS = [row[:3] for row in CERTIFY_ANCHORS
                       if row[2].family in ("heisenberg", "bargmann")]
CHARACTER_ORBITS = ANCHORED_CHARACTERS + [
    ("heisenberg_center", {}, orbits.heisenberg_orbit())]


def _in_subgroup(loc, X):
    """Which rows of a (..., d) stack are the combination of H's rows that
    their pivots pick."""
    off = X - X.take(loc["pivots"], -1) @ loc["H"]
    return (np.abs(off) <= DEFAULT.delta).all(-1)


def _character_blocks(kind, params, spec):
    """The state, and blocks 0-1 of quantum_check's tuples at seeds 0-9."""
    st = states.make_state(kind, **params)
    return st, [orbits._block_tuples(spec, 3, seed, block)
                for seed in range(10) for block in range(2)]


@pytest.mark.parametrize("kind,params,spec", CHARACTER_ORBITS)
def test_anchor_meets_the_left_side_to_the_last_bit(kind, params, spec):
    # on a tuple whose terms all lie in h, stage 1 evaluates the state's
    # own x to the left side exactly, so the trial settles at the anchor
    st, blocks = _character_blocks(kind, params, spec)
    x = np.array(st.localization["x"], dtype=float)[None]
    inside = 0
    for C, cs, n in blocks:
        rows = _in_subgroup(st.localization, C).all(-1)
        anchor = orbits._signal(groups.pairing_coords(
            st.family, x[:, None], C[:, None]), cs[:, None])[:, 0]
        lhs = orbits._left_sides(st, C, cs)
        assert np.array_equal(anchor[rows], lhs[rows]), kind
        inside += np.sum(rows)
    assert inside >= 200


@pytest.mark.parametrize("kind,params,spec", ANCHORED_CHARACTERS)
def test_algebra_and_group_masks_agree_on_drawn_tuples(kind, params, spec):
    # exp_values tests [Z in h] and evaluate tests [log g in h]: on the
    # drawn tuples both pick the set [exp Z in H] picks
    st, blocks = _character_blocks(kind, params, spec)
    for C, cs, n in blocks:
        assert np.array_equal(_in_subgroup(st.localization, C), _in_subgroup(
            st.localization, groups.exp_coords(st.family, C))), kind


def test_constant_one_is_rejected_with_witness():
    one = states.make_state("constant_one", family="heisenberg")
    spec = orbits.heisenberg_orbit(1.0, 0.0)
    rep = orbits.quantum_check(one, spec, trials=10, n_max=3, budget=2000,
                               seed=0)
    assert not rep["pass"]
    first = rep["failures"][0]
    # the deterministic opening probe: c = (1, 1) on the identity direction
    # and a half-turn of the center, giving |1 + 1| vs |1 + e^{-i pi}|
    assert first["trial"] == 0
    assert abs(first["lhs"] - 2.0) < 1e-12
    assert first["rhs"] < 1e-9
    assert first["margin"] < -1.9


@pytest.mark.parametrize("j,lam", [(2, 1.0), (1.5, 0.5)])
def test_su2_probe_refutes_spins_above_lambda(j, lam):
    st = states.su2_highest_weight(j)
    for seed in range(10):
        rep = orbits.quantum_check(st, orbits.su2_orbit(lam), trials=1,
                                   budget=100000, seed=seed)
        assert not rep["pass"]
        assert rep["failures"][0]["trial"] == 0
        assert rep["failures"][0]["margin"] < -0.2


@pytest.mark.parametrize("j,lam", [(1, 1.0), (0.5, 1.0), (1.5, 2.5), (4, 4.0)])
def test_su2_probe_holds_for_spins_up_to_lambda(j, lam):
    st = states.su2_highest_weight(j)
    rep = orbits.quantum_check(st, orbits.su2_orbit(lam), trials=1,
                               budget=1000, seed=0)
    assert rep["margins"][0] >= -1e-12


def test_quantum_check_same_seed_repeats_exactly():
    st = states.make_state("euclid_spherical", k=2.0)
    spec = orbits.euclid_orbit(2.0)
    a, b = (orbits.quantum_check(st, spec, trials=40, budget=2000, seed=9)
            for _ in range(2))
    assert a == b
    assert sum(a["stages"].values()) == 40
    assert list(a["stages"]) == list(orbits.STAGES)


def test_quantum_check_seeds_draw_independent_trials():
    # tuple blocks are drawn from streams keyed by (seed, block), so two
    # seeds share no drawn tuple
    spec = orbits.heisenberg_orbit(1.3, 0.0)
    first = len(orbits._canonical_probes(spec))
    drawn = []
    for seed in (0, 1):
        keys = set()
        for block in (0, 1):
            C, cs, n = orbits._block_tuples(spec, 3, seed, block)
            for t in range(first if block == 0 else 0, orbits.BLOCK):
                keys.add(np.concatenate([C[t, :n[t]].ravel(),
                                         cs[t, :n[t]].view(float)]).tobytes())
        drawn.append(keys)
    assert len(drawn[0]) == len(drawn[1]) == 2 * orbits.BLOCK - first
    assert not drawn[0] & drawn[1]


DRAW_SPECS = [orbits.heisenberg_orbit(1.3, 0.0), orbits.bargmann_orbit(),
              orbits.euclid_orbit(2.0, 1.0), orbits.su2_orbit(1.5),
              orbits.torus_orbit([1.0, 2.0])]


@pytest.mark.parametrize("spec", DRAW_SPECS, ids=lambda s: s.family)
def test_whitelisted_draws_commute_and_pad_with_zeros(spec):
    # quantum_check skips groups.commuting on its draws, so every drawn
    # tuple must commute by construction
    C, cs, n = orbits._block_tuples(spec, 4, 3, 0)
    assert C.shape == (orbits.BLOCK, 4, spec.dim)
    assert set(n) == {1, 2, 3, 4}
    for t in range(orbits.BLOCK):
        assert groups.commuting(spec.family, C[t, :n[t]])
    pad = np.arange(4) >= n[:, None]
    assert not np.any(C[pad]) and not np.any(cs[pad])
    assert np.all(cs[~pad] != 0)


AD_SPECS = [orbits.heisenberg_orbit(), orbits.bargmann_orbit(),
            orbits.euclid_orbit(1, 0), orbits.euclid_orbit(2, 1),
            orbits.su2_orbit(1), orbits.torus_orbit([1.0, 2.0])]


@pytest.mark.parametrize("spec", AD_SPECS,
                         ids=["heisenberg", "bargmann", "euclid-1-0",
                              "euclid-2-1", "su2", "torus"])
def test_conjugate_tuples_have_meeting_sup_brackets(spec):
    # the orbit is Ad*-invariant, so a tuple (Z_j) and its conjugate
    # (Ad(g) Z_j) have one orbit sup, and each certified lower bound must
    # lie below the other's certified upper bound
    rows = 64
    C, cs, n = (a[:rows] for a in orbits._block_tuples(spec, 3, 0, 1))
    gs = groups.random_elements(spec.family, np.random.default_rng(0), rows,
                                dim=spec.dim)
    D = groups.adjoint_coords(spec.family, gs[:, None], C)
    a, b = (orbits._sup_rows(spec, X, cs, n, np.zeros((0, spec.dim)), np.inf,
                             2000, DEFAULT.box_radius) for X in (C, D))
    slack = orbits.ROUNDING * np.sum(np.abs(cs), axis=1)
    assert np.all(a.value <= b.upper + slack)
    assert np.all(b.value <= a.upper + slack)


def test_witnesses_carry_no_padding():
    one = states.make_state("constant_one", family="bargmann")
    rep = orbits.quantum_check(one, orbits.bargmann_orbit(), trials=300,
                               n_max=3, budget=500, seed=6)
    tuples = [np.concatenate(a) for a in zip(
        *(orbits._block_tuples(orbits.bargmann_orbit(), 3, 6, b)
          for b in (0, 1)))]
    sizes = set()
    for f in rep["failures"]:
        C, cs, n = (a[f["trial"]] for a in tuples)
        assert f["Zs"] == C[:n].tolist()
        assert f["cs"] == [[c.real, c.imag] for c in cs[:n].tolist()]
        sizes.add(int(n))
    assert 2 in sizes      # shorter than the padded width of 3


def test_quantum_check_trials_are_prefix_stable():
    # a refuted pair on which some failures escape the class upper bound,
    # so trials reach stage 5; 300 trials span two blocks
    st = states.make_state("constant_one", family="heisenberg")
    spec = orbits.heisenberg_orbit()
    short, full = (orbits.quantum_check(st, spec, trials=t, budget=2000,
                                        seed=3) for t in (100, 300))
    assert short["margins"] == full["margins"][:100]
    assert short["failures"] == [f for f in full["failures"]
                                 if f["trial"] < 100]
    assert full["stages"]["search"] > 0


# the nine localized pairs of acceptance criterion 08 and four false ones
SETTLE_PAIRS = [
    ("euclid_plane", dict(k=2.0, s=1), orbits.euclid_orbit(2.0, 1.0)),
    ("euclid_spherical", dict(k=2.0), orbits.euclid_orbit(2.0)),
    ("euclid_cylindrical", dict(k=2.0, eps=1), orbits.euclid_orbit(2.0)),
    ("heisenberg_loc_p", dict(k=1.3), orbits.heisenberg_orbit(1.3, 0.0)),
    ("heisenberg_loc_q", dict(l=0.8), orbits.heisenberg_orbit(0.0, 0.8)),
    ("heisenberg_loc_t", dict(k=0.5, l=1.0, t=0.4),
     orbits.heisenberg_orbit(0.5, 1.0)),
    ("bargmann_loc_pe", dict(k=1.0), orbits.bargmann_orbit()),
    ("bargmann_loc_q", dict(l=0.8), orbits.bargmann_orbit()),
    ("su2_highest_weight", dict(j=1.5), orbits.su2_orbit(1.5)),
    ("constant_one", dict(family="heisenberg"), orbits.heisenberg_orbit()),
    ("constant_one", dict(family="bargmann"), orbits.bargmann_orbit()),
    ("su2_highest_weight", dict(j=1.5), orbits.su2_orbit(0.5)),
    ("su2_highest_weight", dict(j=2), orbits.su2_orbit(1.0)),
]


@pytest.mark.parametrize("kind,params,spec", SETTLE_PAIRS)
def test_rows_settled_together_equal_rows_settled_alone(kind, params, spec):
    # each trial of a block, run through orbit_sup as a stack of one with
    # its own left side, stops at the same stage with the same margin
    st = states.make_state(kind, **params)
    anchors = orbits._state_anchors(st, spec)
    eps = 1e-6
    for seed in (0, 5, 11):
        C, cs, n, lhs, est = orbits._trials(st, spec, 3, 2000, seed, 0, 64)
        for t in range(64):
            c = cs[t, :n[t]]
            alone_lhs = orbits._left_sides(st, C[t:t + 1, :n[t]], c[None])[0]
            alone = orbits.orbit_sup(
                spec, C[t, :n[t]], c,
                budget=2000, anchors=anchors, target=alone_lhs)
            margin = est.value[t] - lhs[t]
            assert alone.stage == est.stage[t], (seed, t)
            assert abs(alone.value - alone_lhs - margin) <= 1e-12, (seed, t)
            assert (alone.value - alone_lhs < -eps) == (margin < -eps)
    rep = orbits.quantum_check(st, spec, trials=64, budget=2000, seed=11)
    assert rep["margins"] == (est.value - lhs).tolist()


@pytest.mark.parametrize("kind,params,spec", SETTLE_PAIRS[9:])
def test_certified_failures_fail_the_full_search(kind, params, spec):
    # a witness settled by its upper bound skips the later stages; the
    # full search, run without a target (every stage for a row that is not
    # exact at stage 1), still finds no point that lifts the sup to within
    # eps of the left side
    eps = 1e-6
    rep = orbits.quantum_check(states.make_state(kind, **params), spec,
                               trials=500, budget=100000, seed=5)
    certified = [f for f in rep["failures"] if f["certified"]]
    assert certified and rep["certified_failures"] == len(certified)
    for f in certified:
        full = orbits.orbit_sup(
            spec, f["Zs"],
            [complex(a, b) for a, b in f["cs"]], budget=100000)
        assert full.drawn <= (0 if full.stage == 1 else 100000)
        assert full.value < f["lhs"] - eps, f["trial"]
        assert full.value <= f["upper"] < f["lhs"] - eps


# the failing trials of the four false pairs (500 trials, budget 100,000)
# at seeds 0 and 5, and those of them whose upper bound does not certify
# the failure
REFUTE_RECORD = [
    ((0, 20, 45, 46, 106, 144, 212, 233, 296, 319, 337, 344, 384, 399), ()),
    ((0, 11, 37, 66, 96, 108, 120, 122, 221, 261, 264, 266, 352, 372, 392,
      436, 476), (372,)),
    ((0, 43, 92, 138, 191, 229, 271, 304, 306, 378, 442), ()),
    ((0, 19, 87, 192, 215, 224, 309, 343), ()),
    ((0, 3, 38, 118, 119, 126, 134, 136, 141, 174, 201, 208, 261, 323, 377,
      386, 391, 441), ()),
    ((0, 68, 75, 77, 82, 131, 136, 148, 197, 228, 289, 344, 349, 430, 456,
      492, 494), ()),
    ((0, 3, 126, 201, 261, 386, 428), ()),
    ((0, 77, 344, 456), ()),
]


def test_refute_pairs_keep_their_verdicts():
    # a guard for rewrites of the search: the same trials fail, and the
    # same failures are certified
    got = []
    for kind, params, spec in SETTLE_PAIRS[9:]:
        st = states.make_state(kind, **params)
        for seed in (0, 5):
            rep = orbits.quantum_check(st, spec, trials=500, budget=100000,
                                       seed=seed)
            got.append((tuple(f["trial"] for f in rep["failures"]),
                        tuple(f["trial"] for f in rep["failures"]
                              if not f["certified"])))
    assert got == REFUTE_RECORD


def test_euclid_failures_are_certified_on_the_sphere():
    # at n_max = 4 constant_one fails on euclid_orbit(1) only on pure
    # translation tuples, whose sphere chart the branch and bound covers,
    # so every failure carries an upper bound below its left side
    one = states.make_state("constant_one", family="euclid")
    rep = orbits.quantum_check(one, orbits.euclid_orbit(1.0), trials=2000,
                               n_max=4, budget=100000, seed=1)
    assert len(rep["failures"]) == rep["certified_failures"] == 3
    for f in rep["failures"]:
        assert f["rhs"] <= f["upper"] < f["lhs"] - 1e-6


@pytest.mark.parametrize("Zs,cs", [
    # the canonical probe: its sup 2 is attained at p* = 0
    ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0]),
    # a beat period near 2,600, so p* lies far outside the searched box
    ([[0.4, 0.0, 1.7958], [-3.0, 0.0, 1.7982]],
     [-0.25 - 0.25j, -0.26 - 0.06j])])
def test_two_class_line_rows_reach_their_sup_at_stage_2(Zs, cs):
    # two (gamma, eps) classes: the sup over the line is |c_1| + |c_2|
    exact = abs(cs[0]) + abs(cs[1])
    est = orbits.orbit_sup(orbits.heisenberg_orbit(),
                           Zs, cs,
                           target=exact - 1e-12)
    assert est.stage == 2
    assert abs(est.value - exact) <= 1e-12


def _axis_line_tuple(family, rng, n):
    """n commuting terms whose coordinates hold exact zeros: Heisenberg
    terms on the beta or the gamma axis, Bargmann ideal terms or boosts
    with ghat = ehat = 0; about half of them central."""
    al = rng.uniform(-np.pi, np.pi, n)
    mu = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(-3, 3, n))
    z = np.zeros(n)
    if family == "heisenberg":
        cols = [al, mu, z] if rng.uniform() < 0.5 else [al, z, mu]
    elif rng.uniform() < 0.5:
        ep = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(-2, 2, n))
        cols = [al, z, mu, ep]
    else:
        cols = [al, mu, z, z]
    return np.column_stack(cols)


@pytest.mark.parametrize("kind,params,spec", SETTLE_PAIRS[3:8])
def test_anchor_and_class_sums_meet_a_localized_left_side(kind, params, spec):
    # on these tuples the terms in H are either all of them (the anchor's
    # value is the left side) or exactly the central ones (the zero class's
    # sum is): stages 1-2 must meet the left side to the last bit, with
    # terms enough that summing in another order rounds differently
    st = states.make_state(kind, **params)
    anchors = orbits._state_anchors(st, spec)
    rng = np.random.default_rng(31)
    for _ in range(200):
        C = _axis_line_tuple(spec.family, rng, 8)
        cs = rng.uniform(0, 1, 8) * np.exp(2j * np.pi * rng.uniform(0, 1, 8))
        lhs = orbits._left_sides(st, C[None], cs[None])[0]
        est = orbits.orbit_sup(spec, C, cs,
                               anchors=anchors, target=lhs)
        assert est.stage <= 2 and est.value >= lhs


def test_quantum_check_two_dimensional_torus_character():
    def character(y):
        return states.make_state("custom", family="torus",
                                 evaluator=lambda g: np.exp(1j * (y @ g)))

    spec = orbits.torus_orbit([1.0, 2.0])
    good = orbits.quantum_check(character(np.array([1.0, 2.0])), spec,
                                trials=100, budget=100, seed=4)
    bad = orbits.quantum_check(character(np.array([2.0, 1.0])), spec,
                               trials=100, budget=100, seed=4)
    assert good["pass"] and good["worst_margin"] >= -1e-9
    assert not bad["pass"]
    assert all(len(Z) == 2 for f in bad["failures"] for Z in f["Zs"])


def test_quantum_check_report_fields():
    st = states.make_state("heisenberg_loc_p", k=1.0)
    rep = orbits.quantum_check(st, orbits.heisenberg_orbit(1.0, 0.0),
                               trials=5, budget=500, seed=1)
    for key in ("state", "family", "trials", "budget", "samples_drawn",
                "stages", "seed", "worst_margin", "margins", "failures",
                "certified_failures", "pass"):
        assert key in rep
    # criterion 08's refutation: the opening probe is exact at stage 1, so
    # its upper bound is its value, |1 + e^{-i pi}|, and certifies the
    # failure
    one = states.make_state("constant_one", family="heisenberg")
    rep = orbits.quantum_check(one, orbits.heisenberg_orbit(), trials=10,
                               n_max=3, budget=100000, seed=8)
    for f in rep["failures"]:
        assert f["rhs"] <= f["upper"]
        assert f["certified"] == (f["upper"] < f["lhs"] - 1e-6)
    assert rep["certified_failures"] == sum(f["certified"]
                                            for f in rep["failures"])
    first = rep["failures"][0]
    assert first["trial"] == 0 and first["certified"]
    assert first["upper"] < 1e-8


# ---------------------------------------------------------------------------
# the interval-filling projection

def test_kostant_projection_fills_interval():
    d = orbits.kostant_projection_check(1.0, n_samples=100000, seed=0)
    assert d < 0.01
    d = orbits.kostant_projection_check(2.5, n_samples=100000, seed=1,
                                        axis=[1.0, 1.0, 0.0])
    assert d < 0.025


def test_kostant_distance_shrinks_with_samples():
    coarse = orbits.kostant_projection_check(1.0, n_samples=200, seed=3)
    fine = orbits.kostant_projection_check(1.0, n_samples=50000, seed=3)
    assert fine < coarse
