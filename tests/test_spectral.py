import numpy as np
import pytest

import oracles
from orbitstates import groups, spectral, states


# ---------------------------------------------------------------------------
# restriction to a one-parameter subgroup

FLOW_CASES = [
    ("heisenberg_loc_t", dict(k=0.5, l=1.1, t=0.3),
     ("heisenberg", [0.2, 0.7, -0.4])),
    ("bargmann_loc_pe", dict(k=1.2), ("bargmann", [0.1, 0.6, -0.3, 0.8])),
    ("euclid_spherical", dict(k=2.0),
     ("euclid", [0.3, -0.2, 0.4, 1.0, 0.5, -0.7])),
    ("euclid_cylindrical", dict(k=1.5),
     ("euclid", [0.0, 0.0, 0.9, 0.2, -0.3, 0.5])),
    ("su2_highest_weight", dict(j=1.5), ("su2", [0.4, -1.0, 0.6])),
]


@pytest.mark.parametrize("kind,params,zc", FLOW_CASES)
def test_flow_values_match_pointwise_evaluation(kind, params, zc):
    st = states.make_state(kind, **params)
    Z = groups.algebra(*zc)
    ts = np.linspace(-2.0, 2.0, 41)
    fast = spectral.flow_values(st, Z, ts)
    slow = np.array([states.evaluate(st, groups.exp(
        groups.algebra(zc[0], t * np.asarray(zc[1])))) for t in ts])
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_flow_values_custom_state_route():
    st = states.make_state("custom", family="torus",
                           evaluator=lambda g: np.exp(1j * g.data[0]))
    Z = groups.algebra("torus", [1.0])
    ts = np.array([0.0, 0.5, 2.0])
    assert np.allclose(spectral.flow_values(st, Z, ts), np.exp(1j * ts),
                       atol=1e-14)


# ---------------------------------------------------------------------------
# atom estimates

def test_pure_character_gives_unit_atom():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = groups.algebra("heisenberg", [0, 0, 1.0])
    a = spectral.bohr_atom(st, Z, 1.3)
    assert abs(a.mass - 1.0) < 1e-12
    off = spectral.bohr_atom(st, Z, 0.55, T=400.0)
    assert abs(off.mass) < 0.02


@pytest.mark.parametrize("kind,params,zc", FLOW_CASES)
def test_bohr_atoms_equal_per_frequency_bohr_atom(kind, params, zc):
    st = states.make_state(kind, **params)
    Z = groups.algebra(*zc)
    omegas = [-1.7, -0.5, 0.0, 0.3, 2.25]
    T = 40.0 * np.pi
    atoms = spectral.bohr_atoms(st, Z, omegas, T, N=2 ** 12)
    assert atoms == [spectral.bohr_atom(st, Z, om, T=T, N=2 ** 12)
                     for om in omegas]


def test_atom_scan_recovers_two_frequencies():
    st = states.make_state("custom", family="torus",
                           evaluator=lambda g: 0.25 * np.exp(2j * g.data[0])
                           + 0.75 * np.exp(-1j * g.data[0]))
    Z = groups.algebra("torus", [1.0])
    atoms, resid, _ = spectral.atom_scan(st, Z, T=64 * np.pi)
    assert len(atoms) == 2
    (om1, m1), (om2, m2) = atoms
    # scan refinement is leakage-limited; exact-frequency means are tested
    # separately at machine precision
    assert abs(om1 + 1.0) < 1e-4 and abs(m1 - 0.75) < 1e-3
    assert abs(om2 - 2.0) < 1e-4 and abs(m2 - 0.25) < 1e-3
    assert np.max(np.abs(resid)) < 0.02


def test_su2_atoms_follow_the_eigenvector_law():
    rng = np.random.default_rng(3)
    for two_j in (2, 5):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
        th = float(np.linalg.norm(v))
        st = states.make_state("su2_highest_weight", j=two_j / 2)
        Z = groups.algebra("su2", v)
        T = 2 * np.pi * 64 / th  # whole number of base periods: exact means
        want = {round(2 * m) / 2: w
                for m, w in oracles.spin_masses(two_j, v / th).items()}
        also = oracles.binomial_masses(two_j, v[2] / th)
        for m, w in want.items():
            assert abs(w - also[m]) < 1e-12
            a = spectral.bohr_atom(st, Z, m * th, T=T)
            assert abs(a.mass - w) < 1e-12
        # removing the predicted atoms leaves no spectral mass anywhere
        ts = spectral._midpoints(T, 2 ** 14)
        y = spectral.flow_values(st, Z, ts)
        for m, w in want.items():
            y = y - w * np.exp(1j * m * th * ts)
        _, means = spectral._lattice_means(y, T, 2 ** 14)
        assert np.max(np.abs(means)) < 1e-10


def test_atom_scan_finds_spin_atoms():
    # su2 j = 4 on a generic axis; a whole number of base periods puts
    # every atom m |Z| on the frequency lattice.  The other atoms' leakage
    # still tilts each peak of |Bohr mean|, by O(1 / T^2), so T is long
    v = np.array([0.7, -1.1, 0.45])
    th = float(np.linalg.norm(v))
    st = states.make_state("su2_highest_weight", j=4.0)
    T = 2 * np.pi * 512 / th
    atoms, _, _ = spectral.atom_scan(st, groups.algebra("su2", v), T)
    want = {round(m): w for m, w in oracles.spin_masses(8, v / th).items()}
    found = set()
    for om, mass in atoms:
        m = round(om / th)
        assert abs(om - m * th) < 1e-6
        assert abs(mass - want[m]) < 1e-6
        found.add(m)
    floor = spectral.ATOM_FACTOR / T
    assert {m for m, w in want.items() if w > floor} <= found
    assert len(found) == len(atoms) >= 5


# ---------------------------------------------------------------------------
# full estimates and classification

def test_position_localized_state_along_gamma_is_atomic():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = groups.algebra("heisenberg", [0, 0, 1.0])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "atomic"
    assert len(est.atoms) == 1
    om, mass = est.atoms[0]
    assert abs(om - 1.3) < 1e-3 and abs(mass - 1.0) < 1e-3
    assert est.imag_residue < 1e-6


def test_position_localized_state_along_beta_is_haar():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = groups.algebra("heisenberg", [0, 1.0, 0])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "haar_on_bohr"
    assert est.atoms == [] and est.density is None


def test_momentum_localized_state_atom_sign_convention():
    # the pairing puts position l at frequency -l along the boost direction
    st = states.make_state("bargmann_loc_q", l=0.8)
    Z = groups.algebra("bargmann", [0, 1.0, 0, 0])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "atomic"
    om, mass = est.atoms[0]
    assert abs(om + 0.8) < 1e-3 and abs(mass - 1.0) < 1e-3


def test_momentum_localized_state_spreads_under_the_flow():
    st = states.make_state("bargmann_loc_q", l=0.8)
    for t in (0.4, -1.3):
        Z = groups.algebra("bargmann", [0, 1.0, -t, 0])
        est = spectral.density_estimate(st, Z)
        assert est.classification == "haar_on_bohr"
    for phi in (0.3, 2.0):
        Z = groups.algebra("bargmann", [0, 0, np.cos(phi), np.sin(phi)])
        est = spectral.density_estimate(st, Z)
        assert est.classification == "haar_on_bohr"


def test_spherical_state_gives_uniform_density():
    st = states.make_state("euclid_spherical", k=2.0)
    r = np.array([0.3, -0.4, 0.5])
    Z = groups.algebra("euclid", np.concatenate([np.zeros(3), r]))
    est = spectral.density_estimate(st, Z)
    assert est.classification == "uniform_density"
    assert est.atoms == []
    omegas, dens = est.density
    edge = 2.0 * np.linalg.norm(r)
    assert abs(est.total_mass_accounted - 1.0) < 0.02
    # flat plateau at 1/(2 edge), empty well outside the band
    inside = np.abs(omegas) < 0.8 * edge
    outside = np.abs(omegas) > 1.3 * edge
    assert np.max(np.abs(dens[inside] - 1.0 / (2 * edge))) < 0.02 / edge
    assert np.max(np.abs(dens[outside])) < 1e-3


def test_band_edge_on_a_lattice_point_is_still_uniform():
    # k |r| = sqrt 3 puts a frequency-lattice point on the window-smoothed
    # band edge, between 0.5 and 0.75 of the plateau
    st = states.make_state("euclid_spherical", k=2.0)
    Z = groups.algebra("euclid", [0, 0, 0, 0.5, 0.5, 0.5])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "uniform_density"
    assert abs(est.total_mass_accounted - 1.0) < 0.02


def test_sinc_squared_triangle_is_not_flat():
    # restriction sinc^2(t): a triangle density on [-2, 2]
    st = states.make_state(
        "custom", family="euclid",
        evaluator=lambda g: np.sinc(np.linalg.norm(g.data[1]) / np.pi) ** 2)
    Z = groups.algebra("euclid", [0, 0, 0, 1.0, 0, 0])
    est = spectral.density_estimate(st, Z, N=2 ** 12)
    assert est.classification == "mixed"
    assert est.atoms == []
    assert abs(est.total_mass_accounted - 1.0) < 0.02


def test_mixture_is_classified_mixed():
    st = states.make_state(
        "custom", family="euclid",
        evaluator=lambda g: 0.5 + 0.5 * np.sinc(2.0 * np.linalg.norm(
            g.data[1]) / np.pi))
    Z = groups.algebra("euclid", [0, 0, 0, 0, 0, 1.0])
    est = spectral.density_estimate(st, Z, N=2 ** 12)
    assert est.classification == "mixed"
    assert any(abs(om) < 1e-3 and abs(m - 0.5) < 1e-2 for om, m in est.atoms)
    assert est.total_mass_accounted > 0.95


def test_concentration_check_point_and_interval():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = groups.algebra("heisenberg", [0, 0, 1.0])
    est = spectral.density_estimate(st, Z)
    ok = spectral.concentration_check(est, {"type": "point", "value": 1.3})
    assert ok["pass"] and ok["mass_outside"] < 1e-6
    bad = spectral.concentration_check(est, {"type": "point", "value": -2.0})
    assert not bad["pass"] and bad["mass_outside"] > 0.9

    st = states.make_state("euclid_spherical", k=2.0)
    Z = groups.algebra("euclid", [0, 0, 0, 0, 0, 1.0])
    est = spectral.density_estimate(st, Z)
    ok = spectral.concentration_check(
        est, {"type": "interval", "bounds": [-2.0, 2.0]}, eps=0.05)
    assert ok["pass"]
    bad = spectral.concentration_check(
        est, {"type": "interval", "bounds": [-0.5, 0.5]}, eps=0.05)
    assert not bad["pass"] and bad["mass_outside"] > 0.5

    fin = spectral.concentration_check(
        est, {"type": "finite", "values": [0.0]}, eps=3.0)
    assert fin["pass"]
    with pytest.raises(ValueError):
        spectral.concentration_check(est, {"type": "nonsense"})


# ---------------------------------------------------------------------------
# the prequantization counterexample

def test_point_scenarios_follow_the_classical_map():
    assert spectral.prequant_mass_outside(spectral.point_scenario((0, 0))) == 0
    assert spectral.prequant_mass_outside(
        spectral.point_scenario((0, 10))) == 1.0
    # k = p kills the second term, so |F| = 1 exactly: not outside
    assert spectral.prequant_mass_outside(
        spectral.point_scenario((np.pi / 2, np.pi / 2))) == 0


def test_gaussian_mass_matches_frozen_oracle():
    got = spectral.prequant_mass_outside(spectral.gaussian_scenario())
    assert abs(got - oracles.PREQUANT_MASS) < 1e-3
    assert got > 0.05


def test_gaussian_mass_is_exact():
    got = spectral.prequant_mass_outside(spectral.gaussian_scenario())
    assert abs(got - oracles.PREQUANT_MASS) < 1e-12
    shifted = spectral.prequant_mass_outside(
        spectral.gaussian_scenario(center=(0.0, 10.0)))
    assert abs(shifted - oracles.PREQUANT_MASS_SHIFTED) < 1e-10


def test_grid_scenario_uniform_blocks():
    n = 64
    p = np.linspace(-0.5, 0.5, n)
    k = np.linspace(9.5, 10.5, n)
    dp, dk = p[1] - p[0], k[1] - k[0]
    density = np.full((n, n), 1.0 / (n * n * dp * dk))
    scn = spectral.grid_scenario(p, k, density)
    assert abs(spectral.prequant_mass_outside(scn) - 1.0) < 1e-12

    with pytest.raises(ValueError):
        spectral.prequant_mass_outside(
            spectral.grid_scenario(p, k, 2.0 * density))


def test_grid_scenario_detects_coarseness():
    n = 16
    p = np.linspace(-0.5, 0.5, n)
    k = np.linspace(9.5, 10.5, n)
    dp, dk = p[1] - p[0], k[1] - k[0]
    density = np.zeros((n, n))
    density[1, 1] = 1.0 / (dp * dk)  # invisible to the half-resolution pass
    with pytest.raises(spectral.GridTooCoarse):
        spectral.prequant_mass_outside(spectral.grid_scenario(p, k, density))
