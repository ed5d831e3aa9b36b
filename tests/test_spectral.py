import numpy as np
import pytest

import oracles
from orbitstates import groups, spectral, states
from orbitstates.tolerances import DEFAULT


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
    Z = np.array(zc[1])
    ts = np.linspace(-2.0, 2.0, 41)
    fast = spectral.flow_values(st, Z, ts)
    slow = np.array([states.evaluate(st, groups.exp_coords(
        zc[0], t * np.asarray(zc[1]))) for t in ts])
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_flow_values_custom_state_route():
    st = states.make_state("custom", family="torus",
                           evaluator=lambda g: np.exp(1j * g[0]))
    Z = np.array([1.0])
    ts = np.array([0.0, 0.5, 2.0])
    assert np.allclose(spectral.flow_values(st, Z, ts), np.exp(1j * ts),
                       atol=1e-14)


# ---------------------------------------------------------------------------
# atom estimates

def test_flow_in_h_keeps_every_sample_near_the_flow_reach():
    # T |Z| = 8.9e6: the rounding of t Z moved samples of a flow inside h
    # off it by more than the 1e-9 membership test (1,108 of 4,096 read 0)
    st = states.make_state("heisenberg_loc_t", k=0.2, l=1.0, t=0.7)
    b = 1.7795540617506418
    Z = np.array([-1.14 * b + 0.01, b, -0.7 * b])
    vals = spectral.flow_values(st, Z, spectral._midpoints(3e7, 2 ** 12))
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12
    # a flow off h is the identity at t = 0 alone
    ts = np.array([-1e-3, 0.0, 2.0])
    assert spectral.flow_values(st, [0.0, 1.0, 0.0], ts).tolist() == [0, 1, 0]


def test_pure_character_gives_unit_atom():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = np.array([0, 0, 1.0])
    a = spectral.bohr_atom(st, Z, 1.3, T=200 * np.pi)
    assert abs(a.mass - 1.0) < 1e-12
    off = spectral.bohr_atom(st, Z, 0.55, T=400.0)
    assert abs(off.mass) < 0.02


@pytest.mark.parametrize("kind,params,zc", FLOW_CASES)
def test_bohr_atoms_equal_per_frequency_bohr_atom(kind, params, zc):
    st = states.make_state(kind, **params)
    Z = np.array(zc[1])
    omegas = [-1.7, -0.5, 0.0, 0.3, 2.25]
    T = 40.0 * np.pi
    atoms = spectral.bohr_atoms(st, Z, omegas, T, N=2 ** 12)
    assert atoms == [spectral.bohr_atom(st, Z, om, T=T, N=2 ** 12)
                     for om in omegas]


def test_atom_scan_recovers_two_frequencies():
    st = states.make_state("custom", family="torus",
                           evaluator=lambda g: 0.25 * np.exp(2j * g[0])
                           + 0.75 * np.exp(-1j * g[0]))
    Z = np.array([1.0])
    T = 64 * np.pi
    y = spectral.flow_values(st, Z, spectral._midpoints(T, 2 ** 14))
    atoms, resid, _ = spectral.atom_scan(y, T)
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
        Z = v
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
        means = spectral._lattice(T, 2 ** 14)[1](y)
        assert np.max(np.abs(means)) < 1e-10


def _spin_scan(periods):
    """atom_scan of su2 j = 4 on a generic axis over a whole number of base
    periods, which puts every atom m |Z| on the frequency lattice; returns
    the atoms, the spin-matrix masses by m, |Z| and T."""
    v = np.array([0.7, -1.1, 0.45])
    th = float(np.linalg.norm(v))
    st = states.make_state("su2_highest_weight", j=4.0)
    T = 2 * np.pi * periods / th
    y = spectral.flow_values(st, v,
                             spectral._midpoints(T, 2 ** 14))
    atoms, _, _ = spectral.atom_scan(y, T)
    want = {round(m): w for m, w in oracles.spin_masses(8, v / th).items()}
    return atoms, want, th, T


def test_atom_scan_finds_spin_atoms():
    atoms, want, th, T = _spin_scan(512)
    found = set()
    for om, mass in atoms:
        m = round(om / th)
        assert abs(om - m * th) < 1e-6
        assert abs(mass - want[m]) < 1e-6
        found.add(m)
    floor = spectral.ATOM_FACTOR / T
    assert {m for m, w in want.items() if w > floor} <= found
    assert len(found) == len(atoms) >= 5


def test_atom_scan_places_commensurate_atoms_exactly():
    # at 64 base periods the other atoms' means vanish on each atom's
    # lattice point, so the two-bin step leaves no tilt
    atoms, want, th, _ = _spin_scan(64)
    assert len(atoms) >= 7
    for om, mass in atoms:
        m = round(om / th)
        assert abs(om - m * th) < 1e-12
        assert abs(mass - want[m]) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_off_lattice_character_gives_one_exact_atom(seed):
    # one atom between lattice points: its means are exactly a Dirichlet
    # kernel, which the two-bin step inverts
    alpha, beta = np.random.default_rng(seed).uniform(0.5, 2.0, 2)
    for st, Z, omega in [
            (states.make_state("heisenberg_loc_p", k=1.3),
             np.array([alpha, 0, 0]), -alpha),
            (states.make_state("bargmann_loc_q", l=0.8),
             np.array([0, beta, 0, 0]), -0.8 * beta)]:
        est = spectral.density_estimate(st, Z)
        assert len(est.atoms) == 1
        (om, mass), = est.atoms
        assert abs(om - omega) < 1e-12 and abs(mass - 1.0) < 1e-12


@pytest.mark.parametrize("N", [5, 6, 7])
def test_lattice_is_symmetric_for_odd_N(N):
    # an atom at +2 pi / T: an odd lattice ran over [-ceil(N/2), N/2) and
    # read it at -3 pi / T at N = 5
    T = 10 * np.pi
    omegas, _ = spectral._lattice(T, N)
    assert np.array_equal(np.rint(omegas * T / np.pi),
                          np.arange(-(N // 2), (N + 1) // 2))
    st = states.make_state("heisenberg_loc_p", k=1.0)
    est = spectral.density_estimate(st, [0.0, 0.0, 2 * np.pi / T], T=T, N=N)
    [(omega, mass)] = est.atoms
    assert abs(omega - 2 * np.pi / T) < 1e-12 and abs(mass - 1.0) < 1e-12


def test_atom_at_reads_the_estimate_samples():
    st = states.make_state("su2_highest_weight", j=1.5)
    Z = np.array([0.4, -1.0, 0.6])
    est = spectral.density_estimate(st, Z, T=40.0 * np.pi, N=2 ** 12)
    for om in (-0.5, 0.3):
        assert est.atom_at(om) == spectral.bohr_atom(st, Z, om, T=est.T,
                                                     N=2 ** 12)


# ---------------------------------------------------------------------------
# full estimates and classification

def test_position_localized_state_along_gamma_is_atomic():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = np.array([0, 0, 1.0])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "atomic"
    assert len(est.atoms) == 1
    om, mass = est.atoms[0]
    assert abs(om - 1.3) < 1e-3 and abs(mass - 1.0) < 1e-3
    assert est.imag_residue < 1e-6


@pytest.mark.parametrize("kind,params,Z", [
    ("heisenberg_loc_q", dict(l=0.8), [0, 1.0, 0]),
    ("heisenberg_loc_p", dict(k=1.3), [0, 0, 1.0]),
    ("su2_highest_weight", dict(j=2.0), [0.4, -1.0, 0.6]),
    ("su2_highest_weight", dict(j=2.0), [0.7, -1.1, 0.45])])
def test_real_atoms_have_no_imaginary_mass(kind, params, Z):
    # the lattice phase e^{i pi n (1 - 1/N)} is (-1)^n exactly times a unit
    # phase; as exp(i pi n), (-1)^n carried up to 2.8e-12 of imaginary part
    # at N = 2^14, and these residues read 8e-15 to 7.5e-14
    est = spectral.density_estimate(states.make_state(kind, **params), Z)
    assert est.atoms and est.imag_residue < 2e-15


def test_position_localized_state_along_beta_is_haar():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = np.array([0, 1.0, 0])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "haar_on_bohr"
    assert est.atoms == [] and est.density is None


def test_momentum_localized_state_atom_sign_convention():
    # the pairing puts position l at frequency -l along the boost direction
    st = states.make_state("bargmann_loc_q", l=0.8)
    Z = np.array([0, 1.0, 0, 0])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "atomic"
    om, mass = est.atoms[0]
    assert abs(om + 0.8) < 1e-3 and abs(mass - 1.0) < 1e-3


def test_momentum_localized_state_spreads_under_the_flow():
    st = states.make_state("bargmann_loc_q", l=0.8)
    for t in (0.4, -1.3):
        Z = np.array([0, 1.0, -t, 0])
        est = spectral.density_estimate(st, Z)
        assert est.classification == "haar_on_bohr"
    for phi in (0.3, 2.0):
        Z = np.array([0, 0, np.cos(phi), np.sin(phi)])
        est = spectral.density_estimate(st, Z)
        assert est.classification == "haar_on_bohr"


def test_spherical_state_gives_uniform_density():
    st = states.make_state("euclid_spherical", k=2.0)
    r = np.array([0.3, -0.4, 0.5])
    Z = np.concatenate([np.zeros(3), r])
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
    Z = np.array([0, 0, 0, 0.5, 0.5, 0.5])
    est = spectral.density_estimate(st, Z)
    assert est.classification == "uniform_density"
    assert abs(est.total_mass_accounted - 1.0) < 0.02


def test_sinc_squared_triangle_is_not_flat():
    # restriction sinc^2(t): a triangle density on [-2, 2]
    st = states.make_state(
        "custom", family="euclid",
        evaluator=lambda g: np.sinc(np.linalg.norm(
            groups.euclid_parts(g)[1]) / np.pi) ** 2)
    Z = np.array([0, 0, 0, 1.0, 0, 0])
    est = spectral.density_estimate(st, Z, N=2 ** 12)
    assert est.classification == "mixed"
    assert est.atoms == []
    assert abs(est.total_mass_accounted - 1.0) < 0.02


def test_mixture_is_classified_mixed():
    st = states.make_state(
        "custom", family="euclid",
        evaluator=lambda g: 0.5 + 0.5 * np.sinc(2.0 * np.linalg.norm(
            groups.euclid_parts(g)[1]) / np.pi))
    Z = np.array([0, 0, 0, 0, 0, 1.0])
    est = spectral.density_estimate(st, Z, N=2 ** 12)
    assert est.classification == "mixed"
    assert any(abs(om) < 1e-3 and abs(m - 0.5) < 1e-2 for om, m in est.atoms)
    assert est.total_mass_accounted > 0.95


def test_concentration_check_point_and_interval():
    st = states.make_state("heisenberg_loc_p", k=1.3)
    Z = np.array([0, 0, 1.0])
    est = spectral.density_estimate(st, Z)
    ok = spectral.concentration_check(est, {"type": "point", "value": 1.3})
    assert ok["pass"] and ok["value"] < 1e-6
    assert ok["field"] == "outside_mass" and ok["op"] == "<="
    assert ok["bound"] == DEFAULT.outside_mass + est.leakage
    bad = spectral.concentration_check(est, {"type": "point", "value": -2.0})
    assert not bad["pass"] and bad["value"] > 0.9
    assert spectral.concentration_check(
        est, {"type": "finite", "values": [-2.0, 1.3]})["pass"]
    bad = spectral.concentration_check(
        est, {"type": "finite", "values": [-2.0, 0.0]})
    assert not bad["pass"] and abs(bad["value"] - 1.0) < 1e-9

    # targets widened by eps - freq_eps stand for a wider eps: their masses
    # are those of [-2, 2] and [-0.5, 0.5] at eps 0.05 and of {0} at eps 3
    st = states.make_state("euclid_spherical", k=2.0)
    Z = np.array([0, 0, 0, 0, 0, 1.0])
    est = spectral.density_estimate(st, Z)
    ok = spectral.concentration_check(
        est, {"type": "interval", "bounds": [-2.049, 2.049]})
    assert ok["pass"]
    bad = spectral.concentration_check(
        est, {"type": "interval", "bounds": [-0.549, 0.549]})
    assert not bad["pass"] and bad["value"] > 0.5

    fin = spectral.concentration_check(
        est, {"type": "interval", "bounds": [-2.999, 2.999]})
    assert fin["pass"]
    with pytest.raises(ValueError):
        spectral.concentration_check(est, {"type": "nonsense"})


# ---------------------------------------------------------------------------
# the prequantization counterexample

def test_gaussian_mass_matches_frozen_oracle():
    got = spectral.prequant_mass_outside()
    assert abs(got - oracles.PREQUANT_MASS) < 1e-3
    assert got > 0.05


def test_gaussian_mass_is_exact():
    got = spectral.prequant_mass_outside()
    assert abs(got - oracles.PREQUANT_MASS) < 1e-12
    shifted = spectral.prequant_mass_outside(center=(0.0, 10.0))
    assert abs(shifted - oracles.PREQUANT_MASS_SHIFTED) < 1e-10


def test_quadrature_error_estimate_gates_the_mass(monkeypatch):
    # with 3 and 6 nodes a piece, sum |GL_3 - GL_6| is about 2e-2, above
    # the gate, so the mass refuses
    monkeypatch.setattr(spectral, "PREQUANT_NODES", 3)
    with pytest.raises(spectral.GridTooCoarse):
        spectral.prequant_mass_outside()
