"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s; the -v listing
gives the same one-line pass/fail view) and enforces both the numeric
tolerance and the runtime budget.
"""

import time

import numpy as np
import pytest
from scipy.special import j0

import oracles
from orbitstates import gns, groups, induced, orbits, spectral, states

BUILTIN = [
    ("heisenberg_loc_p", dict(k=1.3)),
    ("heisenberg_loc_q", dict(l=0.8)),
    ("heisenberg_loc_t", dict(k=0.5, l=1.0, t=0.4)),
    ("heisenberg_center", dict()),
    ("bargmann_loc_pe", dict(k=1.0)),
    ("bargmann_loc_q", dict(l=0.8)),
    ("euclid_plane", dict(k=2.0, s=1.0)),
    ("euclid_spherical", dict(k=2.0)),
    ("euclid_cylindrical", dict(k=2.0, eps=1)),
    ("su2_highest_weight", dict(j=1.5)),
    ("constant_one", dict(family="heisenberg")),
]


def _line(num, name, ok, detail, elapsed):
    print("criterion %2d %-28s %s  %s  (%.1fs)"
          % (num, name, "PASS" if ok else "FAIL", detail, elapsed))


def test_criterion_01_positive_definiteness():
    t0 = time.perf_counter()
    worst = 0.0
    for kind, params in BUILTIN:
        st = states.make_state(kind, **params)
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            gm = states.gram(st, states.support_samples(st, rng, n))
            worst = min(worst, float(gm.eigenvalues[-1]) / n)
    el = time.perf_counter() - t0
    ok = worst >= -1e-9 and el < 30.0
    _line(1, "positive definiteness", ok, "min eig/n %.2e" % worst, el)
    assert worst >= -1e-9
    assert el < 30.0


def test_criterion_02_state_inequalities():
    t0 = time.perf_counter()
    worst = -1.0
    for kind, params in BUILTIN:
        st = states.make_state(kind, **params)
        rng = np.random.default_rng(21)
        gs = states.support_samples(st, rng, 10000)
        hs = states.support_samples(st, rng, 10000)
        r = states.check_inequalities(st, gs, hs)
        worst = max(worst, r["worst_margin"])
        assert r["pass"], (kind, r)
    el = time.perf_counter() - t0
    ok = worst <= 1e-12 and el < 10.0
    _line(2, "herglotz/krein/weil bounds", ok, "worst margin %.2e" % worst, el)
    assert worst <= 1e-12
    assert el < 10.0


def test_criterion_03_spherical_wave_identity():
    t0 = time.perf_counter()
    pts, w = induced.sphere_grid(64, 128)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.01, 20.0) / np.linalg.norm(v)
        r = float(np.linalg.norm(v))
        avg = complex(w @ np.exp(1j * (pts @ v)))
        worst = max(worst, abs(avg - np.sin(r) / r))
    el = time.perf_counter() - t0
    ok = worst <= 1e-8 and el < 5.0
    _line(3, "spherical-wave identity", ok, "worst err %.2e" % worst, el)
    assert worst <= 1e-8
    assert el < 5.0


def test_criterion_04_cylindrical_wave_identity():
    t0 = time.perf_counter()
    th = 2.0 * np.pi * np.arange(512) / 512
    cx, sx = np.cos(th), np.sin(th)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(2)
        v *= rng.uniform(0.0, 20.0) / np.linalg.norm(v)
        avg = complex(np.mean(np.exp(1j * (v[0] * cx + v[1] * sx))))
        worst = max(worst, abs(avg - j0(np.linalg.norm(v))))
    el = time.perf_counter() - t0
    ok = worst <= 1e-10 and el < 2.0
    _line(4, "cylindrical-wave identity", ok, "worst err %.2e" % worst, el)
    assert worst <= 1e-10
    assert el < 2.0


def test_criterion_05_gns_recovery():
    t0 = time.perf_counter()
    cases = [
        ("heisenberg_loc_p", dict(k=1.3)),
        ("heisenberg_loc_q", dict(l=0.8)),
        ("euclid_plane", dict(k=2.0, s=1.0)),
        ("su2_highest_weight", dict(j=1.5)),
    ]
    worst_rec = worst_uni = worst_hom = 0.0
    for kind, params in cases:
        st = states.make_state(kind, **params)
        samples, probes = gns.closed_sample_set(st, n=32, seed=5)
        assert len(samples) <= 32
        space = gns.build(st, samples)
        mats = []
        for g in probes:
            R, res = gns.rep_matrix(space, g)
            worst_uni = max(worst_uni, res)
            worst_rec = max(worst_rec,
                            abs(gns.coefficient(space, g)
                                - states.evaluate(st, g)))
            mats.append((g, R))
        rng = np.random.default_rng(51)
        for _ in range(20):
            i, j = rng.integers(0, len(mats), 2)
            g, Rg = mats[i]
            h, Rh = mats[j]
            Rgh, res = gns.rep_matrix(space, groups.compose_coords(
                st.family, g, h))
            worst_uni = max(worst_uni, res)
            worst_hom = max(worst_hom,
                            float(np.max(np.abs(Rg @ Rh - Rgh))))
    el = time.perf_counter() - t0
    ok = max(worst_rec, worst_uni, worst_hom) <= 1e-9 and el < 20.0
    _line(5, "gns coefficient recovery", ok,
          "rec %.1e uni %.1e hom %.1e" % (worst_rec, worst_uni, worst_hom), el)
    assert worst_rec <= 1e-9
    assert worst_uni <= 1e-9
    assert worst_hom <= 1e-9
    assert el < 20.0


def test_criterion_06_delta_cyclic_vector_table():
    t0 = time.perf_counter()
    rows = [
        (induced.HeisenbergRow("a"), induced.delta_section([1.3]),
         states.make_state("heisenberg_loc_p", k=1.3)),
        (induced.HeisenbergRow("b"), induced.delta_section([0.8]),
         states.make_state("heisenberg_loc_q", l=0.8)),
        (induced.HeisenbergRow("c", t=0.4), induced.delta_section([0.9]),
         states.make_state("heisenberg_loc_t", k=0.0, l=0.9, t=0.4)),
        (induced.HeisenbergRow("d"), induced.delta_section([[0.0, 0.0]]),
         states.make_state("heisenberg_center")),
    ]
    rng = np.random.default_rng(61)
    worst = 0.0
    for action, vec, st in rows:
        gs = groups.random_elements("heisenberg", rng, 1000)
        got = induced.matrix_coefficient(action, vec, gs)
        worst = max(worst, np.max(np.abs(got - states.evaluate(st, gs))))
    el = time.perf_counter() - t0
    ok = worst <= 1e-12 and el < 5.0
    _line(6, "delta cyclic vector table", ok, "worst err %.2e" % worst, el)
    assert worst <= 1e-12
    assert el < 5.0


def test_criterion_07_prequant_counterexample():
    t0 = time.perf_counter()
    got = spectral.prequant_mass_outside()
    el = time.perf_counter() - t0
    err = abs(got - oracles.PREQUANT_MASS)
    ok = err <= 1e-3 and got > 0.05 and el < 10.0
    _line(7, "prequantization escape mass", ok,
          "mass %.6f oracle err %.1e" % (got, err), el)
    assert err <= 1e-3
    assert got > 0.05
    assert el < 10.0


def test_criterion_08_quantum_check_corroboration():
    t0 = time.perf_counter()
    cases = [
        (states.make_state("euclid_plane", k=2.0, s=1.0),
         orbits.euclid_orbit(2.0, 1.0)),
        (states.make_state("euclid_spherical", k=2.0),
         orbits.euclid_orbit(2.0)),
        (states.make_state("euclid_cylindrical", k=2.0, eps=1),
         orbits.euclid_orbit(2.0)),
        (states.make_state("heisenberg_loc_p", k=1.3),
         orbits.heisenberg_orbit(1.3, 0.0)),
        (states.make_state("heisenberg_loc_q", l=0.8),
         orbits.heisenberg_orbit(0.0, 0.8)),
        (states.make_state("heisenberg_loc_t", k=0.5, l=1.0, t=0.4),
         orbits.heisenberg_orbit(0.5, 1.0)),
        (states.make_state("bargmann_loc_pe", k=1.0),
         orbits.bargmann_orbit()),
        (states.make_state("bargmann_loc_q", l=0.8),
         orbits.bargmann_orbit()),
        (states.make_state("su2_highest_weight", j=1.5),
         orbits.su2_orbit(1.5)),
    ]
    worst = 1.0
    for st, spec in cases:
        rep = orbits.quantum_check(st, spec, trials=1000, n_max=3,
                                   budget=100000, seed=8)
        worst = min(worst, rep["worst_margin"])
        assert rep["pass"], (st.kind, rep["failures"][:1])
    one = states.make_state("constant_one", family="heisenberg")
    reject = orbits.quantum_check(one, orbits.heisenberg_orbit(), trials=10,
                                  n_max=3, budget=100000, seed=8)
    el = time.perf_counter() - t0
    witness_ok = (not reject["pass"]) and reject["failures"] \
        and reject["failures"][0]["lhs"] > reject["failures"][0]["rhs"] + 1.0
    ok = worst >= -1e-6 and witness_ok and el < 120.0
    _line(8, "sup-inequality corroboration", ok,
          "worst margin %.2e, witness margin %.2f"
          % (worst, reject["failures"][0]["margin"]), el)
    assert worst >= -1e-6
    assert witness_ok
    assert el < 120.0


def test_criterion_09_spectral_classifications():
    t0 = time.perf_counter()
    locp = states.make_state("heisenberg_loc_p", k=1.3)
    est = spectral.density_estimate(locp, [0, 0, 1.0])
    atom_ok = (est.classification == "atomic" and len(est.atoms) == 1
               and abs(est.atoms[0][0] - 1.3) < 1e-3
               and abs(est.atoms[0][1] - 1.0) < 1e-3)
    est = spectral.density_estimate(locp, [0, 1.0, 0])
    haar_ok = est.classification == "haar_on_bohr"

    locq = states.make_state("bargmann_loc_q", l=0.8)
    est = spectral.density_estimate(locq, [0, 1.0, 0, 0])
    # the boost pairing carries position l to frequency -l
    q_atom_ok = (est.classification == "atomic" and len(est.atoms) == 1
                 and abs(est.atoms[0][0] + 0.8) < 1e-3
                 and abs(est.atoms[0][1] - 1.0) < 1e-3)
    q_haar_ok = True
    for t in (0.3, -0.9, 2.0):
        est = spectral.density_estimate(locq, [0, 1.0, -t, 0])
        q_haar_ok = q_haar_ok and est.classification == "haar_on_bohr"
    rng = np.random.default_rng(91)
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi)
        est = spectral.density_estimate(
            locq, [0, 0, np.cos(phi), np.sin(phi)])
        q_haar_ok = q_haar_ok and est.classification == "haar_on_bohr"
    el = time.perf_counter() - t0
    ok = atom_ok and haar_ok and q_atom_ok and q_haar_ok and el < 30.0
    _line(9, "spectral classifications", ok,
          "locp %s/%s locq %s/%s" % (atom_ok, haar_ok, q_atom_ok, q_haar_ok),
          el)
    assert atom_ok and haar_ok and q_atom_ok and q_haar_ok
    assert el < 30.0


def test_criterion_10_su2_atoms_and_projection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_mass = worst_band = resid_peak = 0.0
    for two_j in range(1, 9):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
        th = float(np.linalg.norm(v))
        st = states.make_state("su2_highest_weight", j=two_j / 2)
        Z = v
        T = 2 * np.pi * 64 / th  # whole periods: cross-terms vanish exactly
        want = {round(2 * m) / 2: w
                for m, w in oracles.spin_masses(two_j, v / th).items()}
        ts = spectral._midpoints(T, 2 ** 14)
        y = spectral.flow_values(st, Z, ts)
        for m, w in want.items():
            a = spectral.bohr_atom(st, Z, m * th, T=T)
            worst_mass = max(worst_mass, abs(a.mass - w))
            worst_band = max(worst_band, abs(m * th) - (two_j / 2) * th)
            y = y - a.mass * np.exp(1j * m * th * ts)
        # all mass is accounted for inside the band: nothing else anywhere
        means = spectral._lattice(T, 2 ** 14)[1](y)
        resid_peak = max(resid_peak, float(np.max(np.abs(means))))
    d1 = orbits.kostant_projection_check(1.0, n_samples=100000, seed=10)
    d2 = orbits.kostant_projection_check(4.0, n_samples=100000, seed=11,
                                         axis=[1.0, -1.0, 0.5])
    el = time.perf_counter() - t0
    ok = (worst_mass <= 1e-8 and worst_band <= 1e-9 and resid_peak <= 1e-8
          and d1 < 0.01 and max(d1, d2 / 4.0) < 0.01 and el < 30.0)
    _line(10, "su2 atoms and projection", ok,
          "mass err %.1e resid %.1e hausdorff %.4f" % (worst_mass, resid_peak,
                                                       max(d1, d2 / 4.0)), el)
    assert worst_mass <= 1e-8
    assert worst_band <= 1e-9
    assert resid_peak <= 1e-8
    assert d1 < 0.01 and d2 / 4.0 < 0.01
    assert el < 30.0
