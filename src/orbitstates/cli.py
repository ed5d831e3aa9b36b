"""Batch front-end: scenario loading, reproduction suites, report emission.

Scenario files are JSON:

    {
      "version": "1",
      "task": "verify",              one of the tasks in COMMANDS below
      "state": {"kind": "...", "params": {...}},
      "seed": 7,
      "params": {...task-specific knobs...}
    }

Reports are JSON written atomically (temp file + rename) with sorted keys
and no timestamps, so identical scenario + seed gives byte-identical
output.  Exit code 0 = all checks passed, 1 = a check failed (report still
written), 2 = input error (malformed JSON, or a value outside the scenario
schema below).  Input errors carry JSON-pointer paths.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import gns, groups, induced, orbits, spectral, states
from .tolerances import gate

# independently computed high-resolution quadrature value for the standard
# Gaussian mass outside [-1, 1]; frozen before the implementation was built
PREQUANT_ORACLE = 0.296698016141580

# Gram kernel entries per states.gram_min_eigenvalues call of _sweep: the
# sets of a sweep are stacked to this bound, which keeps the peak memory of
# a sweep near that of one set
GRAM_ENTRIES = 2 ** 16

# rows formatted per write of a plot-data CSV, so the text held at once stays
# bounded for any grid size
CSV_BLOCK = 4096

# density.csv leaves out the lattice rows whose |density| is at most this:
# a zero level for output, not a verdict bound (an atomic restriction's
# density is rounding noise near 1e-14 at nearly every row, and the text of
# those rows would be most of a spectral run's time); a flat density's
# tails fall below 1e-3 well above it, so they stay in the file
DENSITY_FLOOR = 1e-12

# the largest T |Z| of a spectral run (T defaults to spectral.T_DEFAULT): the
# flow is sampled at t Z for |t| <= T, so this keeps its phases well inside
# the range a double resolves, and far from where exp_coords's squares of
# t Z overflow (|t Z| about 1e154)
FLOW_REACH = 1e8

# the largest |s| of a Euclid orbit and sum of |y_i| of a torus point y:
# the sup search meets them in phases of at most pi times them (s axis_3 at
# a state's anchor (0, 0, s, 0, 0, k), |axis| <= pi on drawn screws; y . Z,
# |Z_i| <= pi), which must stay within the range orbits.ROUNDING covers
TORUS_Y_MAX = orbits.PHASE_MAX / math.pi


class CliInputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# task runners: each takes the state (None for reproduce), the params and
# the seed, and returns (results dict, passed bool, paper_refs)

def _judged(results, gates, refs):
    """A runner's return when its verdict is `gates`, gate rows by name:
    the results carry them, and pass when every row passes."""
    results["gates"] = gates
    return results, all(g["pass"] for g in gates.values()), refs


def _sweep(state, rng, sets, n, pairs):
    """`sets` Gram matrices of `n` support samples, then the three
    inequalities over `pairs` sample pairs, all drawn from rng: the worst
    min eigenvalue / n and the inequality report.
    The sets are drawn and their Gram kernels taken at most GRAM_ENTRIES
    entries (at least one set) at a time, each chunk's sets by one
    support_samples call, which reads the stream as one call per set
    would."""
    worst = 0.0
    per_call = max(1, GRAM_ENTRIES // (n * n))
    for first in range(0, sets, per_call):
        k = min(per_call, sets - first)
        samples = states.support_samples(state, rng, n, sets=k).reshape(
            k, n, -1)
        for low in states.gram_min_eigenvalues(state, samples).tolist():
            worst = min(worst, low / n)
    gs = states.support_samples(state, rng, pairs)
    hs = states.support_samples(state, rng, pairs)
    return worst, states.check_inequalities(state, gs, hs)


def _sweep_gates(prefix, worst, ineq):
    """The gates of a _sweep: PSD and the three inequalities."""
    return {prefix + "psd": gate(worst, ">=", "psd_scale", -1.0),
            prefix + "inequalities": gate(ineq["worst_margin"], "<=", "slack")}


def _task_verify(state, p, seed):
    worst, ineq = _sweep(state, np.random.default_rng(seed), p["sets"],
                         p["samples"], p["pairs"])
    results = {"sets": p["sets"], "samples_per_set": p["samples"],
               "min_eigenvalue_per_n": worst, "inequalities": ineq}
    return _judged(results, _sweep_gates("", worst, ineq),
                   ["state-psd-kernel", "modulus-and-continuity-bounds"])


def _task_gram(state, p, seed):
    rng = np.random.default_rng(seed)
    gm = states.gram(state, states.support_samples(state, rng, p["samples"]))
    results = {"n": gm.n, "rank": gm.rank,
               "eigenvalues": [float(v) for v in gm.eigenvalues]}
    return _judged(results, {"psd": states.check_psd(gm)},
                   ["state-psd-kernel"])


def _task_gns(state, p, seed):
    samples, probes = gns.closed_sample_set(state, p["n"], seed)
    space = gns.build(state, samples)
    R, residuals = gns.rep_matrix(space, probes)
    worst_res = float(np.max(residuals))
    worst_rec = _max_modulus(gns.cyclic_coefficient(space, R)
                             - states.evaluate(state, probes))
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((3, len(samples))) \
        + 1j * rng.standard_normal((3, len(samples)))
    repro = float(gns.reproducing_check(
        space, [v / np.linalg.norm(v) for v in vs]))
    results = {"rank": space.rank, "samples": len(samples),
               "probes": len(probes), "worst_unitarity_residual": worst_res,
               "worst_recovery_error": worst_rec, "reproducing_defect": repro}
    return _judged(results, {
        "unitarity_residual": gate(worst_res, "<=", "residual"),
        "recovery_error": gate(worst_rec, "<=", "recovery"),
        "reproducing_defect": gate(repro, "<=", "recovery")},
        ["finite-gns-recovery"])


def _task_spectral(state, p, seed):
    est = spectral.density_estimate(state, p["Z"], T=p["T"], N=p["N"])
    results = {
        "classification": est.classification,
        "atoms": [[float(om), float(m)] for om, m in est.atoms],
        "total_mass_accounted": est.total_mass_accounted,
        "leakage": est.leakage,
        "zero_value": [est.zero_value.real, est.zero_value.imag],
        "_density": est.density,
    }
    if p["omega"] is not None:
        atom = est.atom_at(p["omega"])
        results["atom_at_omega"] = {
            "omega": atom.omega,
            "mass": [atom.mass.real, atom.mass.imag],
            "leakage": atom.leakage,
        }
    target = p["concentration"]
    return _judged(results, {} if target is None else {
        "concentration": spectral.concentration_check(est, target)},
        ["abelian-restriction-spectrum"])


def _task_orbit(state, p, seed):
    spec = p["orbit"]
    pts = spec.sample(np.random.default_rng(seed), p["count"])
    rel = float(np.max(orbits.relation_residuals(spec, pts)))
    results = {"family": spec.family, "count": p["count"],
               "relation_residual": rel}
    gates = {"relation_residual": gate(rel, "<=", "relation")}
    if len(p["Zs"]):
        proj = groups.pairing_coords(state.family, pts[:, None], p["Zs"])
        results["projection_mean"] = [float(v) for v in proj.mean(axis=0)]
        results["projection_minmax"] = [
            [float(a), float(b)] for a, b in zip(proj.min(axis=0),
                                                 proj.max(axis=0))]
        results["_projections"] = proj
    if spec.family == "su2":
        dist = orbits.kostant_projection_check(spec.params["lam"],
                                               p["kostant"], seed)
        results["kostant_hausdorff"] = dist
        gates["kostant_hausdorff"] = gate(dist, "<", "hausdorff")
    return _judged(results, gates,
                   ["orbit-relations", "axis-projection-range"])


def _task_quantum(state, p, seed):
    report = orbits.quantum_check(state, p["orbit"], trials=p["trials"],
                                  n_max=p["n_max"], budget=p["budget"],
                                  seed=seed)
    return dict(report), bool(report["pass"]), ["orbit-sup-inequality"]


# ---------------------------------------------------------------------------
# reproduction suites

def _max_modulus(z):
    """max |z| over an array, with libm's hypot as Python's abs(complex)
    computes it (np.abs on complex can differ from it in the last bit)."""
    return float(np.max(np.hypot(z.real, z.imag)))


def _reproduce_heisenberg_table(seed):
    rng = np.random.default_rng(seed)
    gs = groups.random_elements("heisenberg", rng, 1000)
    t = 0.4
    cases = [
        ("row_a", induced.HeisenbergRow("a"), induced.delta_section([1.3]),
         states.make_state("heisenberg_loc_p", k=1.3)),
        ("row_b", induced.HeisenbergRow("b"), induced.delta_section([0.8]),
         states.make_state("heisenberg_loc_q", l=0.8)),
        ("row_c", induced.HeisenbergRow("c", t=t), induced.delta_section([0.9]),
         states.make_state("heisenberg_loc_t", k=0.0, l=0.9, t=t)),
        ("row_d", induced.HeisenbergRow("d"),
         induced.delta_section([[0.0, 0.0]]),
         states.make_state("heisenberg_center")),
    ]
    gates, details = {}, {}
    for name, action, f, st in cases:
        err = _max_modulus(induced.matrix_coefficient(action, f, gs)
                           - states.evaluate(st, gs))
        gates[name] = gate(err, "<", "coefficient")
        details[name + "_max_error"] = err
    return gates, details, ["induced-row-coefficients"]


def _reproduce_bargmann_states(seed):
    rng = np.random.default_rng(seed)
    gates, details = {}, {}
    for label, st in [("loc_pe", states.make_state("bargmann_loc_pe", k=1.0)),
                      ("loc_q", states.make_state("bargmann_loc_q", l=1.0))]:
        worst, ineq = _sweep(st, rng, 20, 24, 2000)
        gates.update(_sweep_gates(label + "_", worst, ineq))
        details[label + "_min_eig_per_n"] = worst
        details[label + "_worst_margin"] = ineq["worst_margin"]
    st = states.make_state("bargmann_loc_q", l=1.0)
    atom = spectral.bohr_atom(st, [0, 1.0, 0, 0], -1.0, T=200 * np.pi)
    details["loc_q_atom_mass"] = [atom.mass.real, atom.mass.imag]
    est = spectral.density_estimate(st, [0, 1.0, -0.7, 0], T=200 * np.pi,
                                    N=2 ** 13)
    st2 = states.make_state("bargmann_loc_pe", k=1.0)
    a_g = spectral.bohr_atom(st2, [0, 0, 1.0, 0], 1.0, T=200 * np.pi)
    a_e = spectral.bohr_atom(st2, [0, 0, 0, 1.0], -0.5, T=200 * np.pi)
    gates.update(
        loc_q_character_atom=gate(abs(atom.mass - 1.0), "<", "atom_mass"),
        # Haar on the Bohr dual: the flow vanishes off t = 0
        loc_q_boosted_haar=gate(_max_modulus(est.samples), "<=", "flow_zero"),
        loc_pe_plane_atom_gamma=gate(abs(a_g.mass - 1.0), "<", "atom_mass"),
        loc_pe_plane_atom_eps=gate(abs(a_e.mass - 1.0), "<", "atom_mass"))
    return gates, details, ["paraboloid-states",
                            "abelian-restriction-spectrum"]


def _reproduce_euclid_waves(seed):
    rng = np.random.default_rng(seed)
    gates, details = {}, {}
    trio = {"plane": states.make_state("euclid_plane", k=1.0),
            "spherical": states.make_state("euclid_spherical", k=1.0),
            "cylindrical": states.make_state("euclid_cylindrical", k=1.0)}
    spec = orbits.euclid_orbit(1.0, 0.0)
    for label, st in trio.items():
        gates.update(_sweep_gates(label + "_", *_sweep(st, rng, 20, 24, 2000)))
        q = orbits.quantum_check(st, spec, trials=50, budget=4000, seed=seed)
        gates[label + "_quantum"] = gate(q["worst_margin"], ">=", "margin",
                                         -1.0)
        details[label + "_worst_margin"] = q["worst_margin"]
    # sphere-average identity against the closed form, on the grid of the
    # section the coefficient match below integrates over
    f = induced.constant_section()
    pts, wts = f.support, f.weights
    cvec = np.array([0.3, -1.1, 2.0])
    avg = np.sum(wts * groups.expi(pts @ cvec))
    err_sph = float(abs(avg - states.sinc(np.linalg.norm(cvec))))
    phi = 2 * np.pi * np.arange(512) / 512
    circ = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(512)])
    err_cyl = float(abs(np.mean(groups.expi(circ @ cvec))
                        - states.j0(np.hypot(*cvec[:2]))))
    gs = groups.random_elements("euclid", rng, 200)
    err = _max_modulus(induced.matrix_coefficient(
        induced.EuclidAction(k=1.0), f, gs)
        - states.evaluate(trio["spherical"], gs))
    gates.update(
        sphere_average_identity=gate(err_sph, "<", "sphere_quadrature"),
        circle_average_identity=gate(err_cyl, "<", "circle_quadrature"),
        spherical_coefficient_match=gate(err, "<", "sphere_quadrature"))
    return gates, details, ["wave-identities", "orbit-sup-inequality"]


def _reproduce_prequant(seed):
    value = spectral.prequant_mass_outside()
    v2 = spectral.prequant_mass_outside(center=(0.0, 10.0))
    gates = {"mass_outside_positive": gate(value, ">", "escape"),
             "matches_oracle": gate(abs(value - PREQUANT_ORACLE), "<=",
                                    "quadrature"),
             "shifted_gaussian_escapes": gate(v2, ">", "shifted_escape")}
    details = {"mass_outside": float(value), "oracle": PREQUANT_ORACLE,
               "shifted_mass_outside": float(v2)}
    return gates, details, ["classical-value-escape"]


def _reproduce_su2_weights(seed):
    from math import comb
    rng = np.random.default_rng(seed)
    errors = []
    for twoj in (1, 2, 4, 8):
        st = states.su2_highest_weight(twoj / 2.0)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = rng.uniform(0.5, 2.0)
        Z = w * v
        T = 200 * np.pi / w
        ms = [m2 / 2.0 for m2 in range(-twoj, twoj + 1, 2)]
        atoms = spectral.bohr_atoms(st, Z, [m * w for m in ms], T)
        for m, est in zip(ms, atoms):
            u3 = v[2]
            pred = comb(twoj, int(twoj / 2 + m)) \
                * ((1 + u3) / 2) ** (twoj / 2 + m) \
                * ((1 - u3) / 2) ** (twoj / 2 - m)
            errors.append(abs(est.mass - pred))
    dist = orbits.kostant_projection_check(1.0, 10 ** 5, seed)
    gates = {"binomial_atoms": gate(float(np.max(errors)), "<", "weight_mass"),
             "projection_fills_interval": gate(float(dist), "<", "hausdorff")}
    return gates, {}, ["binomial-weights", "axis-projection-range"]


_REPRODUCERS = {
    "heisenberg-table": _reproduce_heisenberg_table,
    "bargmann-states": _reproduce_bargmann_states,
    "euclid-waves": _reproduce_euclid_waves,
    "prequant-counterexample": _reproduce_prequant,
    "su2-weights": _reproduce_su2_weights,
}
REPRODUCE_TARGETS = tuple(_REPRODUCERS)


def _task_reproduce(state, p, seed):
    target = p["target"]
    gates, details, refs = _REPRODUCERS[target](seed)
    matrix = {name: g["pass"] for name, g in gates.items()}
    return _judged({"target": target, "matrix": matrix, "details": details},
                   gates, refs)


# each `states` subcommand: the scenario task it runs and that task's runner
COMMANDS = {
    "verify": ("verify", _task_verify),
    "gram": ("gram", _task_gram),
    "gns": ("gns", _task_gns),
    "spectral": ("spectral", _task_spectral),
    "orbit": ("orbit_project", _task_orbit),
    "quantum": ("quantum_check", _task_quantum),
    "reproduce": ("reproduce", _task_reproduce),
}
_RUNNERS = dict(COMMANDS.values())


# ---------------------------------------------------------------------------
# the scenario schema: every input is a row key -> (default, check) of the
# form states.KINDS uses, read by states.read_params.  A default of None
# stands for "absent": the runner then does without the input.

_TEXT = states.check(lambda v: isinstance(v, str), "a string")
_OBJECT = states.check(lambda v: isinstance(v, dict), "an object")
_FINITE = states.number(-sys.float_info.max, sys.float_info.max)


def _list(least=1, size=None, item=_FINITE):
    """A check of a list of at least `least` entries (`size` when given)
    that each pass `item`."""
    return states.check(
        lambda v: isinstance(v, list) and len(v) >= least
        and size in (None, len(v)), "a list of %s entries, each %s"
        % (size or "%d or more" % least, item.what), item=item)


SCENARIO = {
    "version": (states.REQUIRED, _TEXT),
    "task": (states.REQUIRED, states.one_of(_RUNNERS)),
    "seed": (states.REQUIRED, states.count(0)),
    "state": (None, _OBJECT),      # required by every task but reproduce
    "out": ("reports", _TEXT),
    "params": ({}, _OBJECT),
}
STATE = {"kind": (states.REQUIRED, _TEXT), "params": ({}, _OBJECT)}

# each count has a largest value, so that an oversized count is an input
# error before it sizes an array past memory; each admits its default with
# room to spare (peaks measured on whole runs at the bound).  Support samples
# per Gram matrix: an n x n kernel and its eigensolve, 0.2 GiB at the bound
_SAMPLES = (24, states.count(1, 2 ** 10))

TASK_PARAMS = {
    "verify": {
        # Gram sets per sweep: a sweep stacks at most GRAM_ENTRIES kernel
        # entries at a time, so this bounds only the run time
        "sets": (50, states.count(1, 10 ** 5)),
        "samples": _SAMPLES,
        # sample pairs of the inequality check: two stacks of elements and
        # their state values, about 0.5 GiB at the bound
        "pairs": (2000, states.count(1, 10 ** 6)),
    },
    "gram": {"samples": _SAMPLES},
    # the GNS sample set: its n x n Gram matrix and the probes' images,
    # about 0.4 GiB at the bound
    "gns": {"n": (16, states.count(1, 2 ** 10))},
    "spectral": {
        # algebra coordinates of the flow's direction, one per dimension
        "Z": (states.REQUIRED, _list()),
        # None: spectral.T_DEFAULT.  T |Z| <= FLOW_REACH, and the top lattice
        # frequency pi floor(N / 2) / T must be finite
        "T": (None, states.number(states.TINY, sys.float_info.max)),
        # lattice points: the flow at N times and its FFT, about 0.2 GiB at
        # the bound; the atom scan needs a neighbour, so N >= 2
        "N": (2 ** 14, states.count(2, 2 ** 20)),
        "omega": (None, _FINITE),   # |omega| T must be finite
        "concentration": (None, _OBJECT),   # read through TARGETS
    },
    "orbit_project": {
        "orbit": ({}, _OBJECT),   # read through ORBIT_PARAMS
        # orbit points and their projections, about 0.3 GiB at the bound
        "count": (1000, states.count(1, 10 ** 6)),
        # sphere points of the SU(2) Kostant check and their sort, about
        # 0.1 GiB at the bound
        "kostant": (10 ** 5, states.count(1, 10 ** 6)),
        # commuting directions of the orbit's dimension; an entry reaches
        # only the projections <x, Z> (|x| < 1e8 on every admitted orbit)
        # and the commuting test's brackets, both finite with hundreds of
        # decades to spare
        "Zs": ([], _list(0, item=_list(item=states.number(
            -1e100, 1e100)))),
    },
    "quantum_check": {
        "orbit": ({}, _OBJECT),
        # trials, one margin each in the report
        "trials": (200, states.count(1, 10 ** 6)),
        # terms per tuple: (BLOCK, n_max) coefficient stacks whose sup search
        # grows with the terms (1.4 s and 0.13 GiB for 256 trials at the
        # bound)
        "n_max": (3, states.count(1, 64)),
        # stage-4 evaluations per trial: the branch and bound keeps at most
        # orbits.OPEN_MAX cells, so this bounds only the run time
        "budget": (10000, states.count(0, 10 ** 7)),
    },
    "reproduce": {"target": (states.REQUIRED, states.one_of(_REPRODUCERS))},
}

# params.orbit, per family; a key left out takes the state's parameter of
# that name (j for lam) when the state has one, else the row's default
ORBIT_PARAMS = {
    # k and l select nothing yet: every Heisenberg search runs on M = 1
    "heisenberg": {"k": (1.0, _FINITE), "l": (0.0, _FINITE)},
    "bargmann": {},
    "euclid": {
        # the radius: drawn tuples put sphere phases up to k |rate| <=
        # 2 sqrt(3) k and strip phases up to |t| k <= 3 k into the sup
        # search, which must stay within the range orbits.ROUNDING covers
        "k": (1.0, states.number(0, orbits.PHASE_MAX / (2 * math.sqrt(3)))),
        "s": (0.0, states.number(-TORUS_Y_MAX, TORUS_Y_MAX)),
    },
    # the sup search evaluates the 4 lam + 1 weight heights of a whole block
    # of trials at once, and a highest-weight state has 2j <= 8
    "su2": {"lam": (0.5, states.number(0, 16))},
    # one number or a list; the sum of |y_i| is at most TORUS_Y_MAX
    "torus": {"y": ([1.0], states.check(
        lambda v: v != [], "a number or a non-empty list of numbers",
        lambda v: v if isinstance(v, list) else [v], item=_FINITE))},
}

# params.concentration, per target type of spectral.concentration_check
_TYPE = (states.REQUIRED, states.one_of(("point", "interval", "finite")))
TARGETS = {
    "point": {"type": _TYPE, "value": (states.REQUIRED, _FINITE)},
    "interval": {"type": _TYPE, "bounds": (states.REQUIRED, _list(
        size=2))},   # lo <= hi
    "finite": {"type": _TYPE, "values": (states.REQUIRED, _list())},
}


def _read(table, value, where, name):
    """states.read_params on the JSON object at pointer `where`."""
    if not isinstance(value, dict):
        raise CliInputError("%s: must be an object, got %r"
                            % (where or "/", value))
    try:
        return states.read_params(name, table, value)
    except states.StateParameterError as e:
        raise CliInputError("%s/%s: %s" % (where, e.param, e))


def _orbit(state, orbit):
    """The orbit of params.orbit on the state's family; a key it leaves out
    takes the state's parameter of that name (j for lam), checked by the
    orbit's row at /state/params."""
    rows = ORBIT_PARAMS[state.family]
    named = {key: "j" if key == "lam" else key for key in rows}
    inherited = {k: state.params[named[k]] for k in rows
                 if k not in orbit and named[k] in state.params}
    _read({named[k]: rows[k] for k in inherited},
          {named[k]: v for k, v in inherited.items()}, "/state/params",
          state.kind)
    values = _read(rows, dict(inherited, **orbit), "/params/orbit",
                   state.family + " orbit")
    if state.family == "torus" and not sum(map(abs, values["y"])) \
            <= TORUS_Y_MAX:
        raise CliInputError("/params/orbit/y: the sum of |y_i| must be "
                            "<= %.17g, got %r" % (TORUS_Y_MAX, values["y"]))
    return getattr(orbits, state.family + "_orbit")(**values)


def validate_scenario(doc, seed=None, budget=None):
    """The scenario's checked values, `state` built (None for reproduce):
    every key read through its row, then the bounds that tie keys together.
    `seed` and `budget`, when given, replace the scenario's seed and
    params.budget.  A CliInputError names the pointer at fault."""
    top = _read(SCENARIO, doc, "", "scenario")
    if seed is not None:
        top["seed"] = _read({"seed": SCENARIO["seed"]}, {"seed": seed}, "",
                            "scenario")["seed"]
    task, state = top["task"], top["state"]
    if state is not None:
        state = _read(STATE, state, "/state", "state")
    if budget is not None:
        top["params"] = dict(top["params"], budget=budget)
    p = top["params"] = _read(TASK_PARAMS[task], top["params"], "/params",
                              task)
    if task == "reproduce":
        return dict(top, state=None)
    if state is None:
        raise CliInputError("/state: required for task %r" % (task,))
    try:
        state = top["state"] = states.make_state(state["kind"],
                                                 **state["params"])
    except states.StateParameterError as e:
        raise CliInputError("/state/%s: %s" % (
            "params/" + e.param if e.param else "kind", e))
    if task == "gns" and state.kind not in gns.CLOSED_KINDS:
        raise CliInputError("/state/kind: gns needs one of %s, got %r"
                            % (list(gns.CLOSED_KINDS), state.kind))
    if "orbit" in p:
        p["orbit"] = _orbit(state, p["orbit"])
    if task == "spectral":
        dim = groups.ALGEBRA_DIM.get(state.family, len(p["Z"]))
        if len(p["Z"]) != dim:
            raise CliInputError("/params/Z: must have %d entries, got %r"
                                % (dim, p["Z"]))
        T = spectral.T_DEFAULT if p["T"] is None else p["T"]
        if not math.isfinite(math.pi * (p["N"] // 2) / T):
            raise CliInputError("/params/T: pi floor(N / 2) / T, the top "
                                "lattice frequency, must be finite, got %r"
                                % (T,))
        reach = T * math.hypot(*p["Z"])
        if not reach <= FLOW_REACH:
            raise CliInputError("/params/%s: T |Z| must be <= %g (T defaults "
                                "to 200 pi), got %r" % (
                                    "Z" if p["T"] is None else "T",
                                    FLOW_REACH, reach))
        if p["omega"] is not None and not math.isfinite(abs(p["omega"]) * T):
            raise CliInputError("/params/omega: |omega| T must be finite (T "
                                "defaults to 200 pi), got %r" % (p["omega"],))
        p["Z"], target = np.array(p["Z"]), p["concentration"]
        if target is not None:
            target = p["concentration"] = _read(
                TARGETS.get(str(target.get("type")), {"type": _TYPE}),
                target, "/params/concentration", "concentration")
            if target["type"] == "interval" and not \
                    target["bounds"][0] <= target["bounds"][1]:
                raise CliInputError("/params/concentration/bounds: must have "
                                    "lo <= hi, got %r" % (target["bounds"],))
    for i, z in enumerate(p.get("Zs", ())):
        if len(z) != p["orbit"].dim:
            raise CliInputError("/params/Zs/%d: must have %d entries, got %r"
                                % (i, p["orbit"].dim, z))
    if p.get("Zs"):
        p["Zs"] = np.array(p["Zs"])
        if not groups.commuting(state.family, p["Zs"]):
            raise CliInputError("/params/Zs: tuple does not commute")
    return top


# ---------------------------------------------------------------------------
# report emission

def _atomic_write_bytes(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _report_bytes(report):
    """The report as written: sorted keys, no NaN or infinity (ValueError)."""
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode()


def emit_plotdata(report, outdir=".", density=None, proj=None):
    """CSV files for the figure-like parts of a report and for the density
    and projection arrays it leaves out; returns paths.  density.csv holds
    the lattice rows whose |density| exceeds DENSITY_FLOOR, in order."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def write_csv(name, header, columns):
        """Rows of the equal-length array columns, each number as its repr
        (as csv.writer writes it), CRLF-ended, CSV_BLOCK rows per write."""
        path = os.path.join(outdir, name)
        tmp = path + ".tmp"
        line = ",".join(["%r"] * len(header)) + "\r\n"
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for i in range(0, len(columns[0]), CSV_BLOCK):
                fh.write("".join([line % row for row in zip(
                    *(c[i:i + CSV_BLOCK].tolist() for c in columns))]))
        os.replace(tmp, path)
        written.append(path)

    results = report.get("results", {})
    if "atoms" in results:
        write_csv("atoms.csv", ["omega", "mass"],
                  np.array(results["atoms"], dtype=float).reshape(-1, 2).T)
    if density is not None:
        om, dens = (np.asarray(c) for c in density)
        keep = np.abs(dens) > DENSITY_FLOOR
        write_csv("density.csv", ["omega", "density"], [om[keep], dens[keep]])
    if "margins" in results:
        counts, edges = np.histogram(results["margins"], bins=32)
        write_csv("margins_hist.csv", ["bin_lo", "bin_hi", "count"],
                  [edges[:-1], edges[1:], counts])
    if proj is not None:
        P = np.asarray(proj, dtype=float)[:512]
        write_csv("projection.csv",
                  ["index"] + ["z%d" % (i + 1) for i in range(P.shape[1])],
                  [np.arange(len(P)), *P.T])
    return written


def _nonfinite_pointer(obj, path=""):
    """JSON pointer of the first NaN or infinite number in obj, or None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return path or "/"
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _nonfinite_pointer(value, "%s/%s" % (path, key))
        if found:
            return found
    return None


def _load_scenario(path):
    """Parse a scenario file; NaN and infinite numbers (which Python's json
    accepts, including overflowing literals such as 1e999) are input
    errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliInputError(str(e))
    except json.JSONDecodeError as e:
        raise CliInputError("malformed JSON: %s" % e)
    pointer = _nonfinite_pointer(doc)
    if pointer:
        raise CliInputError("%s: numbers must be finite" % pointer)
    return doc


def run(scenario_path, seed=None, out=None, budget=None):
    """Execute one scenario file; returns the process exit code."""
    try:
        doc = _load_scenario(scenario_path)
    except CliInputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    return run_document(doc, seed=seed, out=out, budget=budget)


def run_document(doc, seed=None, out=None, budget=None):
    """Execute one parsed scenario document; returns the process exit code.
    `seed` and `budget`, when given, replace the scenario's seed and
    params.budget, and are checked as they are."""
    try:
        sc = validate_scenario(doc, seed, budget)
    except CliInputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    seed, outdir = sc["seed"], out or sc["out"]
    try:
        results, passed, refs = _RUNNERS[sc["task"]](sc["state"],
                                                     sc["params"], seed)
    except spectral.GridTooCoarse as e:
        results, passed, refs = {"error": str(e)}, False, []

    density = results.pop("_density", None)
    projections = results.pop("_projections", None)
    report = {
        "version": sc["version"],
        "task": sc["task"],
        "seed": seed,
        "paper_refs": refs,
        "results": _plain(results),
        "pass": bool(passed),
    }
    if "state" in doc:
        report["state"] = doc["state"]
    try:
        payload = _report_bytes(report)
    except ValueError:
        # a NaN or infinite result fails the run, with no plot data
        pointer = _nonfinite_pointer(report["results"], "/results")
        if pointer is None:
            raise
        report["results"] = {"error": "%s: not a finite number" % pointer}
        report["pass"] = False
        density = projections = None
        payload = _report_bytes(report)
    os.makedirs(outdir, exist_ok=True)
    _atomic_write_bytes(
        os.path.join(outdir, "%s-report.json" % sc["task"]), payload)
    emit_plotdata(report, outdir, density, projections)
    return 0 if report["pass"] else 1


def _plain(obj):
    """JSON-safe copy (numpy scalars/arrays to python types, complex
    numbers to [re, im])."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


@functools.cache
def _parser():
    """The `states` argument parser, built on the first `main` call (not at
    import) and kept for the process's later calls."""
    parser = argparse.ArgumentParser(
        prog="states",
        description="localized-state construction and verification suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", help="scenario JSON file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        if name == "quantum":
            sp.add_argument("--budget", type=int, default=None)
        if name == "reproduce":
            sp.add_argument("target", nargs="?", choices=REPRODUCE_TARGETS)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    if args.command == "reproduce" and args.scenario is None:
        if args.target is None:
            print("input error: reproduce needs a target or --scenario",
                  file=sys.stderr)
            return 2
        doc = {"version": "1", "task": "reproduce", "seed": 0,
               "params": {"target": args.target}}
        return run_document(doc, seed=args.seed, out=args.out)

    if args.scenario is None:
        print("input error: --scenario is required", file=sys.stderr)
        return 2
    try:
        doc = _load_scenario(args.scenario)
    except CliInputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    task = doc.get("task") if isinstance(doc, dict) else None
    if task not in (None, COMMANDS[args.command][0]):
        print("input error: /task: scenario task %r does not match "
              "subcommand %r" % (task, args.command),
              file=sys.stderr)
        return 2
    return run_document(doc, seed=args.seed, out=args.out,
                        budget=vars(args).get("budget"))


if __name__ == "__main__":
    sys.exit(main())
