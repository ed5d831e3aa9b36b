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
written), 2 = input error (malformed JSON, a missing, unexpected or
ill-typed key, unknown target).  Input errors carry JSON-pointer paths.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import gns, groups, induced, orbits, spectral, states
from .tolerances import DEFAULT

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


class CliInputError(ValueError):
    pass


def validate_scenario(doc):
    """Check a parsed scenario; a CliInputError names the pointer at fault."""
    _object(doc, "", ("version", "task", "seed", "state", "out", "params"),
            ("version", "task", "seed"))
    _string(doc, "version")
    _string(doc, "out")
    if not isinstance(doc["task"], str) or doc["task"] not in _RUNNERS:
        raise CliInputError("/task: must be one of %s, got %r"
                            % (list(_RUNNERS), doc["task"]))
    _count(doc, "seed", None, least=0, where="")
    _object(doc.get("params", {}), "/params")
    if "state" in doc:
        _object(doc["state"], "/state", ("kind", "params"), ("kind",))
        _string(doc["state"], "kind", "/state")
        _object(doc["state"].get("params", {}), "/state/params")
    elif doc["task"] != "reproduce":
        raise CliInputError("/state: required for task %r" % (doc["task"],))
    if doc["task"] == "reproduce":
        target = doc.get("params", {}).get("target")
        if target not in REPRODUCE_TARGETS:
            raise CliInputError("/params/target: must be one of %s"
                                % (list(REPRODUCE_TARGETS),))


def _build_state(state_doc):
    try:
        return states.make_state(state_doc["kind"],
                                 **state_doc.get("params", {}))
    except states.StateParameterError as e:
        where = "/state/params/" + e.param if e.param else "/state"
        raise CliInputError("%s: %s" % (where, e))


def _object(value, where, allowed=None, required=()):
    """`value` once it is a JSON object with every key of `required` and,
    when `allowed` is given, no key outside it."""
    if not isinstance(value, dict):
        raise CliInputError("%s: must be an object, got %r"
                            % (where or "/", value))
    for key in required:
        if key not in value:
            raise CliInputError("%s/%s: required" % (where, key))
    for key in value:
        if allowed is not None and key not in allowed:
            raise CliInputError("%s/%s: unexpected key" % (where, key))
    return value


def _string(doc, key, where=""):
    """Check that `doc[key]`, if present, is a JSON string."""
    if key in doc and not isinstance(doc[key], str):
        raise CliInputError("%s/%s: must be a string, got %r"
                            % (where, key, doc[key]))


def _count(params, key, default, least=1, where="/params"):
    """An integer parameter of at least `least`; 1.0 counts as 1."""
    value = params.get(key, default)
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()) \
            or value < least:
        raise CliInputError("%s/%s: must be an integer >= %d, got %r"
                            % (where, key, least, value))
    return int(value)


def _number(value, where, positive=False):
    """`value` itself once it is a JSON number (positive when asked)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (positive and not value > 0):
        raise CliInputError("%s: must be a %snumber, got %r"
                            % (where, "positive " if positive else "", value))
    return value


def _numbers(values, where, size=None):
    """A non-empty list of JSON numbers, of length `size` when given."""
    if not isinstance(values, list) or not values \
            or size not in (None, len(values)):
        raise CliInputError("%s: must be a list of %s numbers, got %r"
                            % (where, size or "one or more", values))
    return [_number(v, "%s/%d" % (where, i)) for i, v in enumerate(values)]


def _direction(family, coords, where, size=None):
    """An algebra element of `family` from its coordinate list, of length
    `size` (default: the family's algebra dimension, if it has one)."""
    return groups.algebra(family, _numbers(
        coords, where, size or groups.ALGEBRA_DIM.get(family)))


# the keys of params.orbit that each family's G-orbit reads
_ORBIT_KEYS = {"heisenberg": ("k", "l"), "bargmann": (), "euclid": ("k", "s"),
               "su2": ("lam",), "torus": ("y",)}


def _default_orbit(state, params):
    fam = state.family
    orbit = _object(params.get("orbit", {}), "/params/orbit", _ORBIT_KEYS[fam])

    def value(key, default):
        v = _number(orbit.get(key, default), "/params/orbit/" + key)
        # the radius of a Euclid orbit and the weight of an SU(2) sphere
        if (fam, key) in (("euclid", "k"), ("su2", "lam")) and v < 0:
            raise CliInputError("/params/orbit/%s: must be >= 0, got %r"
                                % (key, v))
        return v

    if fam == "heisenberg":
        return orbits.heisenberg_orbit(value("k", state.params.get("k", 1.0)),
                                       value("l", state.params.get("l", 0.0)))
    if fam == "bargmann":
        return orbits.bargmann_orbit()
    if fam == "euclid":
        return orbits.euclid_orbit(value("k", state.params.get("k", 1.0)),
                                   value("s", state.params.get("s", 0.0)))
    if fam == "su2":
        return orbits.su2_orbit(value("lam", state.params.get("j", 0.5)))
    y = orbit.get("y", [1.0])
    return orbits.torus_orbit(_numbers(y, "/params/orbit/y")
                              if isinstance(y, list)
                              else _number(y, "/params/orbit/y"))


def _concentration(target):
    """Check a target of spectral.concentration_check and its numbers."""
    kind = target.get("type") if isinstance(target, dict) else None
    where = "/params/concentration/"
    if kind == "point":
        _number(target.get("value"), where + "value")
    elif kind == "interval":
        _numbers(target.get("bounds"), where + "bounds", 2)
    elif kind == "finite":
        _numbers(target.get("values"), where + "values")
    else:
        raise CliInputError("%stype: must be point, interval or finite, "
                            "got %r" % (where, kind))


# ---------------------------------------------------------------------------
# task runners: each returns (results dict, passed bool, paper_refs)

def _sweep(state, rng, sets, n, pairs):
    """`sets` Gram matrices of `n` support samples, then the three
    inequalities over `pairs` sample pairs, all drawn from rng: the worst
    min eigenvalue / n, whether it passes, and the inequality report.
    The sets are drawn in turn and their Gram kernels taken at most
    GRAM_ENTRIES entries (at least one set) at a time."""
    worst = 0.0
    per_call = max(1, GRAM_ENTRIES // (n * n))
    for first in range(0, sets, per_call):
        samples = groups.GroupElement(state.family, groups.map_coords(
            lambda *xs: np.stack(xs), *(
                states.support_samples(state, rng, n).data
                for _ in range(min(per_call, sets - first)))))
        for low in states.gram_min_eigenvalues(state, samples).tolist():
            worst = min(worst, low / n)
    gs = states.support_samples(state, rng, pairs)
    hs = states.support_samples(state, rng, pairs)
    return worst, worst >= -DEFAULT.psd_scale, \
        states.check_inequalities(state, gs, hs)


def _task_verify(doc, seed):
    state = _build_state(doc["state"])
    p = doc.get("params", {})
    sets, n = _count(p, "sets", 50), _count(p, "samples", 24)
    worst, psd_pass, ineq = _sweep(state, np.random.default_rng(seed), sets, n,
                                   _count(p, "pairs", 2000))
    results = {
        "sets": sets,
        "samples_per_set": n,
        "min_eigenvalue_per_n": worst,
        "psd_pass": psd_pass,
        "inequalities": ineq,
    }
    return results, bool(psd_pass and ineq["pass"]), \
        ["state-psd-kernel", "modulus-and-continuity-bounds"]


def _task_gram(doc, seed):
    state = _build_state(doc["state"])
    p = doc.get("params", {})
    rng = np.random.default_rng(seed)
    samples = states.support_samples(state, rng, _count(p, "samples", 24))
    gm = states.gram(state, samples)
    ok = states.check_psd(gm)["pass"]
    results = {
        "n": gm.n,
        "rank": gm.rank,
        "eigenvalues": [float(v) for v in gm.eigenvalues],
        "pass": ok,
    }
    return results, bool(ok), ["state-psd-kernel"]


def _task_gns(doc, seed):
    state = _build_state(doc["state"])
    p = doc.get("params", {})
    if state.kind not in gns.CLOSED_KINDS:
        raise CliInputError("/state/kind: gns needs one of %s, got %r"
                            % (list(gns.CLOSED_KINDS), state.kind))
    samples, probes = gns.closed_sample_set(state, _count(p, "n", 16), seed)
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
    ok = worst_res <= 1e-9 and worst_rec <= 1e-9 and repro <= 1e-9
    results = {
        "rank": space.rank,
        "samples": len(samples),
        "probes": len(probes),
        "worst_unitarity_residual": worst_res,
        "worst_recovery_error": worst_rec,
        "reproducing_defect": repro,
        "pass": ok,
    }
    return results, bool(ok), ["finite-gns-recovery"]


def _task_spectral(doc, seed):
    state = _build_state(doc["state"])
    p = doc.get("params", {})
    if "Z" not in p:
        raise CliInputError("/params/Z: direction coordinates required")
    Z = _direction(state.family, p["Z"], "/params/Z")
    T = p.get("T")
    if T is not None:
        _number(T, "/params/T", positive=True)
    if "omega" in p:
        _number(p["omega"], "/params/omega")
    if "concentration" in p:
        _concentration(p["concentration"])
    est = spectral.density_estimate(state, Z, T=T, N=_count(p, "N", 2 ** 14))
    results = {
        "classification": est.classification,
        "atoms": [[float(om), float(m)] for om, m in est.atoms],
        "total_mass_accounted": est.total_mass_accounted,
        "leakage": est.leakage,
        "zero_value": [est.zero_value.real, est.zero_value.imag],
    }
    if "omega" in p:
        atom = spectral.bohr_atom(state, Z, float(p["omega"]), T=T)
        results["atom_at_omega"] = {
            "omega": atom.omega,
            "mass": [atom.mass.real, atom.mass.imag],
            "leakage": atom.leakage,
        }
    ok = True
    if "concentration" in p:
        conc = spectral.concentration_check(est, p["concentration"])
        results["concentration"] = conc
        ok = conc["pass"]
    results["_density"] = est.density
    return results, bool(ok), ["abelian-restriction-spectrum"]


def _task_orbit(doc, seed):
    state = _build_state(doc["state"])
    p = doc.get("params", {})
    spec = _default_orbit(state, p)
    rng = np.random.default_rng(seed)
    count = _count(p, "count", 1000)
    pts = spec.sample(rng, count)
    rel = float(np.max(orbits.relation_residuals(spec, pts)))
    results = {
        "family": spec.family,
        "count": count,
        "relation_residual": rel,
        "pass": rel <= 1e-10,
    }
    if not isinstance(p.get("Zs", []), list):
        raise CliInputError("/params/Zs: must be a list of directions, got %r"
                            % (p["Zs"],))
    if p.get("Zs"):
        Zs = [_direction(state.family, z, "/params/Zs/%d" % i, spec.dim)
              for i, z in enumerate(p["Zs"])]
        if not groups.commuting(Zs):
            raise CliInputError("/params/Zs: tuple does not commute")
        proj = groups.pairing_coords(state.family, pts[:, None],
                                     np.array([Z.coords for Z in Zs]))
        results["projection_mean"] = [float(v) for v in proj.mean(axis=0)]
        results["projection_minmax"] = [
            [float(a), float(b)] for a, b in zip(proj.min(axis=0),
                                                 proj.max(axis=0))]
        results["_projections"] = proj
    if spec.family == "su2":
        lam = spec.params["lam"]
        dist = orbits.kostant_projection_check(lam, _count(p, "kostant", 10 ** 5),
                                               seed)
        results["kostant_hausdorff"] = dist
        results["pass"] = bool(results["pass"] and dist < 0.01)
    return results, bool(results["pass"]), \
        ["orbit-relations", "axis-projection-range"]


def _task_quantum(doc, seed):
    state = _build_state(doc["state"])
    p = doc.get("params", {})
    spec = _default_orbit(state, p)
    report = orbits.quantum_check(
        state, spec,
        trials=_count(p, "trials", 200),
        n_max=_count(p, "n_max", 3),
        budget=_count(p, "budget", 10000, 0),
        seed=seed)
    results = dict(report)
    return results, bool(report["pass"]), ["orbit-sup-inequality"]


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
    matrix, details = {}, {}
    for name, action, f, st in cases:
        err = _max_modulus(induced.matrix_coefficient(action, f, gs.data)
                           - states.evaluate(st, gs))
        matrix[name] = err < 1e-12
        details[name + "_max_error"] = err
    return matrix, details, ["induced-row-coefficients"]


def _reproduce_bargmann_states(seed):
    rng = np.random.default_rng(seed)
    matrix, details = {}, {}
    for label, st in [("loc_pe", states.make_state("bargmann_loc_pe", k=1.0)),
                      ("loc_q", states.make_state("bargmann_loc_q", l=1.0))]:
        worst, matrix[label + "_psd"], ineq = _sweep(st, rng, 20, 24, 2000)
        matrix[label + "_inequalities"] = ineq["pass"]
        details[label + "_min_eig_per_n"] = worst
        details[label + "_worst_margin"] = ineq["worst_margin"]
    st = states.make_state("bargmann_loc_q", l=1.0)
    atom = spectral.bohr_atom(st, groups.algebra("bargmann", [0, 1.0, 0, 0]),
                              -1.0, T=200 * np.pi)
    matrix["loc_q_character_atom"] = abs(atom.mass - 1.0) < 1e-6
    details["loc_q_atom_mass"] = [atom.mass.real, atom.mass.imag]
    est = spectral.density_estimate(
        st, groups.algebra("bargmann", [0, 1.0, -0.7, 0]), T=200 * np.pi,
        N=2 ** 13)
    matrix["loc_q_boosted_haar"] = est.classification == "haar_on_bohr"
    st2 = states.make_state("bargmann_loc_pe", k=1.0)
    a_g = spectral.bohr_atom(st2, groups.algebra("bargmann", [0, 0, 1.0, 0]),
                             1.0, T=200 * np.pi)
    a_e = spectral.bohr_atom(st2, groups.algebra("bargmann", [0, 0, 0, 1.0]),
                             -0.5, T=200 * np.pi)
    matrix["loc_pe_plane_atoms"] = (abs(a_g.mass - 1.0) < 1e-6
                                    and abs(a_e.mass - 1.0) < 1e-6)
    return matrix, details, ["paraboloid-states", "abelian-restriction-spectrum"]


def _reproduce_euclid_waves(seed):
    rng = np.random.default_rng(seed)
    matrix, details = {}, {}
    trio = [("plane", states.make_state("euclid_plane", k=1.0)),
            ("spherical", states.make_state("euclid_spherical", k=1.0)),
            ("cylindrical", states.make_state("euclid_cylindrical", k=1.0))]
    for label, st in trio:
        _, matrix[label + "_psd"], ineq = _sweep(st, rng, 20, 24, 2000)
        matrix[label + "_inequalities"] = ineq["pass"]
        spec = orbits.euclid_orbit(1.0, 0.0)
        q = orbits.quantum_check(st, spec, trials=50, budget=4000, seed=seed)
        matrix[label + "_quantum"] = q["worst_margin"] >= -DEFAULT.margin
        details[label + "_worst_margin"] = q["worst_margin"]
    # sphere-average identity against the closed form
    pts, wts = induced.sphere_grid(64, 128)
    cvec = np.array([0.3, -1.1, 2.0])
    avg = np.sum(wts * np.exp(1j * pts @ cvec))
    err_sph = abs(avg - states.sinc(np.linalg.norm(cvec)))
    matrix["sphere_average_identity"] = err_sph < 1e-8
    details["sphere_average_error"] = float(err_sph)
    from scipy.special import j0
    phi = 2 * np.pi * np.arange(512) / 512
    circ = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(512)])
    err_cyl = abs(np.mean(np.exp(1j * circ @ cvec)) - j0(np.hypot(*cvec[:2])))
    matrix["circle_average_identity"] = err_cyl < 1e-10
    details["circle_average_error"] = float(err_cyl)
    action = induced.EuclidAction(k=1.0)
    f = induced.constant_section()
    st = states.make_state("euclid_spherical", k=1.0)
    gs = groups.random_elements("euclid", rng, 200)
    err = _max_modulus(induced.matrix_coefficient(action, f, gs.data)
                       - states.evaluate(st, gs))
    matrix["spherical_coefficient_match"] = err < 1e-8
    details["spherical_coefficient_error"] = err
    return matrix, details, ["wave-identities", "orbit-sup-inequality"]


def _reproduce_prequant(seed):
    scn = spectral.gaussian_scenario()
    value = spectral.prequant_mass_outside(scn)
    matrix = {"mass_outside_positive": value > 0.05,
              "matches_oracle": abs(value - PREQUANT_ORACLE) <= 1e-3}
    details = {"mass_outside": float(value), "oracle": PREQUANT_ORACLE}
    shifted = spectral.gaussian_scenario(center=(0.0, 10.0))
    v2 = spectral.prequant_mass_outside(shifted)
    matrix["shifted_gaussian_escapes"] = v2 > 0.9
    details["shifted_mass_outside"] = float(v2)
    return matrix, details, ["classical-value-escape"]


def _reproduce_su2_weights(seed):
    from math import comb
    rng = np.random.default_rng(seed)
    matrix, details = {}, {}
    worst = 0.0
    for twoj in (1, 2, 4, 8):
        j = twoj / 2.0
        st = states.su2_highest_weight(j)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = rng.uniform(0.5, 2.0)
        Z = groups.algebra("su2", w * v)
        T = 200 * np.pi / w
        ms = [m2 / 2.0 for m2 in range(-twoj, twoj + 1, 2)]
        atoms = spectral.bohr_atoms(st, Z, [m * w for m in ms], T)
        for m, est in zip(ms, atoms):
            u3 = v[2]
            pred = comb(twoj, int(twoj / 2 + m)) \
                * ((1 + u3) / 2) ** (twoj / 2 + m) \
                * ((1 - u3) / 2) ** (twoj / 2 - m)
            worst = max(worst, abs(est.mass - pred))
    matrix["binomial_atoms"] = worst < 1e-8
    details["worst_atom_error"] = float(worst)
    dist = orbits.kostant_projection_check(1.0, 10 ** 5, seed)
    matrix["projection_fills_interval"] = dist < 0.01
    details["kostant_hausdorff"] = float(dist)
    return matrix, details, ["binomial-weights", "axis-projection-range"]


_REPRODUCERS = {
    "heisenberg-table": _reproduce_heisenberg_table,
    "bargmann-states": _reproduce_bargmann_states,
    "euclid-waves": _reproduce_euclid_waves,
    "prequant-counterexample": _reproduce_prequant,
    "su2-weights": _reproduce_su2_weights,
}
REPRODUCE_TARGETS = tuple(_REPRODUCERS)


def _task_reproduce(doc, seed):
    target = doc.get("params", {}).get("target")
    matrix, details, refs = _REPRODUCERS[target](seed)
    results = {"target": target, "matrix": matrix, "details": details}
    return results, bool(all(matrix.values())), refs


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
# report emission

def _atomic_write_bytes(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_report(report, path):
    payload = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    _atomic_write_bytes(path, payload)


def emit_plotdata(report, outdir=".", density=None, proj=None):
    """CSV files for the figure-like parts of a report and for the density
    and projection arrays it leaves out; returns paths."""
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
        write_csv("density.csv", ["omega", "density"],
                  [np.asarray(c) for c in density])
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
        validate_scenario(doc)
        if budget is not None:
            doc = dict(doc, params=dict(doc.get("params", {}), budget=budget))
        seed = _count({"seed": doc["seed"] if seed is None else seed}, "seed",
                      None, least=0, where="")
        outdir = out or doc.get("out", "reports")
        results, passed, refs = _RUNNERS[doc["task"]](doc, seed)
    except CliInputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except spectral.GridTooCoarse as e:
        results, passed, refs = {"error": str(e)}, False, []

    density = results.pop("_density", None)
    projections = results.pop("_projections", None)
    report = {
        "version": doc.get("version", "1"),
        "task": doc["task"],
        "seed": seed,
        "paper_refs": refs,
        "results": _plain(results),
        "pass": bool(passed),
    }
    if "state" in doc:
        report["state"] = doc["state"]
    os.makedirs(outdir, exist_ok=True)
    _write_report(report, os.path.join(outdir, "%s-report.json" % doc["task"]))
    emit_plotdata(report, outdir, density, projections)
    return 0 if passed else 1


def _plain(obj):
    """JSON-safe copy (numpy scalars/arrays to python types)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def main(argv=None):
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
    args = parser.parse_args(argv)

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
