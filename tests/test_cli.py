import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from orbitstates import cli, spectral, states
from orbitstates.tolerances import DEFAULT, OPS, gate


def _write(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _report(outdir, task):
    with open(os.path.join(outdir, "%s-report.json" % task)) as fh:
        return json.load(fh)


def _least_T(N):
    """The least T at which spectral's top lattice frequency
    pi floor(N / 2) / T is a finite double."""
    top = math.pi * (N // 2)
    T = top / sys.float_info.max
    while not math.isfinite(top / T):
        T = math.nextafter(T, math.inf)
    while math.isfinite(top / math.nextafter(T, 0.0)):
        T = math.nextafter(T, 0.0)
    return T


# ---------------------------------------------------------------------------
# scenario validation

def test_validate_accepts_minimal_scenarios():
    cli.validate_scenario({"version": "1", "task": "gram", "seed": 0,
                           "state": {"kind": "heisenberg_loc_p"}})
    cli.validate_scenario({"version": "1", "task": "reproduce", "seed": 3,
                          "params": {"target": "euclid-waves"}})


@pytest.mark.parametrize("doc,needle", [
    ({"version": "1", "task": "gram",
      "state": {"kind": "x"}}, "seed"),
    ({"version": "1", "task": "polish", "seed": 0}, "/task"),
    ({"version": "1", "task": "verify", "seed": 0}, "/state"),
    ({"version": "1", "task": "reproduce", "seed": 0,
      "params": {"target": "bogus"}}, "/params/target"),
    ({"version": "1", "task": "gram", "seed": 0, "extra": 1,
      "state": {"kind": "x"}}, "extra"),
    ({"version": "1", "task": "gram", "seed": -1,
      "state": {"kind": "x"}}, "/seed"),
    ([], "/"),
    ({"version": 1, "task": "gram", "seed": 0,
      "state": {"kind": "x"}}, "/version"),
    ({"version": "1", "task": "gram", "seed": True,
      "state": {"kind": "x"}}, "/seed"),
    ({"version": "1", "task": "gram", "seed": 0, "out": 5,
      "state": {"kind": "x"}}, "/out"),
    ({"version": "1", "task": "gram", "seed": 0, "params": [],
      "state": {"kind": "x"}}, "/params"),
    ({"version": "1", "task": "gram", "seed": 0,
      "state": {"kind": "x", "params": []}}, "/state/params"),
    ({"version": "1", "task": "gram", "seed": 0,
      "state": {"params": {}}}, "kind"),
    ({"version": "1", "task": "gram", "seed": 0,
      "state": {"kind": "x", "extra": 1}}, "extra"),
])
def test_validate_rejects_with_pointer_paths(doc, needle):
    with pytest.raises(cli.CliInputError) as err:
        cli.validate_scenario(doc)
    assert needle in str(err.value)


# ---------------------------------------------------------------------------
# task runs through the public entry points

def test_verify_task_passes_and_writes_report(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "verify", "seed": 1,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.3}},
        "params": {"sets": 5, "samples": 10, "pairs": 200}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    rep = _report(out, "verify")
    assert rep["pass"] is True
    assert rep["task"] == "verify"
    assert rep["results"]["gates"]["psd"]["pass"] is True
    assert rep["results"]["gates"]["inequalities"]["pass"] is True
    assert rep["results"]["inequalities"]["pass"] is True
    assert rep["state"]["kind"] == "heisenberg_loc_p"
    assert sorted(rep) == ["paper_refs", "pass", "results", "seed", "state",
                           "task", "version"]


def test_reports_are_byte_identical_across_runs(tmp_path):
    doc = {"version": "1", "task": "quantum_check", "seed": 5,
           "state": {"kind": "euclid_spherical", "params": {"k": 2.0}},
           "params": {"trials": 30, "budget": 1500}}
    outs = []
    for name in ("a", "b"):
        p = _write(tmp_path, doc, name + ".json")
        out = str(tmp_path / ("rep_" + name))
        assert cli.run(p, out=out) == 0
        with open(os.path.join(out, "quantum_check-report.json"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]
    results = json.loads(outs[0])["results"]
    assert sum(results["stages"].values()) == 30


def test_seed_and_budget_overrides(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 0,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.0}},
        "params": {"trials": 10, "budget": 9999}})
    out = str(tmp_path / "rep")
    assert cli.run(path, seed=7, budget=500, out=out) == 0
    rep = _report(out, "quantum_check")
    assert rep["seed"] == 7
    assert rep["results"]["budget"] == 500
    assert rep["results"]["worst_margin"] >= -1e-6


@pytest.mark.parametrize("flag,pointer", [("--budget", "/params/budget"),
                                          ("--seed", "/seed")])
def test_overrides_are_checked_like_the_scenario_values(tmp_path, capsys,
                                                        flag, pointer):
    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 0,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.0}},
        "params": {"trials": 10, "budget": 500}})
    out = str(tmp_path / "rep")
    assert cli.main(["quantum", flag, "-5", "--scenario", path,
                     "--out", out]) == 2
    assert pointer in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gram_gns_and_orbit_tasks(tmp_path):
    out = str(tmp_path / "rep")
    path = _write(tmp_path, {
        "version": "1", "task": "gram", "seed": 2,
        "state": {"kind": "su2_highest_weight", "params": {"j": 1.0}},
        "params": {"samples": 12}})
    assert cli.run(path, out=out) == 0
    rep = _report(out, "gram")
    assert rep["results"]["n"] == 12
    assert rep["results"]["rank"] <= 12
    assert min(rep["results"]["eigenvalues"]) > -1e-9 * 12

    path = _write(tmp_path, {
        "version": "1", "task": "gns", "seed": 2,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.3}},
        "params": {"n": 12}})
    assert cli.run(path, out=out) == 0
    rep = _report(out, "gns")
    assert rep["results"]["worst_unitarity_residual"] <= 1e-9
    assert rep["results"]["worst_recovery_error"] <= 1e-9

    path = _write(tmp_path, {
        "version": "1", "task": "orbit_project", "seed": 2,
        "state": {"kind": "su2_highest_weight", "params": {"j": 1.0}},
        "params": {"count": 500, "Zs": [[0, 0, 1.0]], "kostant": 20000}})
    assert cli.run(path, out=out) == 0
    rep = _report(out, "orbit_project")
    assert rep["results"]["kostant_hausdorff"] < 0.01
    lo, hi = rep["results"]["projection_minmax"][0]
    assert -1.0 - 1e-9 <= lo and hi <= 1.0 + 1e-9


def test_spectral_task_with_concentration(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.3}},
        "params": {"Z": [0, 0, 1.0], "omega": 1.3,
                   "concentration": {"type": "point", "value": 1.3}}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    rep = _report(out, "spectral")
    assert rep["results"]["classification"] == "atomic"
    m_re, m_im = rep["results"]["atom_at_omega"]["mass"]
    assert abs(m_re - 1.0) < 1e-9 and abs(m_im) < 1e-9
    assert rep["results"]["gates"]["concentration"]["pass"] is True


def test_failing_check_exits_one_with_witness(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 0,
        "state": {"kind": "constant_one", "params": {"family": "heisenberg"}},
        "params": {"trials": 3, "budget": 300}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 1
    rep = _report(out, "quantum_check")
    assert rep["pass"] is False
    wit = rep["results"]["failures"][0]
    assert wit["lhs"] > 1.9 and wit["rhs"] < 1e-6


@pytest.mark.parametrize("y,code", [([0.0, 0.0], 0), ([0.5, 2.0], 1)])
def test_quantum_check_on_a_two_dimensional_torus_orbit(tmp_path, y, code):
    # the constant state is the character at y = 0, and no other
    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 2,
        "state": {"kind": "constant_one", "params": {"family": "torus"}},
        "params": {"trials": 40, "budget": 100, "orbit": {"y": y}}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == code
    results = _report(out, "quantum_check")["results"]
    assert len(results["margins"]) == 40
    assert all(len(Z) == 2 for f in results["failures"] for Z in f["Zs"])


@pytest.mark.parametrize("payload", ["{not json", '{"task": "gram"}'])
def test_bad_input_exits_two(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert cli.run(str(path)) == 2


@pytest.mark.parametrize("text,pointer,task", [
    ('{"kind": "heisenberg_loc_p", "params": {"k": "abc"}}, '
     '"params": {"pairs": 100}', "/state/params/k", "verify"),
    ('{"kind": "heisenberg_loc_p", "params": {"k": Infinity}}, '
     '"params": {"pairs": 100}', "/state/params/k", "verify"),
    ('{"kind": "heisenberg_loc_q", "params": {"l": NaN}}, '
     '"params": {"pairs": 100}', "/state/params/l", "verify"),
    ('{"kind": "heisenberg_loc_p", "params": {"k": 1.0}}, '
     '"params": {"samples": 0}', "/params/samples", "verify"),
    ('{"kind": "heisenberg_loc_p", "params": {"kk": 3}}, '
     '"params": {"pairs": 100}', "/state/params/kk", "verify"),
    ('{"kind": "heisenberg_loc_p", "params": {"kind": 3}}, '
     '"params": {"pairs": 100}', "/state/params/kind", "verify"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1, "family": "su2"}}, '
     '"params": {"pairs": 100}', "/state/params/family", "verify"),
    ('{"kind": "heisenberg_loc_p", "params": {"k": true}}, '
     '"params": {"pairs": 100}', "/state/params/k", "verify"),
    ('{"kind": "custom"}, "params": {"pairs": 100}', "/state/params/family",
     "verify"),
    ('{"kind": "custom", "params": {"family": "heisenberg"}}, '
     '"params": {"pairs": 100}', "/state/params/evaluator", "verify"),
    ('{"kind": "constant_one", "params": {"family": "foo"}}, '
     '"params": {"pairs": 100}', "/state/params/family", "verify"),
    ('{"kind": "heisenberg_loc_t"}', "/state/kind", "gns"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [1, 2]}', "/params/Z",
     "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], "T": "abc"}',
     "/params/T", "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], "T": -5}',
     "/params/T", "spectral"),
    # T |Z| past FLOW_REACH: exp_coords would square t Z past the largest
    # double; without T the default T and Z are at fault
    ('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
     '"params": {"Z": [0, 0, 1], "T": 1e300}', "/params/T", "spectral"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
     '"params": {"Z": [0, 0, 1], "T": 100000000.00000001}', "/params/T",
     "spectral"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
     '"params": {"Z": [0, 0, 1e300]}', "/params/Z", "spectral"),
    # T below the lattice's bound: pi floor(N / 2) / T overflowed, and the
    # report read "not a finite number" (exit 1)
    *[('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
       '"params": {"Z": [0, 0, 1], "T": %r%s}' % (T, N), "/params/T",
       "spectral")
      for T, N in [(5e-324, ""), (1e-310, ', "N": 64'),
                   (math.nextafter(_least_T(2 ** 14), 0.0), ""),
                   (math.nextafter(_least_T(64), 0.0), ', "N": 64'),
                   (math.nextafter(_least_T(3), 0.0), ', "N": 3'),
                   (math.nextafter(_least_T(5), 0.0), ', "N": 5')]],
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], "omega": "x"}',
     "/params/omega", "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], '
     '"concentration": {"type": "blob"}}', "/params/concentration/type",
     "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], '
     '"concentration": {"type": "interval", "bounds": [1, -1]}}',
     "/params/concentration/bounds", "spectral"),
    # one lattice point leaves the atom scan no neighbour
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], "N": 1}',
     "/params/N", "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Zs": [[1, 2]]}',
     "/params/Zs/0", "orbit_project"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"orbit": {"k": "abc"}}',
     "/params/orbit/k", "quantum_check"),
    ('{"kind": "constant_one", "params": {"family": "torus"}}, '
     '"params": {"Zs": [[1, 2]]}', "/params/Zs/0", "orbit_project"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Zs": 5}', "/params/Zs",
     "orbit_project"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Zs": true}', "/params/Zs",
     "orbit_project"),
    # a tuple that does not commute: the pointer names the whole tuple
    ('{"kind": "su2_highest_weight"}, "params": {"Zs": [[1, 0, 0], '
     '[0, 1, 0]]}', "/params/Zs:", "orbit_project"),
    ('{"kind": "su2_highest_weight"}, "params": {"orbit": {"lam": -1}}',
     "/params/orbit/lam", "quantum_check"),
    # lam past LAM_MAX: the weight heights would take 4 lam + 1 values
    ('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
     '"params": {"orbit": {"lam": 1e308}}', "/params/orbit/lam",
     "quantum_check"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
     '"params": {"orbit": {"lam": 16.000000000000004}}', "/params/orbit/lam",
     "quantum_check"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1}}, '
     '"params": {"orbit": {"lam": 1e308}, "count": 50}', "/params/orbit/lam",
     "orbit_project"),
    ('{"kind": "euclid_plane", "params": {"k": 2, "s": 1}}, '
     '"params": {"orbit": {"k": -2, "s": 1}}', "/params/orbit/k",
     "quantum_check"),
    ('{"kind": "euclid_plane"}, "params": {"orbit": {"k": -2}}',
     "/params/orbit/k", "orbit_project"),
    # a Euclid radius past EUCLID_K_MAX: drawn tuples would put phases past
    # the range that orbits.ROUNDING covers into the sup search
    ('{"kind": "euclid_plane", "params": {"k": 1}}, '
     '"params": {"orbit": {"k": 1e308}, "count": 50}', "/params/orbit/k",
     "orbit_project"),
    ('{"kind": "euclid_plane", "params": {"k": 1}}, '
     '"params": {"orbit": {"k": %r}}' % math.nextafter(cli.EUCLID_K_MAX,
                                                      math.inf),
     "/params/orbit/k", "quantum_check"),
    ('{"kind": "euclid_plane", "params": {"k": 1e308}}, "params": {}',
     "/state/params/k", "quantum_check"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1.5}}, '
     '"params": {"orbit": {"lamda": 0.5}}', "/params/orbit/lamda",
     "quantum_check"),
    # a direction past DIRECTION_MAX: its projections overflowed to
    # "not a finite number" (exit 1)
    ('{"kind": "heisenberg_loc_p"}, "params": {"Zs": [[0, 0, 1e308]]}',
     "/params/Zs/0/2", "orbit_project"),
    # a torus point past TORUS_Y_MAX: the sup search's phases overflowed
    ('{"kind": "constant_one", "params": {"family": "torus"}}, '
     '"params": {"orbit": {"y": [1e308]}}', "/params/orbit/y",
     "quantum_check"),
    # a Euclid helicity past EUCLID_S_MAX: L.P - k s read 2e292
    ('{"kind": "euclid_spherical"}, "params": {"orbit": {"s": 1e308}}',
     "/params/orbit/s", "orbit_project"),
    ('{"kind": "bargmann_loc_q", "params": {"l": 0.8}}, '
     '"params": {"orbit": {"k": 1.0}}', "/params/orbit/k", "quantum_check"),
    # state parameters past states.PARAM_MAX: the closed forms give NaN
    # values, Gram eigensolvers fail on them and spectral atoms are NaN
    ('{"kind": "euclid_spherical", "params": {"k": 1e308}}, '
     '"params": {"pairs": 100}', "/state/params/k", "verify"),
    ('{"kind": "heisenberg_loc_p", "params": {"k": 1e308}}, '
     '"params": {"pairs": 100}', "/state/params/k", "verify"),
    ('{"kind": "bargmann_loc_pe", "params": {"k": 1e200}}, '
     '"params": {"pairs": 100}', "/state/params/k", "verify"),
    ('{"kind": "euclid_cylindrical", "params": {"k": 1e308}}, "params": {}',
     "/state/params/k", "gram"),
    ('{"kind": "heisenberg_loc_t", "params": {"t": 1e308}}, "params": {}',
     "/state/params/t", "gram"),
    ('{"kind": "heisenberg_loc_p", "params": {"k": 1e308}}, '
     '"params": {"Z": [0, 0, 1]}', "/state/params/k", "spectral"),
    ('{"kind": "heisenberg_loc_q", "params": {"l": %r}}, "params": {}'
     % math.nextafter(-states.PARAM_MAX, -math.inf), "/state/params/l",
     "gram"),
    ('{"kind": "euclid_plane", "params": {"s": %r}}, "params": {}'
     % (states.PARAM_MAX + 1), "/state/params/s", "gram"),
    # counts past cli.COUNT_MAX: each is refused before it sizes an array
    # or a loop (these three once ended in a numpy MemoryError, exit 1)
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], "N": 1e12}',
     "/params/N", "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"samples": 1e9}',
     "/params/samples", "verify"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"count": 1e10}',
     "/params/count", "orbit_project"),
    *[('{"kind": "%s"}, "params": {"%s": %d}'
       % (kind, key, cli.COUNT_MAX[key] + 1), "/params/" + key, task)
      for task, kind, key in [
          ("verify", "heisenberg_loc_p", "sets"),
          ("verify", "heisenberg_loc_p", "pairs"),
          ("gram", "heisenberg_loc_p", "samples"),
          ("gns", "heisenberg_loc_p", "n"),
          ("orbit_project", "heisenberg_loc_p", "count"),
          ("orbit_project", "su2_highest_weight", "kostant"),
          ("quantum_check", "heisenberg_loc_p", "trials"),
          ("quantum_check", "heisenberg_loc_p", "n_max"),
          ("quantum_check", "heisenberg_loc_p", "budget")]],
])
def test_malformed_parameters_exit_two_with_pointer(tmp_path, capsys, text,
                                                    pointer, task):
    path = tmp_path / "bad.json"
    path.write_text('{"version": "1", "task": "%s", "seed": 1, "state": %s}'
                    % (task, text))
    out = str(tmp_path / "rep")
    assert cli.run(str(path), out=out) == 2
    assert pointer in capsys.readouterr().err
    assert not os.path.exists(out)
    command = {"orbit_project": "orbit", "quantum_check": "quantum"}
    assert cli.main([command.get(task, task), "--scenario", str(path),
                     "--out", out]) == 2


def test_counts_at_their_bound_are_accepted():
    for key, most in cli.COUNT_MAX.items():
        assert cli._count({key: most}, key, None) == most
        assert cli._count({key: float(most)}, key, None) == most


@pytest.mark.parametrize("task,kind,params,task_params", [
    ("verify", "euclid_spherical", {"k": states.PARAM_MAX},
     {"sets": 2, "pairs": 200}),
    ("gram", "heisenberg_loc_t", {"k": -states.PARAM_MAX,
                                  "t": states.PARAM_MAX}, {}),
    ("spectral", "heisenberg_loc_p", {"k": states.PARAM_MAX},
     {"Z": [0, 0, 1]}),
])
def test_state_parameters_at_their_bound_run(tmp_path, task, kind, params,
                                             task_params):
    path = _write(tmp_path, {
        "version": "1", "task": task, "seed": 0,
        "state": {"kind": kind, "params": params}, "params": task_params})
    assert cli.run(path, out=str(tmp_path / "rep")) in (0, 1)


@pytest.mark.parametrize("N", [3, 5, 64, 2 ** 14])
def test_spectral_T_at_its_lattice_bound_runs(tmp_path, N):
    path = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": "su2_highest_weight", "params": {"j": 1}},
        "params": {"Z": [0, 0, 1], "T": _least_T(N), "N": N}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    assert math.isfinite(_report(out, "spectral")["results"][
        "total_mass_accounted"])


def test_euclid_radius_at_its_bound_runs(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({
        "version": "1", "task": "quantum_check", "seed": 1,
        "state": {"kind": "euclid_plane", "params": {"k": 1}},
        "params": {"trials": 20, "budget": 100,
                   "orbit": {"k": cli.EUCLID_K_MAX}}}))
    assert cli.run(str(path), out=str(tmp_path / "rep")) in (0, 1)


@pytest.mark.parametrize("kind,params", [
    # the Euclid relations at radii up to EUCLID_K_MAX: the absolute defect
    # of L.P - k s read 9.3e-10 at k = 300 and failed the 1e-10 gate
    ("euclid_spherical", {"count": 1000, "orbit": {"k": 300, "s": 0}}),
    ("euclid_spherical", {"orbit": {"k": cli.EUCLID_K_MAX, "s": 1}}),
    ("euclid_spherical", {"orbit": {"k": 1, "s": -cli.EUCLID_S_MAX}}),
    ("heisenberg_loc_p", {"Zs": [[0, 0, cli.DIRECTION_MAX]]}),
    ("heisenberg_loc_p", {"Zs": [[-cli.DIRECTION_MAX, 0, 0]]}),
])
def test_orbit_inputs_at_their_bounds_pass(tmp_path, kind, params):
    path = _write(tmp_path, {
        "version": "1", "task": "orbit_project", "seed": 1,
        "state": {"kind": kind}, "params": params})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    results = _report(out, "orbit_project")["results"]
    assert results["relation_residual"] <= 1e-10
    assert all(math.isfinite(v) for v in results.get("projection_mean", []))


def test_torus_point_at_its_bound_runs(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 1,
        "state": {"kind": "constant_one", "params": {"family": "torus"}},
        "params": {"trials": 20, "budget": 100,
                   "orbit": {"y": [0.5 * cli.TORUS_Y_MAX,
                                   -0.5 * cli.TORUS_Y_MAX]}}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 1
    assert math.isfinite(_report(out, "quantum_check")["results"][
        "worst_margin"])


def test_integral_float_seed_runs_as_its_integer(tmp_path):
    # an integral float is an integer seed; the run is the seed-1 run
    reports = []
    for seed in ("1", "1.0"):
        path = tmp_path / ("seed%s.json" % seed)
        path.write_text('{"version": "1", "task": "gram", "seed": %s, '
                        '"state": {"kind": "heisenberg_loc_p"}}' % seed)
        out = str(tmp_path / ("rep" + seed))
        assert cli.run(str(path), out=out) == 0
        with open(os.path.join(out, "gram-report.json"), "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kind", [k for k in states.KINDS if k != "custom"])
def test_every_builtin_kind_verifies(tmp_path, kind):
    # each entry of the kind table, at its default parameters
    path = _write(tmp_path, {
        "version": "1", "task": "verify", "seed": 0, "state": {"kind": kind},
        "params": {"sets": 2, "pairs": 200}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    assert _report(out, "verify")["results"]["gates"]["psd"]["pass"] is True


def test_unknown_state_kind_exits_two(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "gram", "seed": 0,
        "state": {"kind": "mystery"}})
    assert cli.run(path, out=str(tmp_path / "rep")) == 2


def test_spectral_without_direction_exits_two(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.0}}})
    assert cli.run(path, out=str(tmp_path / "rep")) == 2


def test_cli_import_leaves_quadrature_and_optimizer_unloaded(tmp_path):
    # the program needs no scipy: not at import, and not in the runs that
    # once used it (the escape mass, J0 in euclid-waves and in the
    # cylindrical state) or in a spectral run
    spec = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": "su2_highest_weight", "params": {"j": 4}},
        "params": {"Z": [0.7, -1.1, 0.45]}}, "spectral.json")
    ver = _write(tmp_path, {
        "version": "1", "task": "verify", "seed": 5,
        "state": {"kind": "euclid_cylindrical",
                  "params": {"k": 2.0, "eps": 1}},
        "params": {"pairs": 200}}, "verify.json")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, orbitstates.cli as c\n"
            "def loaded():\n"
            "    print([m for m in sys.modules\n"
            "           if m.split('.')[0] in ('scipy', 'jsonschema')])\n"
            "loaded()\n"
            "out = sys.argv[3]\n"
            "for argv in (['spectral', '--scenario', sys.argv[1]],\n"
            "             ['reproduce', 'prequant-counterexample'],\n"
            "             ['reproduce', 'euclid-waves'],\n"
            "             ['verify', '--scenario', sys.argv[2]]):\n"
            "    assert c.main(argv + ['--out', out]) == 0, argv\n"
            "loaded()\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, spec, ver,
                          str(tmp_path / "rep")], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["[]", "[]"]


# ---------------------------------------------------------------------------
# argparse front end

def test_main_runs_subcommand(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "gram", "seed": 3,
        "state": {"kind": "euclid_plane", "params": {"k": 2.0}},
        "params": {"samples": 10}})
    out = str(tmp_path / "rep")
    assert cli.main(["gram", "--scenario", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "gram-report.json"))


def test_main_rejects_task_subcommand_mismatch(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "gram", "seed": 3,
        "state": {"kind": "heisenberg_loc_p"}})
    assert cli.main(["quantum", "--scenario", path]) == 2


def test_main_requires_scenario_or_target(tmp_path):
    assert cli.main(["verify"]) == 2
    assert cli.main(["reproduce"]) == 2
    with pytest.raises(SystemExit):
        cli.main(["reproduce", "not-a-target"])


def test_budget_is_an_option_of_quantum_only(tmp_path, capsys):
    path = _write(tmp_path, {
        "version": "1", "task": "verify", "seed": 0,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.0}}})
    for argv in (["verify", "--budget", "5", "--scenario", path],
                 ["reproduce", "su2-weights", "--budget", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("target", cli.REPRODUCE_TARGETS)
def test_reproduce_targets_all_pass(tmp_path, target):
    out = str(tmp_path / "rep")
    assert cli.main(["reproduce", target, "--out", out]) == 0
    rep = _report(out, "reproduce")
    assert rep["pass"] is True
    assert rep["results"]["target"] == target
    assert all(rep["results"]["matrix"].values())
    # the matrix is the gates' verdicts, each bound its Tolerances field:
    # negated where the gate is a floor on a margin or an eigenvalue
    gates = rep["results"]["gates"]
    assert rep["results"]["matrix"] == {k: g["pass"] for k, g in gates.items()}
    for name, g in gates.items():
        sign = -1.0 if name.endswith(("psd", "quantum")) else 1.0
        assert g["bound"] == sign * getattr(DEFAULT, g["field"]), name
        assert g["pass"] is OPS[g["op"]](g["value"], g["bound"]), name


def test_a_gate_row_with_a_nan_value_fails():
    for op in OPS:
        assert gate(float("nan"), op, "slack")["pass"] is False
    row = gate(0.5, ">=", "psd_scale", -3.0, 1.0)
    assert row == {"value": 0.5, "op": ">=", "field": "psd_scale",
                   "bound": -3.0 * DEFAULT.psd_scale + 1.0, "pass": False}


def test_no_comparison_in_cli_has_a_float_literal():
    # every verdict bound is read from the tolerance record
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    floats = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                while isinstance(operand, ast.UnaryOp):
                    operand = operand.operand
                if isinstance(operand, ast.Constant) \
                        and isinstance(operand.value, float):
                    floats.append((node.lineno, operand.value))
    assert floats == []


def test_a_non_finite_result_fails_with_a_json_report(tmp_path, monkeypatch):
    # no valid input is known to overflow, so a runner stands in that
    # returns a NaN atom as a passing result
    monkeypatch.setitem(cli._RUNNERS, "spectral", lambda state, p, seed: (
        {"atoms": [[1.0, 0.5], [float("nan"), 0.5]]}, True, []))
    path = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1]}})
    out = str(tmp_path / "rep")
    assert cli.main(["spectral", "--scenario", path, "--out", out]) == 1
    with open(os.path.join(out, "spectral-report.json")) as fh:
        rep = json.loads(fh.read(), parse_constant=lambda c: pytest.fail(c))
    assert rep["pass"] is False
    assert rep["results"] == {"error": "/results/atoms/1/0: not a finite "
                                       "number"}


def _files(outdir):
    """The bytes of each file a command wrote, by name."""
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_main_calls_in_one_process_match_fresh_runs(tmp_path):
    # main builds its parser once per process: a call carries nothing over
    # to the next (the first run's --budget leaves the second at the
    # scenario's budget), so each writes what it writes in a new process
    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 4,
        "state": {"kind": "constant_one", "params": {"family": "heisenberg"}},
        "params": {"trials": 40, "budget": 3000}})
    calls = [["quantum", "--budget", "5", "--scenario", path],
             ["quantum", "--scenario", path],
             ["reproduce", "su2-weights"]]
    together = []
    for i, argv in enumerate(calls):
        out = str(tmp_path / ("together%d" % i))
        together.append((cli.main(argv + ["--out", out]), _files(out)))
    code = ("import sys, orbitstates.cli; "
            "sys.exit(orbitstates.cli.main(sys.argv[1:]))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for i, argv in enumerate(calls):
        out = str(tmp_path / ("alone%d" % i))
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out",
                               out], env=env, capture_output=True)
        assert (proc.returncode, _files(out)) == together[i], argv
    assert [code for code, _ in together] == [1, 1, 0]
    assert together[0][1] != together[1][1]


def test_reproduce_target_writes_no_temporary_file(tmp_path, monkeypatch):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    opened = []
    real_open = os.open

    def spy(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out = str(tmp_path / "rep")
    assert cli.main(["reproduce", "su2-weights", "--out", out]) == 0
    assert not [p for p in opened if p.startswith(str(tmpdir))]
    assert os.listdir(tmpdir) == []
    assert _report(out, "reproduce")["pass"] is True


# ---------------------------------------------------------------------------
# plot data

def test_plotdata_csv_formats(tmp_path):
    out = str(tmp_path / "rep")
    path = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": "euclid_spherical", "params": {"k": 2.0}},
        "params": {"Z": [0, 0, 0, 0, 0, 1.0]}})
    assert cli.run(path, out=out) == 0
    dens = os.path.join(out, "density.csv")
    with open(dens, "rb") as fh:
        raw = fh.read()
    assert raw.count(b"\r\n") >= 2
    lines = raw.decode().split("\r\n")
    assert lines[0] == "omega,density"
    fields = [x for line in lines[1:] if line for x in line.split(",")]
    assert len(fields) >= 2
    assert all(x == repr(float(x)) for x in fields)

    path = _write(tmp_path, {
        "version": "1", "task": "quantum_check", "seed": 1,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.0}},
        "params": {"trials": 20, "budget": 500}})
    assert cli.run(path, out=out) == 0
    hist = os.path.join(out, "margins_hist.csv")
    with open(hist) as fh:
        header = fh.readline().strip()
    assert header == "bin_lo,bin_hi,count"

    path = _write(tmp_path, {
        "version": "1", "task": "orbit_project", "seed": 1,
        "state": {"kind": "su2_highest_weight", "params": {"j": 1.0}},
        "params": {"count": 100, "Zs": [[0, 0, 1.0]], "kostant": 5000}})
    assert cli.run(path, out=out) == 0
    with open(os.path.join(out, "projection.csv")) as fh:
        assert fh.readline().strip() == "index,z1"


def _csv_reference(header, rows):
    """The bytes csv.writer writes for a header and rows."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh, lineterminator="\r\n")
    w.writerow(header)
    w.writerows(rows)
    return fh.getvalue().encode()


def test_plotdata_csv_bytes_match_csv_writer(tmp_path):
    edge = [-0.0, 5.0, 1e16, 1e-05, 1.5e-300, 1.2345678901234568e17]
    rng = np.random.default_rng(11)
    n = 2 * cli.CSV_BLOCK + 7          # a partial last block
    om = np.concatenate([edge, np.sort(rng.standard_normal(n - len(edge)))])
    dens = np.concatenate([rng.standard_normal(n - len(edge)), edge[::-1]])
    # across a block boundary: a density at the floor (left out) and one
    # just above it (kept); -0.0 and 1.5e-300 stay covered by the omega
    # column
    dens[cli.CSV_BLOCK - 1:cli.CSV_BLOCK + 1] = [
        cli.DENSITY_FLOOR, math.nextafter(cli.DENSITY_FLOOR, math.inf)]
    kept = [[w, d] for w, d in zip(om.tolist(), dens.tolist())
            if abs(d) > cli.DENSITY_FLOOR]
    assert len(kept) == n - 3     # the floor, 1.5e-300 and -0.0 go
    proj = rng.standard_normal((600, 2))
    margins = rng.standard_normal(300)
    atoms = [[-1.5, 0.25], [0.0, 1e-05], [2.0, -0.0]]
    report = {"results": {"atoms": atoms, "margins": margins.tolist()}}
    out = str(tmp_path / "plot")
    written = cli.emit_plotdata(report, out, density=(om, dens), proj=proj)
    counts, edges = np.histogram(margins, bins=32)
    want = {
        "atoms.csv": _csv_reference(["omega", "mass"], atoms),
        "density.csv": _csv_reference(["omega", "density"], kept),
        "margins_hist.csv": _csv_reference(
            ["bin_lo", "bin_hi", "count"],
            zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())),
        "projection.csv": _csv_reference(
            ["index", "z1", "z2"],
            [[i] + row for i, row in enumerate(proj[:512].tolist())]),
    }
    assert sorted(os.path.basename(p) for p in written) == sorted(want)
    for name, data in want.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == data, name
    # no atoms: the header alone, as before
    cli.emit_plotdata({"results": {"atoms": []}}, out)
    with open(os.path.join(out, "atoms.csv"), "rb") as fh:
        assert fh.read() == b"omega,mass\r\n"


@pytest.mark.parametrize("kind,params,Z", [
    ("euclid_spherical", {"k": 2.0}, [0, 0, 0, 0.5, 0.5, 0.5]),
    ("heisenberg_loc_p", {"k": 1.3}, [1.0, 0, 0]),
])
def test_density_csv_keeps_the_rows_above_the_floor(tmp_path, kind, params,
                                                    Z):
    path = _write(tmp_path, {
        "version": "1", "task": "spectral", "seed": 0,
        "state": {"kind": kind, "params": params}, "params": {"Z": Z}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    st = states.make_state(kind, **params)
    om, dens = spectral.density_estimate(st, Z).density
    keep = np.abs(dens) > cli.DENSITY_FLOOR
    with open(os.path.join(out, "density.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "density"]
    assert rows[1:] == [[repr(w), repr(d)] for w, d in
                        zip(om[keep].tolist(), dens[keep].tolist())]
    if kind == "euclid_spherical":
        # the conditions a flat density on [-edge, edge] is checked by:
        # the floor must leave rows far outside the band
        edge = 2.0 * math.sqrt(0.75)
        got = np.array(rows[1:], dtype=float)
        outside = np.abs(got[:, 0]) > 1.3 * edge
        inside = np.abs(got[:, 0]) < 0.8 * edge
        assert outside.any() and inside.any()
        assert np.max(np.abs(got[outside, 1])) < 1e-3
        assert np.max(np.abs(got[inside, 1] - 0.5 / edge)) < 0.02 / edge


# ---------------------------------------------------------------------------
# stacked Gram sweeps

SWEEP_KINDS = [
    ("heisenberg_loc_p", {"k": 1.3}),
    ("bargmann_loc_q", {"l": 0.8}),
    ("euclid_cylindrical", {"k": 2.0, "eps": 1}),
    ("su2_highest_weight", {"j": 1.5}),
]


def _sweep_per_set(state, rng, sets, n, pairs):
    """_sweep as one states.gram call per set."""
    worst = 0.0
    for _ in range(sets):
        gm = states.gram(state, states.support_samples(state, rng, n))
        worst = min(worst, float(gm.eigenvalues[-1]) / gm.n)
    gs = states.support_samples(state, rng, pairs)
    hs = states.support_samples(state, rng, pairs)
    return worst, states.check_inequalities(state, gs, hs)


@pytest.mark.parametrize("kind,params", SWEEP_KINDS)
@pytest.mark.parametrize("sets,n,entries", [
    (5, 12, cli.GRAM_ENTRIES),     # one stacked call
    (5, 12, 2 * 12 * 12),          # split into calls of 2, 2 and 1 sets
    (3, 12, 100),                  # a bound below one set: one set a call
    (3, 150, cli.GRAM_ENTRIES),    # the module bound: calls of 2 and 1 sets
])
def test_sweep_equals_per_set_gram(kind, params, sets, n, entries,
                                   monkeypatch):
    monkeypatch.setattr(cli, "GRAM_ENTRIES", entries)
    st = states.make_state(kind, **params)
    got = cli._sweep(st, np.random.default_rng(5), sets, n, 300)
    want = _sweep_per_set(st, np.random.default_rng(5), sets, n, 300)
    assert got == want


def test_report_json_is_plain_and_sorted(tmp_path):
    path = _write(tmp_path, {
        "version": "1", "task": "gram", "seed": 0,
        "state": {"kind": "heisenberg_loc_p", "params": {"k": 1.0}},
        "params": {"samples": 8}})
    out = str(tmp_path / "rep")
    assert cli.run(path, out=out) == 0
    raw = open(os.path.join(out, "gram-report.json")).read()
    rep = json.loads(raw)
    assert raw == json.dumps(rep, sort_keys=True, indent=2) + "\n"
