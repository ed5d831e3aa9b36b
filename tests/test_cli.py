import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from orbitstates import cli, states
from orbitstates.tolerances import DEFAULT


def _write(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _report(outdir, task):
    with open(os.path.join(outdir, "%s-report.json" % task)) as fh:
        return json.load(fh)


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
    assert rep["results"]["psd_pass"] is True
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
    assert rep["results"]["concentration"]["pass"] is True


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
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], "omega": "x"}',
     "/params/omega", "spectral"),
    ('{"kind": "heisenberg_loc_p"}, "params": {"Z": [0, 0, 1], '
     '"concentration": {"type": "blob"}}', "/params/concentration/type",
     "spectral"),
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
    ('{"kind": "su2_highest_weight"}, "params": {"orbit": {"lam": -1}}',
     "/params/orbit/lam", "quantum_check"),
    ('{"kind": "euclid_plane", "params": {"k": 2, "s": 1}}, '
     '"params": {"orbit": {"k": -2, "s": 1}}', "/params/orbit/k",
     "quantum_check"),
    ('{"kind": "euclid_plane"}, "params": {"orbit": {"k": -2}}',
     "/params/orbit/k", "orbit_project"),
    ('{"kind": "su2_highest_weight", "params": {"j": 1.5}}, '
     '"params": {"orbit": {"lamda": 0.5}}', "/params/orbit/lamda",
     "quantum_check"),
    ('{"kind": "bargmann_loc_q", "params": {"l": 0.8}}, '
     '"params": {"orbit": {"k": 1.0}}', "/params/orbit/k", "quantum_check"),
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
    assert _report(out, "verify")["results"]["psd_pass"] is True


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


def test_cli_import_leaves_quadrature_and_optimizer_unloaded():
    # spectral and states import scipy where they use it: at module level it
    # adds 0.1-0.4 s to every start-up of the command
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, orbitstates.cli; print([m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


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
    proj = rng.standard_normal((600, 2))
    margins = rng.standard_normal(300)
    atoms = [[-1.5, 0.25], [0.0, 1e-05], [2.0, -0.0]]
    report = {"results": {"atoms": atoms, "margins": margins.tolist()}}
    out = str(tmp_path / "plot")
    written = cli.emit_plotdata(report, out, density=(om, dens), proj=proj)
    counts, edges = np.histogram(margins, bins=32)
    want = {
        "atoms.csv": _csv_reference(["omega", "mass"], atoms),
        "density.csv": _csv_reference(["omega", "density"],
                                      np.column_stack((om, dens)).tolist()),
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
    return worst, worst >= -DEFAULT.psd_scale, \
        states.check_inequalities(state, gs, hs)


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
