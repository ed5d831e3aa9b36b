"""Tests of the benchmark's own references and checks.

    python3 -m pytest perfbench -q

The references must agree with the frozen values in tests/oracles.py, and
every check must accept the program's genuine report and reject the same
report once a number in it is perturbed.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "tests", ROOT / "src"):
    sys.path.insert(0, str(path))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# independent references against the frozen oracles

def test_prequant_reference_matches_frozen_oracle():
    assert abs(checks.prequant_mass_outside() - oracles.PREQUANT_MASS) < 1e-13
    assert abs(checks.prequant_mass_outside((0.0, 10.0)) - 0.9529631) < 1e-7


@pytest.mark.parametrize("two_j", [1, 2, 5, 8])
def test_spin_atoms_match_oracle_routes(two_j):
    Z = np.random.default_rng(two_j).standard_normal(3) * 1.7
    n = Z / np.linalg.norm(Z)
    mine = checks.spin_atoms(two_j, Z)
    eig = oracles.spin_masses(two_j, n)
    binom = oracles.binomial_masses(two_j, n[2])
    assert sorted(mine) == sorted(round(2 * m) / 2 for m in eig)
    for m, w in mine.items():
        assert abs(w - binom[m]) < 1e-12
    assert abs(sum(mine.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("two_j", [1, 3, 4, 8])
def test_su2_value_matches_spin_coefficient(two_j):
    Z = np.random.default_rng(10 + two_j).uniform(-4, 4, 3)
    assert abs(checks.su2_highest_weight_value(two_j, Z)
               - oracles.spin_coefficient(two_j, Z, 1.0)) < 1e-12


def test_lipschitz_bound_brackets_a_known_sup():
    # |1 + e^{2ih}| = 2 |cos h| peaks at 2 at h = 0
    bound, cert = checks.lipschitz_sup_bound([0.0, 2.0], [1.0, 1.0],
                                             -0.5, 0.5, target=2.0 + 1e-6)
    assert cert and 2.0 <= bound < 2.0 + 1e-6
    bound, cert = checks.lipschitz_sup_bound([0.0, 2.0], [1.0, 1.0],
                                             -0.5, 0.5, target=2.0 - 1e-6)
    assert not cert and bound >= 2.0


def test_orbit_bound_is_above_a_dense_grid():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    t = rng.uniform(-4, 4, 3)
    cs = rng.uniform(0, 1, 3) * np.exp(1j * rng.uniform(0, 6, 3))
    h = np.linspace(-0.7, 0.7, 200001)
    grid = np.max(np.abs(np.exp(1j * np.outer(h, t)) @ cs))
    bound, _ = checks.orbit_sup_bound("su2", np.outer(t, v), cs, lam=0.7,
                                      target=grid + 1e-9)
    assert grid <= bound <= grid + 1e-6


def test_central_heisenberg_tuple_has_exact_sup():
    Zs = [[0.0, 0.0, 0.0], [np.pi, 0.0, 0.0]]
    bound, cert = checks.orbit_sup_bound("heisenberg", Zs, [1.0, 1.0],
                                         target=2.0)
    assert cert and bound < 1e-15


# ---------------------------------------------------------------------------
# checks on genuine and perturbed reports

def _genuine(tmp_path, workload, name):
    """Run one operation of a workload at seed 0; returns (op, outdir)."""
    _, cli = run.load_program()
    op = next(o for o in workloads.WORKLOADS[workload](0, 0) if o.name == name)
    run.write_scenarios([[op]], tmp_path / "scenarios")
    outdir = tmp_path / "out"
    _, code = run.run_op(cli, op, outdir)
    assert run.check_op(op, code, outdir) == []
    return op, outdir


def _rewrite(outdir, task, edit):
    path = outdir / ("%s-report.json" % task)
    doc = json.loads(path.read_text())
    edit(doc["results"])
    path.write_text(json.dumps(doc))


def _rejects(op, outdir, task, edit):
    keep = (outdir / ("%s-report.json" % task)).read_text()
    _rewrite(outdir, task, edit)
    try:
        return bool(op.check(outdir))
    finally:
        (outdir / ("%s-report.json" % task)).write_text(keep)


def test_reproduce_check_uses_the_1d_reference(tmp_path):
    op, out = _genuine(tmp_path, "tables", "reproduce-prequant-counterexample")
    assert _rejects(op, out, "reproduce",
                    lambda r: r["details"].__setitem__(
                        "mass_outside", r["details"]["mass_outside"] + 2e-3))
    assert _rejects(op, out, "reproduce",
                    lambda r: r["details"].__setitem__(
                        "shifted_mass_outside", 0.9))


def test_verify_check_rejects_margins_and_eigenvalues(tmp_path):
    op, out = _genuine(tmp_path, "tables", "verify-su2_highest_weight")
    assert _rejects(op, out, "verify",
                    lambda r: r.__setitem__("min_eigenvalue_per_n", -1e-8))
    assert _rejects(op, out, "verify",
                    lambda r: r["inequalities"].__setitem__("krein_margin",
                                                            2e-12))


def test_gns_check_rejects_residuals(tmp_path):
    op, out = _genuine(tmp_path, "tables", "gns-euclid_plane")
    assert _rejects(op, out, "gns",
                    lambda r: r.__setitem__("worst_unitarity_residual", 1e-8))


def test_su2_atom_check_rejects_mass_position_and_missing_atoms(tmp_path):
    op, out = _genuine(tmp_path, "tables", "spectral-su2-generic")
    assert _rejects(op, out, "spectral",
                    lambda r: r["atoms"][0].__setitem__(1, r["atoms"][0][1]
                                                        + 2e-6))
    assert _rejects(op, out, "spectral",
                    lambda r: r["atoms"][0].__setitem__(0, r["atoms"][0][0]
                                                        + 0.01))
    assert _rejects(op, out, "spectral",
                    lambda r: r.__setitem__("atoms", sorted(
                        r["atoms"], key=lambda a: a[1])[:-1]))


def test_single_atom_check_rejects_a_wrong_mass(tmp_path):
    op, out = _genuine(tmp_path, "tables", "spectral-heisenberg-center")
    assert _rejects(op, out, "spectral",
                    lambda r: r["atoms"][0].__setitem__(1, 0.99))


def test_uniform_density_check():
    edge = 1.5
    om = np.linspace(-3, 3, 1201)
    dens = np.where(np.abs(om) <= edge, 0.5 / edge, 0.0)
    report = {"pass": True, "results": {
        "classification": "uniform_density", "atoms": [],
        "total_mass_accounted": 1.0}}
    assert checks.check_uniform_density(report, (om, dens), edge) == []
    assert checks.check_uniform_density(report, (om, 1.1 * dens), edge)
    mixed = copy.deepcopy(report)
    mixed["results"]["classification"] = "mixed"
    assert checks.check_uniform_density(mixed, (om, dens), edge)


def test_certify_check_rejects_a_negative_margin(tmp_path):
    op, out = _genuine(tmp_path, "sup-certify", "quantum-heisenberg_loc_p")
    assert _rejects(op, out, "quantum_check",
                    lambda r: r["margins"].__setitem__(5, -1e-3))
    assert _rejects(op, out, "quantum_check", lambda r: r["margins"].pop())


def test_refute_check_recomputes_and_bounds_witnesses(tmp_path):
    op, out = _genuine(tmp_path, "sup-refute",
                       "quantum-su2_highest_weight-j2-lam1")

    def bump_lhs(r):
        f = r["failures"][0]
        f["lhs"] += 1e-9
        f["margin"] = f["rhs"] - f["lhs"]

    def raise_rhs(r):
        f = min(r["failures"], key=lambda w: w["margin"])
        f["rhs"] = f["lhs"] - 2e-6
        f["margin"] = f["rhs"] - f["lhs"]
    assert _rejects(op, out, "quantum_check", bump_lhs)
    assert _rejects(op, out, "quantum_check", raise_rhs)
    assert _rejects(op, out, "quantum_check",
                    lambda r: r.__setitem__("failures", []))


# ---------------------------------------------------------------------------
# harness

def test_inputs_depend_on_the_seed_alone():
    for make in workloads.WORKLOADS.values():
        same = [op.scenario for op in make(7, 0)]
        assert same == [op.scenario for op in make(7, 0)]
        assert same != [op.scenario for op in make(8, 0)]
        assert same != [op.scenario for op in make(7, 1)]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"setup_s", "wall_s", "slowest_op_s", "peak_rss_mib"}


def test_tracer_self_times_add_up_and_wrappers_come_off():
    import orbitstates
    from orbitstates import groups, states
    original = states.gram
    tracer = tracing.Tracer()
    tracer.install(orbitstates)
    try:
        root = tracer.open("root")
        st = states.make_state("euclid_plane", k=2.0, s=1)
        rng = np.random.default_rng(0)
        states.gram(st, states.support_samples(st, rng, 12))
        tracer.close(root)
    finally:
        tracer.remove()
    assert states.gram is original
    assert not hasattr(groups.compose, "__wrapped__")
    m = tracer.layer_metrics(0, len(tracer.name))
    assert m["states.gram.calls"] == 1
    assert m["states.support_samples.elements"] == 12
    assert m["groups.random_elements.elements"] == 6
    assert 0.0 < m["states.gram.offdiag_nonzero_ratio"] < 1.0
    total = tracer.end[root] - tracer.start[root]
    own = np.array(tracer.end) - np.array(tracer.start)
    child = np.zeros(len(own))
    np.add.at(child, np.array(tracer.parent)[1:], own[1:])
    assert abs(np.sum(own - child) - total) < 1e-9
