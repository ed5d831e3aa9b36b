"""The benchmark's workloads: lists of `states` commands with the exit code
each documents and the check its report must pass.

Inputs come from the benchmark seed and the round index alone: round r of
a run uses the inputs drawn from (seed, r), so a run samples several input
sets and the same seed always gives the same inputs.  The program only ever
sees the scenario files written here.  See README.md for why each workload
exists.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

REPRODUCE_TARGETS = ("heisenberg-table", "bargmann-states", "euclid-waves",
                     "prequant-counterexample", "su2-weights")

# kinds whose `verify` passes on every seed; the other seven are left out
# because their Krein margin fails on some seeds (see CHANGES.md, FOUND)
VERIFY_KINDS = (
    ("euclid_spherical", {"k": 2.0}),
    ("euclid_cylindrical", {"k": 2.0, "eps": 1}),
    ("su2_highest_weight", {"j": 1.5}),
)

GNS_KINDS = (
    ("heisenberg_loc_p", {"k": 1.3}),
    ("heisenberg_loc_q", {"l": 0.8}),
    ("euclid_plane", {"k": 2.0, "s": 1}),
    ("su2_highest_weight", {"j": 1.5}),
)

# the nine localized state / orbit pairs of acceptance criterion 08
CERTIFY_PAIRS = (
    ("euclid_plane", {"k": 2.0, "s": 1}, {"k": 2.0, "s": 1.0}),
    ("euclid_spherical", {"k": 2.0}, {"k": 2.0, "s": 0.0}),
    ("euclid_cylindrical", {"k": 2.0, "eps": 1}, {"k": 2.0, "s": 0.0}),
    ("heisenberg_loc_p", {"k": 1.3}, {"k": 1.3, "l": 0.0}),
    ("heisenberg_loc_q", {"l": 0.8}, {"k": 0.0, "l": 0.8}),
    ("heisenberg_loc_t", {"k": 0.5, "l": 1.0, "t": 0.4}, {"k": 0.5, "l": 1.0}),
    ("bargmann_loc_pe", {"k": 1.0}, {}),
    ("bargmann_loc_q", {"l": 0.8}, {}),
    ("su2_highest_weight", {"j": 1.5}, {"lam": 1.5}),
)

# pairs on which the sup-inequality is false
REFUTE_PAIRS = (
    ("constant_one", {"family": "heisenberg"}, {}),
    ("constant_one", {"family": "bargmann"}, {}),
    ("su2_highest_weight", {"j": 1.5}, {"lam": 0.5}),
    ("su2_highest_weight", {"j": 2}, {"lam": 1.0}),
)

TRIALS = 500
BUDGET = 100000
SPIN_PERIODS = 400   # T = 2 pi SPIN_PERIODS / |Z|: commensurate with the atoms

# Documented outcome exit 2; cli.run lets the ValueError / LinAlgError escape
# as a traceback (exit 1).  These inputs do not depend on the seed.
MALFORMED = (
    ("k-not-a-number",
     '{"version": "1", "task": "verify", "seed": 1, "state": {"kind": '
     '"heisenberg_loc_p", "params": {"k": "abc"}}, "params": {"pairs": 100}}'),
    ("k-infinite",
     '{"version": "1", "task": "verify", "seed": 1, "state": {"kind": '
     '"heisenberg_loc_p", "params": {"k": Infinity}}, '
     '"params": {"pairs": 100}}'),
    ("l-nan",
     '{"version": "1", "task": "verify", "seed": 1, "state": {"kind": '
     '"heisenberg_loc_q", "params": {"l": NaN}}, "params": {"pairs": 100}}'),
    ("zero-samples",
     '{"version": "1", "task": "verify", "seed": 1, "state": {"kind": '
     '"heisenberg_loc_p", "params": {"k": 1.0}}, "params": {"samples": 0}}'),
)

# A fixed translation: the band edge k|r| = sqrt(3) puts a lattice point of
# density_estimate on the window-smoothed edge at 0.70 of the plateau, and
# the flat-support test then reports "mixed" (see CHANGES.md, FOUND).
SPHERICAL_RATE = (0.5, 0.5, 0.5)


@dataclass
class Op:
    """One `states` command.  ``known_fault`` names the program fault that
    makes it fail on every run; such an operation counts as failed without
    making the run incorrect."""
    name: str
    command: list
    expect: int
    check: object = None            # callable(outdir) -> list of problems
    scenario: str = None            # scenario file text, written at set-up
    known_fault: str = None
    argv: list = field(default=None, repr=False)   # set when written


def _doc(task, seed, kind, params, task_params):
    return json.dumps({"version": "1", "task": task, "seed": int(seed),
                       "state": {"kind": kind, "params": params},
                       "params": task_params}, sort_keys=True)


def read_report(outdir, task):
    with open(os.path.join(outdir, "%s-report.json" % task), "rb") as fh:
        return json.loads(fh.read())


def read_density(outdir):
    with open(os.path.join(outdir, "density.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]


def _report_check(task, fn, *args):
    def check(outdir):
        return fn(read_report(outdir, task), *args)
    return check


def _scenario_op(name, command, text, expect, check, known_fault=None):
    return Op(name=name, command=[command], expect=expect, check=check,
              scenario=text, known_fault=known_fault)


def tables(seed, round_index):
    rng = np.random.default_rng([seed, 1, round_index])
    ops = []
    for target in REPRODUCE_TARGETS:
        # the paper tables as `states reproduce TARGET` runs them: no --seed
        ops.append(Op(name="reproduce-" + target,
                      command=["reproduce", target], expect=0,
                      check=_report_check("reproduce",
                                          checks.check_reproduce)))
    for kind, params in VERIFY_KINDS:
        text = _doc("verify", rng.integers(2 ** 31), kind, params,
                    {"pairs": 10000})
        ops.append(_scenario_op("verify-" + kind, "verify", text, 0,
                                _report_check("verify", checks.check_verify)))
    for kind, params in GNS_KINDS:
        text = _doc("gns", rng.integers(2 ** 31), kind, params, {"n": 32})
        ops.append(_scenario_op("gns-" + kind, "gns", text, 0,
                                _report_check("gns", checks.check_gns)))

    v = rng.standard_normal(3)
    Z = rng.uniform(0.5, 2.0) * v / np.linalg.norm(v)
    T = 2.0 * np.pi * SPIN_PERIODS / float(np.linalg.norm(Z))
    text = _doc("spectral", rng.integers(2 ** 31), "su2_highest_weight",
                {"j": 4}, {"Z": Z.tolist(), "T": T})
    ops.append(_scenario_op(
        "spectral-su2-generic", "spectral", text, 0,
        _report_check("spectral", checks.check_su2_atoms, 8, Z, T)))

    alpha = float(rng.uniform(0.5, 2.0))
    text = _doc("spectral", rng.integers(2 ** 31), "heisenberg_loc_p",
                {"k": 1.3}, {"Z": [alpha, 0.0, 0.0]})
    # the central character is e^{-ia}: one atom at -alpha
    ops.append(_scenario_op(
        "spectral-heisenberg-center", "spectral", text, 0,
        _report_check("spectral", checks.check_single_atom, -alpha)))

    beta = float(rng.uniform(0.5, 2.0))
    text = _doc("spectral", rng.integers(2 ** 31), "bargmann_loc_q",
                {"l": 0.8}, {"Z": [0.0, beta, 0.0, 0.0]})
    # along the boost the state is e^{-i l b}: one atom at -l beta
    ops.append(_scenario_op(
        "spectral-bargmann-boost", "spectral", text, 0,
        _report_check("spectral", checks.check_single_atom, -0.8 * beta)))

    text = _doc("spectral", 0, "euclid_spherical", {"k": 2.0},
                {"Z": [0.0, 0.0, 0.0] + list(SPHERICAL_RATE)})
    edge = 2.0 * float(np.linalg.norm(SPHERICAL_RATE))

    def spherical(outdir):
        return checks.check_uniform_density(read_report(outdir, "spectral"),
                                            read_density(outdir), edge)
    ops.append(_scenario_op(
        "spectral-euclid-translation", "spectral", text, 0,
        spherical, known_fault="spectral._flat_support"))

    for name, text in MALFORMED:
        ops.append(_scenario_op("malformed-" + name, "verify", text, 2, None,
                                known_fault="cli.run"))
    return ops


def _quantum_doc(rng, kind, params, orbit):
    return _doc("quantum_check", rng.integers(2 ** 31), kind, params,
                {"trials": TRIALS, "n_max": 3, "budget": BUDGET,
                 "orbit": orbit})


def sup_certify(seed, round_index):
    rng = np.random.default_rng([seed, 2, round_index])
    return [_scenario_op("quantum-" + kind, "quantum",
                         _quantum_doc(rng, kind, params, orbit), 0,
                         _report_check("quantum_check", checks.check_certify,
                                       TRIALS))
            for kind, params, orbit in CERTIFY_PAIRS]


def _closed_form(kind, params):
    if kind == "constant_one":
        return lambda Z: 1.0
    two_j = int(round(2 * params["j"]))
    return lambda Z: checks.su2_highest_weight_value(two_j, Z)


def sup_refute(seed, round_index):
    rng = np.random.default_rng([seed, 3, round_index])
    ops = []
    for kind, params, orbit in REFUTE_PAIRS:
        family = params.get("family", "su2")
        label = family if kind == "constant_one" else \
            "j%g-lam%g" % (params["j"], orbit["lam"])
        ops.append(_scenario_op(
            "quantum-%s-%s" % (kind, label), "quantum",
            _quantum_doc(rng, kind, params, orbit), 1,
            _report_check("quantum_check", checks.check_refute, TRIALS,
                          family, orbit.get("lam"),
                          _closed_form(kind, params))))
    return ops


WORKLOADS = {
    "tables": tables,
    "sup-certify": sup_certify,
    "sup-refute": sup_refute,
}
