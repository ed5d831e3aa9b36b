"""Spans around the public functions of each orbitstates module.

The wrappers are installed from this file by rebinding module attributes,
so calls between modules and inside a module (which go through module
globals) are traced; the program itself is not edited.  Spans live in flat
in-memory columns and are written once, at the end of a run.

A span's self time is its duration minus the durations of its direct
children.  Some functions also record the work they did (elements drawn,
pairs checked, points evaluated, ...) in two work columns.
"""

import functools
import importlib
import json
import time
from array import array
from types import FunctionType

import numpy as np

LAYERS = ("groups", "states", "gns", "induced", "orbits", "spectral", "cli")


def _offdiag_nonzero(args, kwargs, gm):
    K = gm.entries
    n = K.shape[0]
    return (np.count_nonzero(K) - np.count_nonzero(np.diagonal(K)),
            n * (n - 1))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (work, work2) recorded per call, by qualified function name
WORK = {
    "groups.random_elements": lambda a, k, r: (len(r), 0),
    "states.support_samples": lambda a, k, r: (len(r), 0),
    "states.check_inequalities":
        lambda a, k, r: (len(_arg(a, k, 1, "pairs")), 0),
    "states.gram": _offdiag_nonzero,
    "spectral.flow_values": lambda a, k, r: (np.size(_arg(a, k, 2, "ts")), 0),
    "spectral.atom_scan": lambda a, k, r: (len(r[0]), 0),
    "orbits.quantum_check": lambda a, k, r: (len(r["margins"]), 0),
    "orbits.orbit_sup": lambda a, k, r: (r.samples, r.ascent_steps),
}

# (metric, unit, better): the per-layer metrics of one traced round
PER_LAYER = (
    ("groups.random_elements.elements", "count", "lower"),
    ("groups.random_elements.self_s", "s", "lower"),
    ("states.support_samples.elements", "count", "lower"),
    ("states.support_samples.self_s", "s", "lower"),
    ("states.gram.calls", "count", "lower"),
    ("states.gram.self_s", "s", "lower"),
    ("states.gram.offdiag_nonzero_ratio", "ratio", "higher"),
    ("states.check_inequalities.pairs", "count", "lower"),
    ("states.check_inequalities.self_s", "s", "lower"),
    ("states.pair_eval.self_s", "s", "lower"),
    ("groups.compose.calls", "count", "lower"),
    ("groups.compose.self_s", "s", "lower"),
    ("induced.matrix_coefficient.calls", "count", "lower"),
    ("induced.matrix_coefficient.self_s", "s", "lower"),
    ("gns.build.self_s", "s", "lower"),
    ("gns.rep_matrix.calls", "count", "lower"),
    ("gns.rep_matrix.self_s", "s", "lower"),
    ("orbits.kostant_projection_check.self_s", "s", "lower"),
    ("spectral.flow_values.points", "count", "lower"),
    ("spectral.flow_values.self_s", "s", "lower"),
    ("spectral.bohr_atom.self_s", "s", "lower"),
    ("spectral.atom_scan.atoms", "count", "higher"),
    ("spectral.atom_scan.self_s", "s", "lower"),
    ("spectral.density_estimate.self_s", "s", "lower"),
    ("spectral.prequant_mass_outside.self_s", "s", "lower"),
    ("orbits.quantum_check.trials", "count", "higher"),
    ("orbits.quantum_check.self_s", "s", "lower"),
    ("orbits.trials_per_s", "1/s", "higher"),
    ("orbits.orbit_sup.calls", "count", "lower"),
    ("orbits.orbit_sup.self_s", "s", "lower"),
    ("orbits.orbit_sup.samples", "count", "lower"),
    ("orbits.orbit_sup.ascent_steps", "count", "lower"),
    ("orbits.orbit_sup.full_search_ratio", "ratio", "lower"),
    ("states.evaluate.calls", "count", "lower"),
    ("states.evaluate.self_s", "s", "lower"),
    ("groups.exp.calls", "count", "lower"),
    ("groups.exp.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.work2 = array("d")
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.work.append(0.0)
        self.work2.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def open(self, name):
        """Open a span by name; returns its index for close()."""
        return self._open(self._name_id(name))

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        work = WORK.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.work[idx], self.work2[idx] = work(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every public function defined in each layer module."""
        for layer in LAYERS:
            mod = importlib.import_module(package.__name__ + "." + layer)
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(layer + "." + attr, obj))

    def remove(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def layer_metrics(self, first, stop):
        """Per-layer metrics over spans [first, stop), one traced round."""
        name = np.array(self.name[first:stop], dtype=np.int64)
        parent = np.array(self.parent[first:stop], dtype=np.int64) - first
        dur = np.array(self.end[first:stop]) - np.array(self.start[first:stop])
        w1 = np.array(self.work[first:stop])
        w2 = np.array(self.work2[first:stop])
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        work = np.bincount(name, weights=w1, minlength=k)
        work2 = np.bincount(name, weights=w2, minlength=k)

        def get(arr, fn):
            i = self._ids.get(fn)
            return float(arr[i]) if i is not None else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        sup = self._ids.get("orbits.orbit_sup")
        full = int(np.count_nonzero((name == sup) & (w2 > 0))) \
            if sup is not None else 0
        out = {}
        for metric, _, _ in PER_LAYER:
            fn, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = get(calls, fn)
            elif stat == "self_s":
                out[metric] = get(selfs, fn)
            elif stat in ("elements", "pairs", "points", "atoms", "trials"):
                out[metric] = get(work, fn)
        out["states.gram.offdiag_nonzero_ratio"] = ratio(
            get(work, "states.gram"), get(work2, "states.gram"))
        out["orbits.trials_per_s"] = ratio(
            get(work, "orbits.quantum_check"),
            get(total, "orbits.quantum_check"))
        out["orbits.orbit_sup.samples"] = get(work, "orbits.orbit_sup")
        out["orbits.orbit_sup.ascent_steps"] = get(work2, "orbits.orbit_sup")
        out["orbits.orbit_sup.full_search_ratio"] = ratio(
            full, get(calls, "orbits.orbit_sup"))
        # the cli layer's own time: schema validation, JSON and CSV writing
        out["cli.main.self_s"] = sum(
            float(selfs[i]) for n, i in self._ids.items()
            if n.startswith("cli."))
        return out

    def write(self, path):
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start", "end", "work", "work2"],
            "spans": [list(self.name), list(self.parent), list(self.start),
                      list(self.end), list(self.work), list(self.work2)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
