"""Closed-form states on the four families, Gram kernels, and the
positivity / inequality machinery.

A state is a normalized positive-definite function m: G -> C, m(e) = 1.
The built-in kinds (JSON names):

  heisenberg_loc_p(k)      e^{-ia} [b=0] e^{ikc}
  heisenberg_loc_q(l)      e^{-ia} e^{-ilb} [c=0]
  heisenberg_loc_t(k,l,t)  [c+bt=0] e^{-ia} e^{-ib^2 t/2} e^{-i(kt+l)b}
  heisenberg_center        e^{-ia} [b=0][c=0]
  bargmann_loc_pe(k)       e^{-ia} [b=0] e^{i(kc - k^2 e/2)}
  bargmann_loc_q(l)        e^{-ia} e^{-ilb} [c=0][e=0]
  euclid_plane(k,s)        e^{is alpha} e^{ik c_3}   if A e3 = e3, else 0
  euclid_spherical(k)      sin(k|c|)/(k|c|)
  euclid_cylindrical(k,eps)  J0(k|c_perp|) if A e3 = e3;
                             (-1)^eps J0(k|c_perp|) if A e3 = -e3; else 0
  su2_highest_weight(j)    (w + iz)^{2j}  (top-left entry to the 2j-th power)
  constant_one             1
  custom                   user-supplied evaluator

Each kind is one entry of KINDS.  For the six Heisenberg/Bargmann delta
kinds the localization records the subgroup H as basis rows in reduced
form on the canonical coordinates, read by both the delta factor [g in H]
and the support draws.

Delta factors are explicit predicates at absolute tolerance 1e-9 on the
canonical coordinates: these states are discontinuous, so membership is a
decision, not a limit.
"""

import math
import numbers
from collections import namedtuple

import numpy as np

from . import groups
from .tolerances import DEFAULT


class StateParameterError(ValueError):
    def __init__(self, code, message, param=None):
        super().__init__(message)
        self.code = code
        self.param = param   # the key of params at fault, if any


class State:
    __slots__ = ("kind", "family", "params", "evaluator", "localization")

    def __init__(self, kind, family, params, evaluator=None, localization=None):
        self.kind = kind
        self.family = family
        self.params = dict(params)
        self.evaluator = evaluator
        self.localization = localization

    def __repr__(self):
        return "State(%s, %s)" % (self.kind, self.params)


def sinc(x):
    """sin(x)/x with the removable singularity handled by its series."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < DEFAULT.sinc_taylor
    xs = np.where(small, 0.0, x)
    out = np.where(small, 1.0 - x * x / 6.0 + x ** 4 / 120.0,
                   np.sin(xs) / np.where(small, 1.0, xs))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# parameter checks: (key, value) -> the value the state stores

_REQUIRED = object()   # the default of a parameter that must be given


def _finite(v):
    return not isinstance(v, bool) and isinstance(v, numbers.Real) \
        and math.isfinite(v)


def _check(ok, what, cast=lambda v: v):
    """A parameter check: the value must pass `ok`; it is stored as cast(value)."""
    def check(key, value):
        if not ok(value):
            raise StateParameterError("parameter-invalid", "%s must be %s, got "
                                      "%r" % (key, what, value), key)
        return cast(value)
    return check


_real = _check(_finite, "a finite number", float)
_positive = _check(lambda v: _finite(v) and v > 0, "a finite number > 0", float)
_integer = _check(lambda v: _finite(v) and abs(v - round(v)) <= 1e-12,
                  "an integer", lambda v: int(round(float(v))))
_binary = _check(lambda v: not isinstance(v, bool) and v in (0, 1), "0 or 1", int)
_spin = _check(lambda v: _finite(v) and abs(2.0 * v - round(2.0 * v)) <= 1e-12
               and 0 <= round(2.0 * v) <= 8, "a multiple of 1/2 in 0..4",
               lambda v: round(2.0 * float(v)) / 2.0)
_family = _check(lambda v: isinstance(v, str) and v in groups.FAMILIES,
                 "one of %s" % (groups.FAMILIES,))
_callable = _check(callable, "callable")


# support draws: (state, U, rng, idx) -> coordinates of the even indices idx,
# from the (len(idx), 4) uniforms U and, if needed, further draws from rng

def _on_subgroup(state, U, rng, idx):
    """U[:, :d] as coordinates along the d rows of H; + 0.0 turns the -0.0
    that zero columns can take into 0.0."""
    H = state.localization["H"]
    return U[:, :len(H)] @ H + 0.0


def _on_axis(flip):
    """Rotations about e3 (A e3 = e3), composed with diag(1, -1, -1) on
    every other draw (A e3 = -e3) when `flip`."""
    def draw(state, U, rng, idx):
        th = rng.uniform(0, 2 * np.pi, len(idx))
        co, si = np.cos(th), np.sin(th)
        sign = np.where(flip & (idx % 4 == 2), -1.0, 1.0)
        A = np.zeros((len(idx), 3, 3))
        A[:, 0, 0], A[:, 1, 0] = co, si
        A[:, 0, 1], A[:, 1, 1], A[:, 2, 2] = -si * sign, co * sign, sign
        return A, U[:, :3]
    return draw


# ---------------------------------------------------------------------------
# closed forms on coordinate stacks (GroupElement.data and the array law)

def _axis_cosets(A):
    """The masks of A e3 = e3 and A e3 = -e3: the third column of A is
    (0, 0, +-1)."""
    tol = DEFAULT.delta
    on_line = (np.abs(A[..., 0, 2]) <= tol) & (np.abs(A[..., 1, 2]) <= tol)
    return (on_line & (np.abs(A[..., 2, 2] - 1.0) <= tol),
            on_line & (np.abs(A[..., 2, 2] + 1.0) <= tol))


def _plane(p, X):
    A, c = X
    alpha = np.arctan2(A[..., 1, 0], A[..., 0, 0])
    val = np.exp(1j * (p["s"] * alpha + p["k"] * c[..., 2]))
    return np.where(_axis_cosets(A)[0], val, 0.0)


def _cylindrical(p, X):
    # imported here: scipy.special adds 0.35 s to every CLI start-up
    from scipy.special import j0
    A, c = X
    up, dn = _axis_cosets(A)
    bes = j0(p["k"] * np.sqrt(c[..., 0] ** 2 + c[..., 1] ** 2))
    sign = 1.0 if p["eps"] == 0 else -1.0
    return np.where(up, bes, 0.0) + np.where(dn, sign * bes, 0.0) + 0.0j


# One entry per kind.  `params` maps each declared key to (default, check);
# `family` None means the "family" parameter names it.  `values(p, X)` is the
# closed form on a coordinate stack X, less the factor [g in H] if H is
# recorded; `localization(p)` gives the dual point ("x", or "w" on euclid)
# and H; `draw` is the support draw (None: generic draws only).
Kind = namedtuple("Kind", "family params values localization draw",
                  defaults=(None, None))

KINDS = {
    "heisenberg_loc_p": Kind(
        "heisenberg", {"k": (1.0, _positive)},
        lambda p, X: np.exp(1j * (p["k"] * X[..., 2] - X[..., 0])),
        lambda p: {"H": [[1, 0, 0], [0, 0, 1]], "x": [1.0, p["k"], 0.0]},
        _on_subgroup),
    "heisenberg_loc_q": Kind(
        "heisenberg", {"l": (1.0, _real)},
        lambda p, X: np.exp(-1j * (X[..., 0] + p["l"] * X[..., 1])),
        lambda p: {"H": [[1, 0, 0], [0, 1, 0]], "x": [1.0, 0.0, p["l"]]},
        _on_subgroup),
    # matches the character on the dual line p*t + q = k*t + l; x is the
    # p = k representative of that line
    "heisenberg_loc_t": Kind(
        "heisenberg", {"k": (1.0, _real), "l": (0.0, _real), "t": (0.0, _real)},
        lambda p, X: np.exp(-1j * (X[..., 0] + 0.5 * X[..., 1] * X[..., 1] * p["t"]
                                   + (p["k"] * p["t"] + p["l"]) * X[..., 1])),
        lambda p: {"H": [[1, 0, 0], [0, 1, -p["t"]]],
                   "x": [1.0, p["k"], p["l"]]},
        _on_subgroup),
    "heisenberg_center": Kind(
        "heisenberg", {},
        lambda p, X: np.exp(-1j * X[..., 0]),
        lambda p: {"H": [[1, 0, 0]], "x": [1.0, 0.0, 0.0]},
        _on_subgroup),
    "bargmann_loc_pe": Kind(
        "bargmann", {"k": (1.0, _positive)},
        lambda p, X: np.exp(1j * (p["k"] * X[..., 2] - 0.5 * p["k"] * p["k"]
                                  * X[..., 3] - X[..., 0])),
        lambda p: {"H": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                   "x": [1.0, p["k"], 0.0, 0.5 * p["k"] * p["k"]]},
        _on_subgroup),
    "bargmann_loc_q": Kind(
        "bargmann", {"l": (1.0, _real)},
        lambda p, X: np.exp(-1j * (X[..., 0] + p["l"] * X[..., 1])),
        lambda p: {"H": [[1, 0, 0, 0], [0, 1, 0, 0]],
                   "x": [1.0, 0.0, p["l"], 0.0]},
        _on_subgroup),
    "euclid_plane": Kind(
        "euclid", {"k": (1.0, _positive), "s": (0, _integer)}, _plane,
        lambda p: {"w": [0.0, 0.0, p["s"], 0.0, 0.0, p["k"]]},
        _on_axis(flip=False)),
    "euclid_spherical": Kind(
        "euclid", {"k": (1.0, _positive)},
        lambda p, X: np.asarray(
            sinc(p["k"] * np.sqrt(np.sum(X[1] * X[1], axis=-1))),
            dtype=complex)),
    "euclid_cylindrical": Kind(
        "euclid", {"k": (1.0, _positive), "eps": (0, _binary)}, _cylindrical,
        draw=_on_axis(flip=True)),
    "su2_highest_weight": Kind(
        "su2", {"j": (0.5, _spin)},
        lambda p, X: (X[..., 0] + 1j * X[..., 3]) ** int(round(2 * p["j"]))),
    "constant_one": Kind(None, {"family": ("heisenberg", _family)},
                         lambda p, X: np.ones(groups.lead_shape(X),
                                              dtype=complex)),
    "custom": Kind(None, {"family": (_REQUIRED, _family),
                          "evaluator": (_REQUIRED, _callable)}, None),
}


def make_state(kind, /, **params):
    """A state of a KINDS entry: every key of params must be declared there,
    and each declared parameter passes its check or takes its default."""
    spec = KINDS.get(kind)
    if spec is None:
        raise StateParameterError("unknown-kind", "unknown state kind %r" % (kind,))
    for key in params:
        if key not in spec.params:
            raise StateParameterError("undeclared-parameter", "%s takes no "
                                      "parameter %r" % (kind, key), key)
    p = {}
    for key, (default, check) in spec.params.items():
        if key not in params and default is _REQUIRED:
            raise StateParameterError("parameter-required",
                                      "%s needs parameter %r" % (kind, key), key)
        p[key] = check(key, params.get(key, default))
    loc = spec.localization(p) if spec.localization else None
    if loc and "H" in loc:
        loc["H"] = np.asarray(loc["H"], dtype=float)
        loc["pivots"] = np.argmax(loc["H"] != 0, axis=1)   # leading entries
    family = p.pop("family", spec.family)
    evaluator = p.pop("evaluator", None)
    return State(kind, family, p, evaluator, loc)


def su2_highest_weight(j):
    return make_state("su2_highest_weight", j=j)


def _custom_values(state, pack):
    """The user evaluator, one element of the stack at a time."""
    lead = groups.lead_shape(pack)
    flat = groups.GroupElement(state.family, groups.map_coords(
        lambda x: np.reshape(x, (-1,) + np.shape(x)[len(lead):]), pack))
    return np.array([complex(state.evaluator(g)) for g in flat],
                    dtype=complex).reshape(lead)


def _eval_pack(state, pack):
    """Apply the state's closed form to a coordinate stack (a custom state's
    evaluator to each of its elements), times [g in H] where H is recorded:
    g is in H when it is the combination of H's rows its pivots pick."""
    if state.evaluator is not None:
        return _custom_values(state, pack)
    values = KINDS[state.kind].values(state.params, pack)
    loc = state.localization
    if not loc or "H" not in loc:
        return values
    off = pack - pack.take(loc["pivots"], -1) @ loc["H"]
    return np.where((np.abs(off) <= DEFAULT.delta).all(-1), values, 0.0)


def evaluate(state, g):
    """m(g) for a single element, or the array of m over a stack g."""
    values = np.asarray(_eval_pack(state, g.data))
    return values if values.ndim else complex(values)


def exp_values(state, C):
    """m(exp Z) over a stack C of algebra coordinates (..., dim)."""
    C = np.asarray(C, dtype=float)
    return np.asarray(_eval_pack(state, groups.exp_coords(state.family, C)))


def pair_eval(state, X, Y, grid=False):
    """m(x^{-1} y) over aligned coordinate stacks X, Y, or with grid=True
    the full table over the last stack axis: stacks of shapes (..., n) and
    (..., k) give a (..., n, k) table."""
    fam = state.family
    Xi = groups.inverse_coords(fam, X)
    if grid:
        Xi = groups.expand_coords(Xi, len(groups.lead_shape(X)))
        Y = groups.expand_coords(Y, len(groups.lead_shape(Y)) - 1)
    return np.asarray(_eval_pack(state, groups.compose_coords(fam, Xi, Y)))


class GramMatrix:
    __slots__ = ("samples", "entries", "eigenvalues", "rank")

    def __init__(self, samples, entries, eigenvalues, rank):
        self.samples = samples
        self.entries = entries
        self.eigenvalues = eigenvalues
        self.rank = rank

    @property
    def n(self):
        return len(self.samples)


def _gram_kernel(state, samples):
    """m(g_i^{-1} g_j) over the last axis of a sample stack: one (n, n)
    table per set of n samples."""
    if samples.family != state.family:
        raise groups.FamilyError("samples must share the state's family")
    if not len(samples) or not groups.lead_shape(samples.data)[-1]:
        raise ValueError("empty sample stack")
    return pair_eval(state, samples.data, samples.data, grid=True)


def gram(state, samples, rank_tol=None):
    """Gram kernel m(g_i^{-1} g_j) of a sample stack, with its eigenvalues."""
    K = _gram_kernel(state, samples)
    n = len(samples)
    vals = np.linalg.eigvalsh(K)[::-1]
    tol = (rank_tol if rank_tol is not None else DEFAULT.quotient_scale) * n
    rank = int(np.sum(vals > tol))
    return GramMatrix(samples, K, vals, rank)


def gram_min_eigenvalues(state, samples):
    """The smallest eigenvalue of the Gram kernel of each set of a (sets, n)
    sample stack, as gram gives it for the set alone, with all kernels
    evaluated and diagonalized at once."""
    return np.linalg.eigvalsh(_gram_kernel(state, samples))[..., 0]


def check_psd(gm, tol=None):
    tol = DEFAULT.psd_scale if tol is None else tol
    mn = float(gm.eigenvalues[-1])
    return {"min_eigenvalue": mn, "pass": bool(mn >= -tol * gm.n)}


def check_inequalities(state, gs, hs, slack=None):
    """Herglotz / Krein / Weil margins over pairs (g, h) of stacks gs, hs.

    Margins are reported as (left side - right side); all must stay below
    the slack for a genuine state.  Krein is checked squared,
    |m(g) - m(h)|^2 <= 2 (1 - Re m(g^-1 h)): its square-root form cancels
    for near-coincident pairs and fails genuine states.
    """
    slack = DEFAULT.slack if slack is None else slack
    fam = state.family
    G, H = gs.data, hs.data
    mg = np.asarray(_eval_pack(state, G))
    mh = np.asarray(_eval_pack(state, H))
    mgh_cross = pair_eval(state, G, H)                           # m(g^-1 h)
    mprod = np.asarray(_eval_pack(state, groups.compose_coords(fam, G, H)))

    herglotz = float(np.max(np.concatenate([np.abs(mg), np.abs(mh)])) - 1.0)
    krein = float(np.max(np.abs(mg - mh) ** 2 - 2.0 * (1.0 - mgh_cross.real)))
    weil_rhs = np.sqrt(np.maximum(0.0, 1.0 - np.abs(mg) ** 2)) \
        * np.sqrt(np.maximum(0.0, 1.0 - np.abs(mh) ** 2))
    weil = float(np.max(np.abs(mprod - mg * mh) - weil_rhs))

    worst = max(herglotz, krein, weil)
    return {
        "herglotz_margin": herglotz,
        "krein_margin": krein,
        "weil_margin": weil,
        "worst_margin": worst,
        "pass": bool(worst <= slack),
    }


def modulus_one_subgroup_probe(state, samples, product_budget=512, seed=0):
    """Partition samples by |m(g)| = 1 and cross-check closure under products.

    The modulus-one locus of a state is a subgroup, so products of two
    inside elements must land inside again; sampled violations are returned
    rather than raised.
    """
    vals = np.abs(evaluate(state, samples))
    on = np.abs(vals - 1.0) < DEFAULT.modulus_one
    inside, outside = np.flatnonzero(on).tolist(), np.flatnonzero(~on).tolist()

    violations = []
    if len(inside) >= 2:
        rng = np.random.default_rng(seed)
        n_pairs = min(product_budget, len(inside) ** 2)
        ii = rng.integers(0, len(inside), size=n_pairs)
        jj = rng.integers(0, len(inside), size=n_pairs)
        prod = groups.compose_coords(state.family,
                                     samples[np.take(inside, ii)].data,
                                     samples[np.take(inside, jj)].data)
        pv = np.abs(_eval_pack(state, prod))
        for idx, v in enumerate(pv):
            if abs(v - 1.0) >= DEFAULT.modulus_one:
                violations.append((int(inside[ii[idx]]), int(inside[jj[idx]])))
    return {
        "inside": inside,
        "outside": outside,
        "closure_violations": violations,
        "pass": not violations,
    }


def support_samples(state, rng, count, scale=3.0):
    """A seeded stack of group elements biased onto the state's modulus-one
    set, so Gram matrices pick up off-diagonal structure for the delta-type
    states.  Even indices take the kind's support draw (if it has one), odd
    ones generic draws; each set is drawn and checked as one stack."""
    draw = KINDS[state.kind].draw
    if draw is None:
        return groups.random_elements(state.family, rng, count, scale=scale)
    odd = groups.random_elements(state.family, rng, count // 2, scale=scale)
    idx = np.arange(0, count, 2)
    even = groups.from_coords(state.family, draw(
        state, rng.uniform(-scale, scale, (len(idx), 4)), rng, idx))
    order = np.argsort(np.concatenate([idx, np.arange(1, count, 2)]))
    return groups.GroupElement(state.family, groups.map_coords(
        lambda x, y: np.concatenate([x, y])[order], even.data, odd.data))
