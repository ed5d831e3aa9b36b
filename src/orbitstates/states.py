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

Delta factors are explicit predicates at absolute tolerance 1e-9 on the
canonical coordinates: these states are discontinuous, so membership is a
decision, not a limit.
"""

import math

import numpy as np
from scipy.special import j0

from . import groups
from .tolerances import DEFAULT

KINDS = (
    "heisenberg_loc_p", "heisenberg_loc_q", "heisenberg_loc_t",
    "heisenberg_center", "bargmann_loc_pe", "bargmann_loc_q",
    "euclid_plane", "euclid_spherical", "euclid_cylindrical",
    "su2_highest_weight", "constant_one", "custom",
)

_KIND_FAMILY = {
    "heisenberg_loc_p": "heisenberg",
    "heisenberg_loc_q": "heisenberg",
    "heisenberg_loc_t": "heisenberg",
    "heisenberg_center": "heisenberg",
    "bargmann_loc_pe": "bargmann",
    "bargmann_loc_q": "bargmann",
    "euclid_plane": "euclid",
    "euclid_spherical": "euclid",
    "euclid_cylindrical": "euclid",
    "su2_highest_weight": "su2",
}


class StateParameterError(ValueError):
    def __init__(self, code, message, param=None):
        super().__init__(message)
        self.code = code
        self.param = param   # the key of params at fault, if any


def _number(params, key, default):
    """params[key] (or the default) as a finite float."""
    value = params.get(key, default)
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise StateParameterError("parameter-not-numeric",
                                  "%s must be a finite number, got %r"
                                  % (key, value), param=key)
    return x


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


def make_state(kind, **params):
    """Construct a built-in state; validates integrality/positivity constraints."""
    if kind not in KINDS:
        raise StateParameterError("unknown-kind", "unknown state kind %r" % (kind,))

    if kind == "custom":
        family = params.pop("family")
        evaluator = params.pop("evaluator")
        return State("custom", family, params, evaluator=evaluator)

    if kind == "constant_one":
        family = params.pop("family", "heisenberg")
        return State(kind, family, params)

    family = _KIND_FAMILY[kind]

    if kind in ("heisenberg_loc_p", "bargmann_loc_pe", "euclid_plane",
                "euclid_spherical", "euclid_cylindrical"):
        k = _number(params, "k", 1.0)
        if not k > 0:
            raise StateParameterError("wavenumber-not-positive",
                                      "k must be > 0, got %r" % (k,), "k")
        params["k"] = k

    if kind == "euclid_plane":
        s = _number(params, "s", 0)
        if abs(s - round(s)) > 1e-12:
            raise StateParameterError(
                "helicity-not-integral",
                "helicity s must be an integer for the subgroup to admit a "
                "character with this differential; got %r" % (s,), "s")
        params["s"] = int(round(s))

    if kind == "euclid_cylindrical":
        eps = params.get("eps", 0)
        if eps not in (0, 1):
            raise StateParameterError("eps-not-binary", "eps must be 0 or 1",
                                      "eps")
        params["eps"] = int(eps)

    if kind == "su2_highest_weight":
        j = _number(params, "j", 0.5)
        twoj = 2.0 * j
        if abs(twoj - round(twoj)) > 1e-12 or not (0 <= round(twoj) <= 8):
            raise StateParameterError(
                "spin-out-of-range",
                "2j must be an integer in 0..8, got j=%r" % (j,), "j")
        params["j"] = round(twoj) / 2.0

    if kind in ("heisenberg_loc_q", "bargmann_loc_q"):
        params["l"] = _number(params, "l", 1.0)
    if kind == "heisenberg_loc_t":
        params["k"] = _number(params, "k", 1.0)
        params["l"] = _number(params, "l", 0.0)
        params["t"] = _number(params, "t", 0.0)

    return State(kind, family, params, localization=_localization(kind, params))


def su2_highest_weight(j):
    return make_state("su2_highest_weight", j=j)


def _localization(kind, params):
    if kind == "heisenberg_loc_p":
        return {"subgroup": "b=0", "x": [1.0, params["k"], 0.0]}
    if kind == "heisenberg_loc_q":
        return {"subgroup": "c=0", "x": [1.0, 0.0, params["l"]]}
    if kind == "heisenberg_loc_t":
        # matches the character on the dual line p*t + q = k*t + l;
        # x is the p = k representative of that line
        k, l, t = params["k"], params["l"], params["t"]
        return {"subgroup": "c+bt=0", "x": [1.0, k, l]}
    if kind == "heisenberg_center":
        return {"subgroup": "b=0,c=0", "x": [1.0, 0.0, 0.0]}
    if kind == "bargmann_loc_pe":
        k = params["k"]
        return {"subgroup": "b=0", "x": [1.0, k, 0.0, 0.5 * k * k]}
    if kind == "bargmann_loc_q":
        return {"subgroup": "c=0,e=0", "x": [1.0, 0.0, params["l"], 0.0]}
    if kind == "euclid_plane":
        k, s = params["k"], params["s"]
        return {"subgroup": "A e3 = e3", "w": [0.0, 0.0, s, 0.0, 0.0, k]}
    return None


# ---------------------------------------------------------------------------
# closed forms on coordinate stacks (groups.stack_coords and the array law)

def _axis(X, axis):
    """A stack with a new broadcast axis; euclid stacks are (A, c) pairs."""
    if isinstance(X, tuple):
        return tuple(np.expand_dims(x, axis) for x in X)
    return np.expand_dims(X, axis)


def _custom_values(state, pack):
    """The user evaluator, one element of the stack at a time."""
    if state.family == "euclid":
        shape = pack[1].shape[:-1]
        rows = zip(pack[0].reshape(-1, 3, 3), pack[1].reshape(-1, 3))
    else:
        shape = np.shape(pack)[:-1]
        rows = np.reshape(pack, (-1, np.shape(pack)[-1]))
    return np.array([complex(state.evaluator(groups.GroupElement(
        state.family, d))) for d in rows], dtype=complex).reshape(shape)


def _eval_pack(state, pack):
    """Apply the state's closed form to a coordinate stack (a custom state's
    evaluator to each of its elements)."""
    kind = state.kind
    p = state.params
    tol = DEFAULT.delta

    if kind == "custom":
        return _custom_values(state, pack)
    if kind == "constant_one":
        if state.family == "euclid":
            return np.ones(pack[1].shape[:-1], dtype=complex)
        return np.ones(np.asarray(pack).shape[:-1], dtype=complex)

    if kind == "heisenberg_loc_p":
        a, b, c = pack[..., 0], pack[..., 1], pack[..., 2]
        return np.where(np.abs(b) <= tol, np.exp(1j * (p["k"] * c - a)), 0.0)
    if kind == "heisenberg_loc_q":
        a, b, c = pack[..., 0], pack[..., 1], pack[..., 2]
        return np.where(np.abs(c) <= tol, np.exp(-1j * (a + p["l"] * b)), 0.0)
    if kind == "heisenberg_loc_t":
        a, b, c = pack[..., 0], pack[..., 1], pack[..., 2]
        k, l, t = p["k"], p["l"], p["t"]
        phase = np.exp(-1j * (a + 0.5 * b * b * t + (k * t + l) * b))
        return np.where(np.abs(c + b * t) <= tol, phase, 0.0)
    if kind == "heisenberg_center":
        a, b, c = pack[..., 0], pack[..., 1], pack[..., 2]
        return np.where((np.abs(b) <= tol) & (np.abs(c) <= tol),
                        np.exp(-1j * a), 0.0)
    if kind == "bargmann_loc_pe":
        a, b, c, e = (pack[..., i] for i in range(4))
        k = p["k"]
        return np.where(np.abs(b) <= tol,
                        np.exp(1j * (k * c - 0.5 * k * k * e - a)), 0.0)
    if kind == "bargmann_loc_q":
        a, b, c, e = (pack[..., i] for i in range(4))
        return np.where((np.abs(c) <= tol) & (np.abs(e) <= tol),
                        np.exp(-1j * (a + p["l"] * b)), 0.0)

    if kind in ("euclid_plane", "euclid_cylindrical"):
        A, c = pack
        # A e3 = +-e3: the third column of A is (0, 0, +-1)
        on_line = (np.abs(A[..., 0, 2]) <= tol) & (np.abs(A[..., 1, 2]) <= tol)
        up = on_line & (np.abs(A[..., 2, 2] - 1.0) <= tol)
        if kind == "euclid_plane":
            alpha = np.arctan2(A[..., 1, 0], A[..., 0, 0])
            val = np.exp(1j * (p["s"] * alpha + p["k"] * c[..., 2]))
            return np.where(up, val, 0.0)
        dn = on_line & (np.abs(A[..., 2, 2] + 1.0) <= tol)
        bes = j0(p["k"] * np.sqrt(c[..., 0] ** 2 + c[..., 1] ** 2))
        sign = 1.0 if p["eps"] == 0 else -1.0
        return np.where(up, bes, 0.0) + np.where(dn, sign * bes, 0.0) + 0.0j
    if kind == "euclid_spherical":
        _, c = pack
        r = np.sqrt(np.sum(c * c, axis=-1))
        return np.asarray(sinc(p["k"] * r), dtype=complex)

    if kind == "su2_highest_weight":
        twoj = int(round(2 * p["j"]))
        top = pack[..., 0] + 1j * pack[..., 3]
        return top ** twoj

    raise StateParameterError("unknown-kind", "cannot batch-evaluate %r" % (kind,))


def evaluate(state, g):
    """m(g) for a single group element."""
    return complex(evaluate_many(state, [g])[0])


def evaluate_many(state, samples):
    pack = groups.stack_coords(state.family, samples)
    return np.asarray(_eval_pack(state, pack)).ravel()


def exp_values(state, C):
    """m(exp Z) over a stack C of algebra coordinates (..., dim)."""
    C = np.asarray(C, dtype=float)
    return np.asarray(_eval_pack(state, groups.exp_coords(state.family, C)))


def pair_eval(state, X, Y, grid=False):
    """m(x^{-1} y) over aligned coordinate stacks X, Y (or the full table
    with grid=True)."""
    fam = state.family
    Xi = groups.inverse_coords(fam, X)
    if grid:
        Xi, Y = _axis(Xi, 1), _axis(Y, 0)
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


def gram(state, samples, rank_tol=None):
    """Gram kernel K_ij = m(g_i^{-1} g_j) with attached eigendecomposition."""
    if not samples:
        raise ValueError("empty sample list")
    fams = {g.family for g in samples}
    if len(fams) != 1 or fams.pop() != state.family:
        raise groups.FamilyError("samples must share the state's family")
    S = groups.stack_coords(state.family, samples)
    K = pair_eval(state, S, S, grid=True)
    vals = np.linalg.eigvalsh(K)
    vals = vals[::-1]
    n = len(samples)
    tol = (rank_tol if rank_tol is not None else DEFAULT.quotient_scale) * n
    rank = int(np.sum(vals > tol))
    return GramMatrix(list(samples), K, vals, rank)


def check_psd(gm, tol=None):
    tol = DEFAULT.psd_scale if tol is None else tol
    mn = float(gm.eigenvalues[-1])
    return {"min_eigenvalue": mn, "pass": bool(mn >= -tol * gm.n)}


def check_inequalities(state, pairs, slack=None):
    """Herglotz / Krein / Weil margins over a list of (g, h) pairs.

    Margins are reported as (left side - right side); all must stay below
    the slack for a genuine state.  Krein is checked squared,
    |m(g) - m(h)|^2 <= 2 (1 - Re m(g^-1 h)): its square-root form cancels
    for near-coincident pairs and fails genuine states.
    """
    slack = DEFAULT.slack if slack is None else slack
    fam = state.family
    G = groups.stack_coords(fam, [p[0] for p in pairs])
    H = groups.stack_coords(fam, [p[1] for p in pairs])
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
    vals = np.abs(evaluate_many(state, samples))
    inside = [i for i, v in enumerate(vals) if abs(v - 1.0) < DEFAULT.modulus_one]
    outside = [i for i in range(len(samples)) if i not in inside]

    violations = []
    if len(inside) >= 2:
        rng = np.random.default_rng(seed)
        n_pairs = min(product_budget, len(inside) ** 2)
        ii = rng.integers(0, len(inside), size=n_pairs)
        jj = rng.integers(0, len(inside), size=n_pairs)
        fam = state.family
        prod = groups.compose_coords(
            fam, groups.stack_coords(fam, [samples[inside[i]] for i in ii]),
            groups.stack_coords(fam, [samples[inside[j]] for j in jj]))
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
    """Seeded group elements biased onto the state's modulus-one set, so
    Gram matrices pick up off-diagonal structure for the delta-type states.
    Roughly half the draws land on the support, half are generic."""
    kind = state.kind
    out = []
    for i in range(count):
        if i % 2 == 1 or kind in ("euclid_spherical", "su2_highest_weight",
                                  "constant_one", "custom"):
            out.extend(groups.random_elements(state.family, rng, 1,
                                              scale=scale))
            continue
        u = rng.uniform(-scale, scale, 4)
        if kind == "heisenberg_loc_p":
            out.append(groups.heisenberg(u[0], 0.0, u[1]))
        elif kind == "heisenberg_loc_q":
            out.append(groups.heisenberg(u[0], u[1], 0.0))
        elif kind == "heisenberg_loc_t":
            out.append(groups.heisenberg(u[0], u[1],
                                         -u[1] * state.params["t"]))
        elif kind == "heisenberg_center":
            out.append(groups.heisenberg(u[0], 0.0, 0.0))
        elif kind == "bargmann_loc_pe":
            out.append(groups.bargmann(u[0], 0.0, u[1], u[2]))
        elif kind == "bargmann_loc_q":
            out.append(groups.bargmann(u[0], u[1], 0.0, 0.0))
        elif kind in ("euclid_plane", "euclid_cylindrical"):
            # A e3 = e3, and A e3 = -e3 on every other cylindrical draw
            th = rng.uniform(0, 2 * np.pi)
            A = np.array([[np.cos(th), -np.sin(th), 0.0],
                          [np.sin(th), np.cos(th), 0.0],
                          [0.0, 0.0, 1.0]])
            if kind == "euclid_cylindrical" and i % 4 == 2:
                A = A @ np.diag([1.0, -1.0, -1.0])
            out.append(groups.euclid(A, u[:3]))
        else:
            out.extend(groups.random_elements(state.family, rng, 1,
                                              scale=scale))
    return out
