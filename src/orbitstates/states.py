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

Each kind is one entry of KINDS.  The first six are characters: their
localization records a subgroup H, as basis rows in reduced form, and a
dual point x, and each is [g in H] e^{i<x, log g>}, whose explicit forms
the table above spells out.  H also drives their support draws.

Delta factors are explicit predicates at absolute tolerance 1e-9 on the
algebra (characters) or group coordinates: these states are discontinuous,
so membership is a decision, not a limit.
"""

import functools
import math
import numbers
from collections import namedtuple

import numpy as np

from . import groups
from .tolerances import DEFAULT, gate


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


J0_SWITCH = 20.0      # j0: pieces of a polynomial below, Hankel's series above
J0_PIECE = 0.125      # piece width: a power of two, so t in j0 is exact
J0_DEGREE = 8         # Taylor remainder <= (J0_PIECE / 2)^9 / 9! = 4e-17
J0_HANKEL_TERMS = 24  # at x = 20 the last term is 3e-17 of the amplitude


@functools.cache
def _j0_series():
    """(taylor, even, odd), computed on first use.

    taylor[j, i] is the j-th coefficient of t -> J0(m_i + t J0_PIECE / 2) on
    the piece of centre m_i, |t| <= 1.  It is an exact integral: by
    J0(x) = (1/pi) int_0^pi cos(x sin th) dth, it is the mean over th of
    Re[(i sin th J0_PIECE / 2)^j / j! e^{i m_i sin th}], and the midpoint
    rule on 128 nodes takes it to rounding (its error is about
    J_{256-j}(m_i)).  even and odd hold Hankel's P and -x Q as series in
    1/x^2 (Abramowitz-Stegun 9.2.5 and 9.2.9 at nu = 0)."""
    mid = J0_PIECE * (np.arange(round(J0_SWITCH / J0_PIECE)) + 0.5)
    sin = np.sin(np.pi * (np.arange(128) + 0.5) / 128)
    # Re[i^j e^{i phi}] is +-cos phi or +-sin phi.  Real arithmetic and no
    # matmul: a complex matmul's first call takes work buffers that raise
    # sup-certify's peak RSS by 0.5 MiB
    phase = np.outer(mid, sin)
    wave = np.cos(phase), np.sin(phase)
    taylor = np.array([
        (-1) ** ((j + 1) // 2) / math.factorial(j)
        * np.mean(wave[j % 2] * (0.5 * J0_PIECE * sin) ** j, axis=1)
        for j in range(J0_DEGREE + 1)])
    k = np.arange(1, J0_HANKEL_TERMS)
    hankel = np.cumprod(np.concatenate([[1.0], (2 * k - 1.0) ** 2 / (8 * k)]))
    hankel *= (-1.0) ** (np.arange(J0_HANKEL_TERMS) // 2)
    return taylor, hankel[0::2], hankel[1::2]


def j0(x):
    """The Bessel function J0, elementwise; within 4.5e-16 of
    scipy.special.j0 on [0, 1e6] and of the exact value on [0, 40].

    On [0, J0_SWITCH] each value is its piece's polynomial by Horner's rule;
    above it J0(x) = sqrt(2 / (pi x)) (P cos chi - Q sin chi).  chi is
    x - pi / 4 rounded to a double, as cephes (and so scipy) computes it:
    that rounding moves the value by up to 3e-14 at x = 1e6."""
    x = np.abs(np.asarray(x, dtype=float))
    flat = x.ravel()
    taylor, even, odd = _j0_series()
    u = np.fmin(flat, J0_SWITCH) * (1.0 / J0_PIECE)
    i = np.minimum(u.astype(np.intp), taylor.shape[1] - 1)
    t = 2.0 * (u - i) - 1.0
    out = taylor[-1].take(i)
    for row in taylor[-2::-1]:
        out *= t
        out += row.take(i)
    far = ~(flat <= J0_SWITCH)   # NaN goes here too
    if far.any():
        xf = flat[far]
        r = 1.0 / xf
        y, chi = r * r, xf - np.pi / 4
        poly = np.polynomial.polynomial.polyval
        out[far] = np.sqrt(2.0 / np.pi * r) * (
            poly(y, even) * np.cos(chi) + poly(y, odd) * r * np.sin(chi))
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# parameter checks: (key, value) -> the value the state stores

_REQUIRED = object()   # the default of a parameter that must be given

# the largest |value| of a numeric parameter: flows reach |t Z| <=
# cli.FLOW_REACH = 1e8, so the largest character phase <x, Z>,
# bargmann_loc_pe's 0.5 k^2 eps, stays below 0.5 * (1e6)^2 * 1e8 = 5e19
PARAM_MAX = 1e6


def _bounded(v):
    return not isinstance(v, bool) and isinstance(v, numbers.Real) \
        and abs(v) <= PARAM_MAX


def _check(ok, what, cast=lambda v: v):
    """A parameter check: the value must pass `ok`; it is stored as cast(value)."""
    def check(key, value):
        if not ok(value):
            raise StateParameterError("parameter-invalid", "%s must be %s, got "
                                      "%r" % (key, what, value), key)
        return cast(value)
    return check


_real = _check(_bounded, "a number in [-%g, %g]" % (PARAM_MAX, PARAM_MAX),
               float)
_positive = _check(lambda v: _bounded(v) and v > 0,
                   "a number in (0, %g]" % PARAM_MAX, float)
_integer = _check(lambda v: _bounded(v) and abs(v - round(v)) <= 1e-12,
                  "an integer in [-%g, %g]" % (PARAM_MAX, PARAM_MAX),
                  lambda v: int(round(float(v))))
_binary = _check(lambda v: not isinstance(v, bool) and v in (0, 1), "0 or 1", int)
_spin = _check(lambda v: _bounded(v) and abs(2.0 * v - round(2.0 * v)) <= 1e-12
               and 0 <= round(2.0 * v) <= 8, "a multiple of 1/2 in 0..4",
               lambda v: round(2.0 * float(v)) / 2.0)
_family = _check(lambda v: isinstance(v, str) and v in groups.FAMILIES,
                 "one of %s" % (groups.FAMILIES,))
_callable = _check(callable, "callable")


# support draws: build(state, U, th, idx) -> coordinates of the even indices
# idx of every set, from the (sets, len(idx), 4) uniforms U and, when the
# draw takes `angles`, the (sets, len(idx)) angles th in [0, 2 pi)
SupportDraw = namedtuple("SupportDraw", "build angles")


def _subgroup_build(state, U, th, idx):
    """U[..., :d] as coordinates along the d rows of H; + 0.0 turns the
    -0.0 that zero columns can take into 0.0."""
    H = state.localization["H"]
    return U[..., :len(H)] @ H + 0.0


_on_subgroup = SupportDraw(_subgroup_build, angles=False)


def _on_axis(flip):
    """Rotations about e3 (A e3 = e3), composed with diag(1, -1, -1) on
    every other draw (A e3 = -e3) when `flip`."""
    def build(state, U, th, idx):
        co, si = np.cos(th), np.sin(th)
        sign = np.where(flip & (idx % 4 == 2), -1.0, 1.0)
        X = groups.euclid_coords(np.zeros((3, 3)), U[..., :3])
        A = groups.euclid_parts(X)[0]
        A[..., 0, 0], A[..., 1, 0] = co, si
        A[..., 0, 1], A[..., 1, 1], A[..., 2, 2] = -si * sign, co * sign, sign
        return X
    return SupportDraw(build, angles=True)


# ---------------------------------------------------------------------------
# closed forms on coordinate stacks

def _axis_cosets(A):
    """The masks of A e3 = e3 and A e3 = -e3: the third column of A is
    (0, 0, +-1)."""
    tol = DEFAULT.delta
    on_line = (np.abs(A[..., 0, 2]) <= tol) & (np.abs(A[..., 1, 2]) <= tol)
    return (on_line & (np.abs(A[..., 2, 2] - 1.0) <= tol),
            on_line & (np.abs(A[..., 2, 2] + 1.0) <= tol))


def _plane(p, X):
    A, c = groups.euclid_parts(X)
    alpha = np.arctan2(A[..., 1, 0], A[..., 0, 0])
    val = groups.expi(p["s"] * alpha + p["k"] * c[..., 2])
    return np.where(_axis_cosets(A)[0], val, 0.0)


def _spherical(p, X):
    # by columns: arithmetic on a packed (..., 3) view loops once per row
    c = groups.euclid_parts(X)[1]
    return np.asarray(sinc(p["k"] * np.sqrt(
        c[..., 0] ** 2 + c[..., 1] ** 2 + c[..., 2] ** 2)), dtype=complex)


def _cylindrical(p, X):
    A, c = groups.euclid_parts(X)
    up, dn = _axis_cosets(A)
    bes = j0(p["k"] * np.sqrt(c[..., 0] ** 2 + c[..., 1] ** 2))
    sign = 1.0 if p["eps"] == 0 else -1.0
    return np.where(up, bes, 0.0) + np.where(dn, sign * bes, 0.0) + 0.0j


# One entry per kind.  `params` maps each declared key to (default, check);
# `family` None means the "family" parameter names it.  `localization(p)`
# gives the dual point ("x", or "w" on euclid), and H on a character kind,
# which is [g in H] e^{i<x, log g>}; any other kind has its closed form
# `values(p, X)` on a coordinate stack X.  `draw` is the support draw, if any.
Kind = namedtuple("Kind", "family params values localization draw",
                  defaults=(None, None, None))

KINDS = {
    "heisenberg_loc_p": Kind(
        "heisenberg", {"k": (1.0, _positive)}, localization=lambda p: {
            "H": [[1, 0, 0], [0, 0, 1]], "x": [1.0, p["k"], 0.0]},
        draw=_on_subgroup),
    "heisenberg_loc_q": Kind(
        "heisenberg", {"l": (1.0, _real)}, localization=lambda p: {
            "H": [[1, 0, 0], [0, 1, 0]], "x": [1.0, 0.0, p["l"]]},
        draw=_on_subgroup),
    # the character on the dual line p*t + q = k*t + l; x is the p = k
    # representative of that line
    "heisenberg_loc_t": Kind(
        "heisenberg", {"k": (1.0, _real), "l": (0.0, _real), "t": (0.0, _real)},
        localization=lambda p: {"H": [[1, 0, 0], [0, 1, -p["t"]]],
                                "x": [1.0, p["k"], p["l"]]},
        draw=_on_subgroup),
    "heisenberg_center": Kind(
        "heisenberg", {}, localization=lambda p: {
            "H": [[1, 0, 0]], "x": [1.0, 0.0, 0.0]},
        draw=_on_subgroup),
    "bargmann_loc_pe": Kind(
        "bargmann", {"k": (1.0, _positive)}, localization=lambda p: {
            "H": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "x": [1.0, p["k"], 0.0, 0.5 * p["k"] * p["k"]]},
        draw=_on_subgroup),
    "bargmann_loc_q": Kind(
        "bargmann", {"l": (1.0, _real)}, localization=lambda p: {
            "H": [[1, 0, 0, 0], [0, 1, 0, 0]], "x": [1.0, 0.0, p["l"], 0.0]},
        draw=_on_subgroup),
    "euclid_plane": Kind(
        "euclid", {"k": (1.0, _positive), "s": (0, _integer)}, _plane,
        lambda p: {"w": [0.0, 0.0, p["s"], 0.0, 0.0, p["k"]]},
        _on_axis(flip=False)),
    "euclid_spherical": Kind("euclid", {"k": (1.0, _positive)}, _spherical),
    "euclid_cylindrical": Kind(
        "euclid", {"k": (1.0, _positive), "eps": (0, _binary)}, _cylindrical,
        draw=_on_axis(flip=True)),
    "su2_highest_weight": Kind(
        "su2", {"j": (0.5, _spin)},
        lambda p, X: (X[..., 0] + 1j * X[..., 3]) ** int(round(2 * p["j"]))),
    "constant_one": Kind(None, {"family": ("heisenberg", _family)},
                         lambda p, X: np.ones(X.shape[:-1], dtype=complex)),
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
        loc.update({key: np.asarray(loc[key], dtype=float) for key in "Hx"})
        loc["pivots"] = np.argmax(loc["H"] != 0, axis=1)   # leading entries
    family = p.pop("family", spec.family)
    evaluator = p.pop("evaluator", None)
    return State(kind, family, p, evaluator, loc)


def su2_highest_weight(j):
    return make_state("su2_highest_weight", j=j)


def _custom_values(state, pack):
    """The user evaluator, one coordinate row (d,) of the stack at a time."""
    flat = pack.reshape(-1, pack.shape[-1])
    return np.array([complex(state.evaluator(g)) for g in flat],
                    dtype=complex).reshape(pack.shape[:-1])


def in_subalgebra(state, C):
    """[Z in h] over a stack C of algebra coordinates, for a character kind
    whose H spans h: Z is in h when it is the combination of H's rows its
    pivots pick."""
    loc = state.localization
    off = C - C.take(loc["pivots"], -1) @ loc["H"]
    return (np.abs(off) <= DEFAULT.delta).all(-1)


def _character(state, C, inside=None):
    """[Z in h] e^{i<x, Z>} over a stack C of algebra coordinates, with the
    mask `inside` in place of in_subalgebra(state, C) when given."""
    if inside is None:
        inside = in_subalgebra(state, C)
    return np.where(inside, groups.expi(groups.pairing_coords(
        state.family, state.localization["x"], C)), 0.0)


def _eval_pack(state, pack):
    """Apply the state's closed form to a coordinate stack: a character
    kind's rule to the logarithms of its elements, a custom state's
    evaluator to each element."""
    if state.evaluator is not None:
        return _custom_values(state, pack)
    if "H" in (state.localization or {}):
        return _character(state, groups.log_coords(state.family, pack))
    return KINDS[state.kind].values(state.params, pack)


def evaluate(state, X):
    """m(g) for one coordinate row X (d,), or the array over a stack X."""
    values = np.asarray(_eval_pack(state, np.asarray(X, dtype=float)))
    return values if values.ndim else complex(values)


def exp_values(state, C, inside=None):
    """m(exp Z) over a stack C of algebra coordinates (..., dim).  On a
    character kind, `inside`, if given, is the mask [Z in h] over C's
    leading axes, decided by the caller in place of the test per row."""
    C = np.asarray(C, dtype=float)
    if "H" in (state.localization or {}):
        return _character(state, C, inside)
    return np.asarray(_eval_pack(state, groups.exp_coords(state.family, C)))


def pair_eval(state, X, Y):
    """m(x^{-1} y) over broadcastable coordinate stacks X, Y."""
    fam = state.family
    return np.asarray(_eval_pack(state, groups.compose_coords(
        fam, groups.inverse_coords(fam, X), Y)))


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


def _gram_kernel(state, X):
    """m(g_i^{-1} g_j) over the rows of a sample stack X (..., n, d): one
    (n, n) table per set of n samples."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or not X.size:
        raise ValueError("samples must be a non-empty (..., n, d) stack")
    if X.shape[-1] != groups.COORD_DIM.get(state.family, X.shape[-1]):
        raise groups.FamilyError("samples must be %s rows" % state.family)
    return pair_eval(state, X[..., :, None, :], X[..., None, :, :])


def gram(state, samples):
    """Gram kernel m(g_i^{-1} g_j) of a sample stack, with its eigenvalues."""
    K = _gram_kernel(state, samples)
    n = len(samples)
    vals = np.linalg.eigvalsh(K)[::-1]
    rank = int(np.sum(vals > DEFAULT.quotient_scale * n))
    return GramMatrix(samples, K, vals, rank)


def gram_min_eigenvalues(state, samples):
    """The smallest eigenvalue of the Gram kernel of each set of a (sets, n)
    sample stack, as gram gives it for the set alone, with all kernels
    evaluated and diagonalized at once."""
    return np.linalg.eigvalsh(_gram_kernel(state, samples))[..., 0]


def check_psd(gm):
    """The gate row: min eigenvalue >= -psd_scale * n."""
    return gate(float(gm.eigenvalues[-1]), ">=", "psd_scale", -gm.n)


def check_inequalities(state, G, H):
    """Herglotz / Krein / Weil margins over the row pairs of stacks G, H.

    Margins are reported as (left side - right side); all must stay below
    the `slack` tolerance for a genuine state.  Krein is checked squared,
    |m(g) - m(h)|^2 <= 2 (1 - Re m(g^-1 h)): its square-root form cancels
    for near-coincident pairs and fails genuine states.
    """
    fam = state.family
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
        "pass": bool(worst <= DEFAULT.slack),
    }


def modulus_one_subgroup_probe(state, samples):
    """Partition samples by |m(g)| = 1 and cross-check closure under products.

    The modulus-one locus of a state is a subgroup, so products of two
    inside elements must land inside again; up to 512 seeded pairs are
    checked, and violations are returned rather than raised.
    """
    vals = np.abs(evaluate(state, samples))
    on = np.abs(vals - 1.0) < DEFAULT.modulus_one
    inside, outside = np.flatnonzero(on).tolist(), np.flatnonzero(~on).tolist()

    violations = []
    if len(inside) >= 2:
        rng = np.random.default_rng(0)
        n_pairs = min(512, len(inside) ** 2)
        ii = rng.integers(0, len(inside), size=n_pairs)
        jj = rng.integers(0, len(inside), size=n_pairs)
        prod = groups.compose_coords(state.family,
                                     samples[np.take(inside, ii)],
                                     samples[np.take(inside, jj)])
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


def support_samples(state, rng, count, scale=3.0, sets=1):
    """`sets` seeded sets of `count` elements biased onto the state's
    modulus-one set, so Gram matrices pick up off-diagonal structure for
    the delta-type states, as one (sets * count, d) stack that equals
    `sets` separate calls' stacks laid end to end.  Even indices of a set
    take the kind's support draw (if it has one), odd ones generic draws.
    Set by set the generator calls are those of a separate call, in order:
    the generic draws, then the support draw's uniforms and angles; then
    both halves of all sets are built and checked once and written into
    their even and odd slots."""
    draw = KINDS[state.kind].draw
    if draw is None:
        return groups.random_elements(state.family, rng, count, scale=scale,
                                      sets=sets)
    idx = np.arange(0, count, 2)
    U = np.empty((sets, len(idx), 4))
    th = np.empty((sets, len(idx))) if draw.angles else None

    def support(rng, i):
        U[i] = rng.uniform(-scale, scale, (len(idx), 4))
        if th is not None:
            th[i] = rng.uniform(0, 2 * np.pi, len(idx))

    odd = groups.random_elements(state.family, rng, count // 2, scale=scale,
                                 sets=sets, each=support)
    even = groups.check_coords(state.family, draw.build(state, U, th, idx))
    d = odd.shape[-1]
    out = np.empty((sets, count, d))
    out[:, 0::2], out[:, 1::2] = even, odd.reshape(sets, count // 2, d)
    return out.reshape(sets * count, d)
