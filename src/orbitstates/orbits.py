"""The moment map and orbit sampling of each family, the orbit relations,
and the sup-inequality check run as a numerical optimization.

The check asks, for commuting tuples (Z_1..Z_n) and coefficients c_j,
whether |sum_j c_j m(exp Z_j)| stays below sup over orbit points x of
|sum_j c_j e^{i<x, Z_j>}|.  The search brackets that sup between a lower
bound (values the orbit attains) and a certified upper bound, so both
verdicts can be certified: a pass when the left side stays below the lower
bound, a failure when the upper bound lies below the left side by more
than the check's slack.  A failure whose upper bound does not certify it
rests on the search alone: a finer search might still find a larger value
on the orbit.

Commuting tuples are drawn from documented per-family whitelists rather
than searched for generically:

  heisenberg  span{center, cos(theta) beta-gen + sin(theta) gamma-gen}
  bargmann    the abelian ideal (alpha, gamma, eps) and boost lines
              span{center, (1, ghat, ehat)-direction}
  euclid      pure translations; rotation + translation along a common axis
  su2         lines R*v
  torus       everything commutes

These whitelists are a choice of this implementation; the inequality itself
quantifies over all commuting tuples.

Every tuple reduces the orbit sup to a search over one of three charts,
each defined by its phases phi_j(x) (the signal is
|sum_j c_j e^{i phi_j(x)}|) and their Jacobian:

  line    p gamma_j - p^2 eps_j / 2 + off_j over p in R or an interval:
          Heisenberg tau = p sin(theta) - q cos(theta), Bargmann ideal p,
          Bargmann boost u = p*ghat - q - p^2 ehat/2 (eps = 0), SU(2) axis
          heights h in [-lambda, lambda] (eps = 0, off = 0)
  sphere  u . w_j over unit vectors u: Euclid translations
  strip   s_j l + t_j p over (l, p) in R x [-k, k]: Euclid screw tuples

and a torus orbit is a single point.  The search for one tuple runs in
stages of rising cost and checks an optional target (the left side under
test) after each one:

  1  anchors: the state's localization points and the SU(2) weight
     heights, plus the exact value when the tuple has one term or is
     central;
  2  analytic class bounds: on the line over R the stationary-phase means
     of the exact (gamma, eps) classes, the sphere mean
     sum c_j sinc|w_j| and the directions +-w_j/|w_j|, the per-s-class
     strip bound on a coarse p grid;
  3  a fixed 1-in-16 subset of the chart's fixed grid;
  4  the rest of that grid, plus three great circles and their means on
     the sphere and the strip's class bound on the rest of its p grid;
  5  the budgeted seeded draws, then one batched gradient ascent on the
     chart from the best points.

Every stage yields a true lower bound on the sup, so stopping once it
reaches the target is sound, and without a target every stage runs.  The
upper bound is tightened from values the stages compute anyway:

  1  sum_j |c_j| everywhere, and the value itself when it is exact;
  2  on the line over R, sum over the (gamma, eps) classes of
     |class sum of c_j e^{i off_j}|;
  4  on the SU(2) interval, the grid maximum plus L lambda / (GRID_1D - 1),
     with L = sum_j |c_j| |omega_j| the signal's Lipschitz constant.

Each upper bound also carries ROUNDING * sum_j |c_j|, an allowance for the
rounding of the values evaluated on the orbit: a phase of size Phi is
evaluated to within a few ulps of Phi, so a value may exceed the exact sup
by about 1e-16 Phi sum_j |c_j|, and the allowance covers phases up to about
1e6 radians (the searched box reaches a few thousand).  Once the upper
bound lies below the target by more than `eps`, the row is settled as
refuted and stage 5 does not run.  The sphere and the strip get the
triangle bound only.

`budget` caps the draws of stage 5; re-running with a larger budget extends
the same stream of draws, so the best drawn value never falls as the budget
grows.  The estimate can: the ascents start from the best points found,
and a better start may climb to a lower local maximum.
`SupEstimate.drawn` and the `samples_drawn` field of a `quantum_check`
report say how many draws were actually made.

The search runs on stacks of tuples, padded to a common length with zero
terms: stages 1 and 2 are array code over the whole stack, and stages 3-5
run one tuple at a time on the few that those leave unsettled.
`quantum_check` runs its trials BLOCK at a time: one draw of a block's
tuples from a stream keyed by (seed, block), one `states.exp_values` call
for their left sides, then the search with stage-5 draws keyed by
(seed, trial).  The left sides and the anchor and class sums go through one
left-to-right reduction (`_rsum`), so a sum that equals a localized
state's left side in exact arithmetic equals it in floating point too.
`orbit_sup` is the same search on a stack of one; it checks that its tuple
commutes, while drawn tuples commute by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import groups, states
from .tolerances import DEFAULT

GRID_1D = 4096
GRID_2D = 96
CIRCLE = 512
COARSE = 16          # stage 3 evaluates every COARSE-th point of a fixed grid
DRAW_CHUNK = 8192    # stage 5 evaluates its draws this many at a time
ASCENT_STEPS = 50
ASCENT_RESTARTS = 8
ROUNDING = 1e-9      # upper bounds add ROUNDING * sum_j |c_j| (see above)

# the stage names of SupEstimate.stage (1-based) as quantum_check reports them
STAGES = ("anchor", "class_bound", "coarse_grid", "full_grid", "search")


@dataclass
class SupEstimate:
    """One search's result (the search over a stack keeps (T,) arrays)."""
    value: float
    samples: int         # orbit points evaluated, draws included
    ascent_steps: int
    stage: int = 1       # the last stage run (the one that settled the row)
    drawn: int = 0       # budgeted draws made (stage 5 only)
    upper: float = math.inf   # certified upper bound on the sup

    def __float__(self):
        return float(self.value)


class OrbitSpec:
    __slots__ = ("family", "params")

    def __init__(self, family, params):
        self.family = family
        self.params = dict(params)

    @property
    def dim(self):
        """The length of the algebra coordinates paired with the orbit (a
        torus has the dimension of its point y)."""
        return groups.ALGEBRA_DIM.get(self.family) or len(self.params["y"])

    def sample(self, rng, count, box=None):
        """Seeded dual points on the orbit (rows of coordinate vectors): the
        moment map of phase-space points drawn uniformly from the box, with
        uniform directions on Euclid and SU(2)."""
        box = DEFAULT.box_radius if box is None else box
        f = self.family
        if f in ("heisenberg", "bargmann"):
            return self.moment(rng.uniform(-box, box, size=(count, 2)))
        if f == "euclid":
            u = _unit(rng.standard_normal((count, 3)))
            return self.moment((rng.uniform(-box, box, size=(count, 3)), u))
        if f == "su2":
            return self.moment(rng.standard_normal((count, 3)))
        if f == "torus":
            y = np.asarray(self.params["y"], dtype=float)
            return np.tile(y, (count, 1))
        raise groups.FamilyError(f)

    def moment(self, X):
        """The moment map on a stack of phase-space points, as rows of dual
        coordinates: (p, q) rows to (1, p, q) on heisenberg and
        (1, p, q, p^2 / 2) on bargmann; euclid (r, u) pairs of (n, 3)
        stacks, u unit directions, to (k r x u + s u, k u) after removing
        r's component along u; su2 nonzero rows x to lam x / |x|.  A torus
        orbit is a point and has no phase space."""
        f = self.family
        if f in ("heisenberg", "bargmann"):
            X = np.asarray(X, dtype=float)
            cols = [np.ones(len(X)), X]
            if f == "bargmann":
                cols.append(0.5 * X[:, 0] ** 2)
            return np.column_stack(cols)
        if f == "euclid":
            r, u = (np.asarray(a, dtype=float) for a in X)
            if not np.abs(np.linalg.norm(u, axis=-1) - 1.0).max(
                    initial=0.0) <= 1e-9:
                raise ValueError("directions must be unit vectors")
            k, s = self.params["k"], self.params["s"]
            r = r - np.sum(r * u, axis=-1, keepdims=True) * u
            return np.concatenate([k * np.cross(r, u) + s * u, k * u], axis=-1)
        if f == "su2":
            X = np.asarray(X, dtype=float)
            n = np.linalg.norm(X, axis=-1, keepdims=True)
            if np.any(n == 0):
                raise ValueError("a zero point has no direction")
            return self.params["lam"] * (X / n)
        raise groups.FamilyError(f)


def heisenberg_orbit(k=1.0, l=0.0):
    return OrbitSpec("heisenberg", {"k": k, "l": l})


def bargmann_orbit():
    return OrbitSpec("bargmann", {})


def euclid_orbit(k, s=0.0):
    return OrbitSpec("euclid", {"k": float(k), "s": float(s)})


def su2_orbit(lam):
    return OrbitSpec("su2", {"lam": float(lam)})


def torus_orbit(y):
    return OrbitSpec("torus", {"y": list(np.atleast_1d(y))})


def relation_residuals(spec, pts):
    """How far each row of a stack of dual points is from satisfying the
    orbit's defining relations (M = 1; E = p^2/2 on bargmann; |P| = k and
    L.P = k s on euclid; |x| = lam on su2); 0 on a torus."""
    fam = spec.family
    if fam == "heisenberg":
        return np.abs(pts[:, 0] - 1.0)
    if fam == "bargmann":
        return np.maximum(np.abs(pts[:, 0] - 1.0),
                          np.abs(pts[:, 3] - 0.5 * pts[:, 1] ** 2))
    if fam == "euclid":
        k, s = spec.params["k"], spec.params["s"]
        P = pts[:, 3:]
        L = pts[:, :3]
        return np.maximum(np.abs(np.linalg.norm(P, axis=1) - k),
                          np.abs(np.sum(L * P, axis=1) - k * s))
    if fam == "su2":
        return np.abs(np.linalg.norm(pts, axis=1) - spec.params["lam"])
    return np.zeros(len(pts))


# ---------------------------------------------------------------------------
# sup search

def _frozen(a):
    a.setflags(write=False)
    return a


def _unit(U):
    """The rows of U scaled to unit length."""
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def _fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = np.pi * (1.0 + math.sqrt(5.0)) * i
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _circles(n):
    """n points on each of the great circles about the x, y and z axes."""
    phi = 2.0 * np.pi * np.arange(n) / n
    c, s, o = np.cos(phi), np.sin(phi), np.zeros(n)
    return np.vstack([np.column_stack([o, c, s]), np.column_stack([c, o, s]),
                      np.column_stack([c, s, o])])


def _unit_strip():
    """(l, p) in [-1, 1]^2 on a GRID_2D^2 grid, then the l = 0 slice at
    GRID_1D heights: the l = 0 slice carries every measure with vanishing
    angular momentum (spherical and cylindrical means land there)."""
    u = np.linspace(-1.0, 1.0, GRID_2D)
    grid = np.column_stack([np.repeat(u, GRID_2D), np.tile(u, GRID_2D)])
    return np.vstack([grid, np.column_stack([np.zeros(GRID_1D), _LINE])])


# fixed grids on unit charts, built once and scaled per call
_LINE = _frozen(np.linspace(-1.0, 1.0, GRID_1D))
_SPHERE = _frozen(_fibonacci_sphere(GRID_1D))
_CIRCLES = _frozen(_circles(CIRCLE))
_STRIP = _frozen(_unit_strip())


def _refutes(upper, target, eps):
    """Whether upper bounds on the sup lie below their targets by more than
    eps; never for target inf, which means no early exit."""
    return (upper < target - eps) & (target < np.inf)


class _Bound:
    """The running certified bounds of one row of the sup search, from
    stage 3 on (stages 1 and 2 run on the whole stack in _sup_rows)."""
    __slots__ = ("target", "eps", "value", "upper", "slack", "samples",
                 "steps", "stage", "drawn")

    def __init__(self, target, eps, value, upper, slack, samples):
        self.target = target        # inf: no early exit
        self.eps = eps
        self.value = value
        self.upper = upper
        self.slack = slack          # the rounding allowance of upper bounds
        self.samples = samples
        self.steps = self.drawn = 0
        self.stage = 2

    def points(self, vals):
        """Fold in the values at evaluated orbit points."""
        if len(vals):
            self.value = max(self.value, float(np.max(vals)))
        self.samples += len(vals)

    def bound(self, v):
        """Fold in an analytic lower bound."""
        self.value = max(self.value, float(v))

    def met(self, stage):
        """Close `stage`; True once the target is reached."""
        self.stage = stage
        return self.value >= self.target

    def refuted(self, upper):
        """Fold in an upper bound on the exact sup, plus the rounding
        allowance; True once it lies below the target by more than eps."""
        self.upper = min(self.upper, float(upper) + self.slack)
        return _refutes(self.upper, self.target, self.eps)


def _rest(n):
    """Mask of the grid points stage 3 skips and stage 4 evaluates."""
    mask = np.ones(n, dtype=bool)
    mask[::COARSE] = False
    return mask


def _grid_stages(run, grid, value):
    """Stages 3 and 4 on a fixed grid: every COARSE-th point, then the
    rest.  Returns the values in grid order, or None once the target is met
    (stage 4 is closed by the caller, after its chart's extras)."""
    vals = np.empty(len(grid))
    vals[::COARSE] = value(grid[::COARSE])
    run.points(vals[::COARSE])
    if run.met(3):
        return None
    rest = _rest(len(grid))
    vals[rest] = value(grid[rest])
    run.points(vals[rest])
    return vals


def _draws(budget, draw):
    """The budgeted draws in chunks of at most DRAW_CHUNK points, drawn in
    stream order by draw(count)."""
    for start in range(0, budget, DRAW_CHUNK):
        yield draw(min(DRAW_CHUNK, budget - start))


class _Chart:
    """A search chart of |sum_j c_j e^{i phi_j(x)}| over rows x: phase(X)
    gives the (rows, n) phases, jac(X) their Jacobian d phi_j / dx
    (broadcastable to (rows, n, dim)), and move(X, G, eta) takes the
    gradient step eta G and keeps the rows on the chart."""
    __slots__ = ("cs", "phase", "jac", "move")

    def __init__(self, cs, phase, jac, move):
        self.cs, self.phase, self.jac, self.move = cs, phase, jac, move

    def value(self, X):
        return np.abs(np.exp(1j * self.phase(X)) @ self.cs)


def _line_chart(cs, ga, ep, off, r=np.inf):
    """p in [-r, r] (all of R by default); phases
    p ga_j - p^2 ep_j / 2 + off_j; steps clamp p."""
    return _Chart(cs, lambda P: P * (ga - 0.5 * P * ep) + off,
                  lambda P: (ga - P * ep)[..., None],
                  lambda P, G, eta: np.clip(P + eta * G, -r, r))


def _sphere_chart(cs, ws):
    """Unit vectors u; phases u . w_j; steps are projected and retracted."""
    def move(U, G, eta):
        G = G - np.sum(G * U, axis=1, keepdims=True) * U
        return _unit(U + eta * G)

    return _Chart(cs, lambda U: U @ ws.T, lambda U: ws, move)


def _strip_chart(cs, sfreq, pfreq, k):
    """(l, p) in R x [-k, k]; phases s_j l + t_j p; steps clamp p."""
    J = np.column_stack([sfreq, pfreq])
    return _Chart(cs, lambda X: np.outer(X[:, 0], sfreq)
                  + np.outer(X[:, 1], pfreq), lambda X: J,
                  lambda X, G, eta: np.clip(X + eta * G, (-np.inf, -k),
                                            (np.inf, k)))


def _ascend(chart, X):
    """Gradient ascent on |S|^2, S = sum_j c_j e^{i phi_j(x)}, from every
    row of X together.  Each row keeps its own step, first
    0.5 / max(1, max_j |d phi_j / dx|^2) at its start: a move that does not
    lower the value is kept, otherwise the step halves, and the row stops
    once its step is below 1e-18 or after ASCENT_STEPS moves.  Returns the
    final rows, their values (none below its start) and the moves tried."""
    X = np.array(X, dtype=float)
    f = chart.value(X)
    J = chart.jac(X)
    eta = np.broadcast_to(
        0.5 / np.maximum(1.0, np.max(np.sum(J * J, axis=-1), axis=-1)),
        f.shape).copy()
    live, steps = np.arange(len(X)), 0
    for _ in range(ASCENT_STEPS):
        if not live.size:
            break
        x = X[live]
        E = np.exp(1j * chart.phase(x))
        S = E @ chart.cs
        dS = np.sum((1j * chart.cs * E)[..., None] * chart.jac(x), axis=1)
        xn = chart.move(x, 2.0 * np.real(np.conj(S)[:, None] * dS),
                        eta[live, None])
        fn = chart.value(xn)
        steps += live.size
        up = fn >= f[live]
        X[live[up]], f[live[up]] = xn[up], fn[up]
        eta[live[~up]] *= 0.5
        live = live[eta[live] >= 1e-18]
    return X, f, steps


def _search(run, chart, X, vals, chunks):
    """Stage 5: evaluate the drawn chunks, keeping each chunk's best
    ASCENT_RESTARTS points (selected, not sorted), then ascend from the
    ASCENT_RESTARTS best of those and of the fixed points X.  Memory stays
    bounded by the chunk."""
    run.stage = 5
    keep_X, keep_v = [X], [vals]
    for D in chunks:
        v = chart.value(D)
        run.points(v)
        run.drawn += len(v)
        top = np.argpartition(v, -ASCENT_RESTARTS)[-ASCENT_RESTARTS:] \
            if len(v) > ASCENT_RESTARTS else slice(None)
        keep_X.append(D[top])
        keep_v.append(v[top])
    X, vals = np.concatenate(keep_X), np.concatenate(keep_v)
    _, f, steps = _ascend(chart, X[np.argsort(vals)[::-1][:ASCENT_RESTARTS]])
    run.steps += steps
    run.bound(np.max(f))


def _line_rest(run, cs, ga, ep, off, r, heights, interval, budget, seed):
    """Stages 3-5 on the line chart, p in [-r, r] when `interval` (the
    SU(2) heights), else p over R, searched in [-r, r].  On the interval
    every point lies within r / (GRID_1D - 1) of the grid, so the grid
    maximum plus that distance times the Lipschitz constant
    sum_j |c_j| |ga_j| bounds the sup from above."""
    chart = _line_chart(cs, ga, ep, off, r if interval else np.inf)
    X = r * _LINE[:, None]
    vals = _grid_stages(run, X, chart.value)
    if vals is None or run.met(4):
        return
    if interval and run.refuted(
            np.max(vals) + np.sum(np.abs(cs * ga)) * r / (GRID_1D - 1)):
        return
    H = heights[:, None]
    rng = np.random.default_rng(seed)
    _search(run, chart, np.vstack([X, H]),
            np.concatenate([vals, chart.value(H)]),
            _draws(budget, lambda n: rng.uniform(-r, r, size=(n, 1))))


def _sphere_rest(run, cs, ws, anchors, budget, seed):
    """Stages 3-5 on the unit sphere; `anchors` are unit vectors."""
    chart = _sphere_chart(cs, ws)
    vals = _grid_stages(run, _SPHERE, chart.value)
    if vals is None:
        return
    # circle points are candidates and so are their means (a circle mean
    # lower-bounds the sup over the circle)
    csum = np.exp(1j * chart.phase(_CIRCLES)) @ cs
    cvals = np.abs(csum)
    run.points(cvals)
    for S in csum.reshape(3, CIRCLE):
        run.bound(abs(np.mean(S)))
    if run.met(4):
        return
    D, ok = _directions(ws)
    extra = np.vstack([D[ok], anchors])
    rng = np.random.default_rng(seed)
    _search(run, chart, np.vstack([_SPHERE, extra, _CIRCLES]),
            np.concatenate([vals, chart.value(extra), cvals]),
            _draws(budget, lambda n: _unit(rng.standard_normal((n, 3)))))


def _strip_rest(run, cs, sfreq, pfreq, k, box, anchors, budget, seed):
    """Stages 3-5 on the strip (l, p) in R x [-k, k]; `anchors` are (l, p)
    rows."""
    chart = _strip_chart(cs, sfreq, pfreq, k)
    X = _STRIP * (box, k)
    vals = _grid_stages(run, X, chart.value)
    if vals is None:
        return
    # the per-s-class bound of stage 2 on the rest of its p grid
    p_rest = k * _LINE[_rest(GRID_1D), None]
    for s in np.unique(sfreq):
        sel = sfreq == s
        run.bound(np.max(_line_chart(cs[sel], pfreq[sel], 0.0, 0.0)
                         .value(p_rest)))
    if run.met(4):
        return
    rng = np.random.default_rng(seed)
    # (l, p) pairs in stream order, so a larger budget extends the draws
    _search(run, chart, np.vstack([X, anchors]),
            np.concatenate([vals, chart.value(anchors)]),
            _draws(budget, lambda n: rng.uniform((-box, -k), (box, k), (n, 2))))


# ---------------------------------------------------------------------------
# stages 1 and 2 on stacks of tuples

def _rsum(P):
    """The sum over the last axis, strictly left to right: one rounding
    order whatever the stack's shape, in which the zero terms that pad
    shorter tuples change nothing."""
    S = P[..., 0]
    for j in range(1, P.shape[-1]):
        S = S + P[..., j]
    return S


def _signal(phases, cs):
    """|sum_j c_j e^{i phi_j}| over the last axis.  The left side of the
    check is summed the same way (values times cs, then _rsum), so an
    anchor or class sum on which a state is localized meets it to the last
    bit rather than an ulp below it."""
    return np.abs(_rsum(np.exp(1j * phases) * cs))


def _class_sums(same, P):
    """|sum_k [k ~ j] P_k| over the last axis of P, stacked over the terms
    j along a new leading axis, where same[r, j] marks the terms of row r
    in the class of term j: the sum of one class is the full-length _rsum
    with the other terms zeroed."""
    return np.array([np.abs(_rsum(np.where(same[:, j], P, 0.0)))
                     for j in range(same.shape[-1])])


def _directions(ws):
    """The directions +-w_j/|w_j| as (..., 2W, 3) rows, and which of them
    are defined (|w_j| > 1e-12)."""
    nw = np.linalg.norm(ws, axis=-1, keepdims=True)
    ok = nw[..., 0] > 1e-12
    u = ws / np.where(ok[..., None], nw, 1.0)
    return np.concatenate([u, -u], axis=-2), np.concatenate([ok, ok], axis=-1)


def _sup_rows(spec, C, cs, n, anchors, target, budget, seeds, box, eps):
    """The staged sup search on a stack of tuples.

    Row t is the tuple of algebra coordinates C[t, :n[t]] (C is
    (T, W, dim)) with coefficients cs[t, :n[t]] (cs is 0 on the padding),
    searched against target[t] (inf: no early exit): it is settled once its
    lower bound reaches the target or its upper bound lies below
    target[t] - eps.  anchors is an (A, dim) stack of dual points, and
    seeds(t) seeds row t's stage-5 draws.  Stages 1 and 2 run on every row
    at once, stages 3-5 on each row they leave unsettled.  Returns a
    SupEstimate of (T,) arrays."""
    fam = spec.family
    T = len(cs)
    rows = np.arange(T)
    target = np.broadcast_to(np.asarray(target, float), (T,))
    anchors = np.reshape(anchors, (-1, C.shape[-1]))
    # stage 1: anchors, the SU(2) weight heights, and the exact value of
    # one-term tuples and of the tuples whose phases are constant
    value = np.where(n == 1, np.abs(cs[:, 0]), 0.0)
    total = _rsum(np.abs(cs))
    slack = ROUNDING * total
    upper = total + slack
    samples = np.zeros(T, dtype=int)

    def points(sel, vals):
        value[sel] = np.maximum(value[sel], np.max(vals, axis=1))
        samples[sel] += vals.shape[1]

    if len(anchors):
        points(rows, _signal(groups.pairing_coords(
            fam, anchors[:, None], C[:, None]), cs[:, None]))
    line = sphere = None
    fixed = np.zeros(T, dtype=bool)      # constant phases: the sup is exact
    heights = np.zeros(0)
    if fam == "heisenberg":
        al, be, ga = C[..., 0], C[..., 1], C[..., 2]
        # commuting <=> the (beta, gamma) rows are parallel
        lead = np.argmax(be * be + ga * ga, axis=1)
        d = np.stack([be[rows, lead], ga[rows, lead]], axis=-1)
        nrm = np.hypot(d[:, 0], d[:, 1])
        fixed = nrm < 1e-14      # pure center: <x, Z_j> = -alpha_j everywhere
        d /= np.where(fixed, 1.0, nrm)[:, None]
        # tau = p d[1] - q d[0]; over the (p, q) box it reaches
        # +- box (|d0| + |d1|)
        line = (be * d[:, :1] + ga * d[:, 1:], np.zeros_like(al), -al,
                box * np.sum(np.abs(d), axis=1))
    elif fam == "bargmann":
        # an ideal tuple (no beta) has phases p ga_j - p^2 ep_j / 2 - al_j,
        # 1-D in p; on a boost line (beta_j, gamma_j, eps_j) =
        # mu_j (1, gh, eh), u = p gh - q - p^2 eh / 2 sweeps R and the
        # phases are mu_j u - alpha_j
        al, be, ga, ep = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
        ideal = (np.max(np.abs(be), axis=1) < 1e-14)[:, None]
        line = (np.where(ideal, ga, be), np.where(ideal, ep, 0.0), -al,
                np.full(T, box))
    elif fam == "su2":
        norm = np.linalg.norm(C, axis=-1)
        lead = np.argmax(norm, axis=1)
        top = norm[rows, lead]
        fixed = top < 1e-14
        v = C[rows, lead] / np.where(fixed, 1.0, top)[:, None]
        om = np.sum(C * v[:, None], axis=-1)
        lam = spec.params["lam"]
        line = (om, np.zeros_like(om), np.zeros_like(om), np.full(T, lam))
        # the weight heights: where highest-weight states put their atoms
        heights = np.arange(-math.floor(2 * lam), math.floor(2 * lam) + 1) / 2
        heights = heights[np.abs(heights) <= lam + 1e-12]
        points(rows, _signal(heights[:, None] * om[:, None], cs[:, None]))
    elif fam == "euclid":
        k = spec.params["k"]
        ax, rate = C[..., :3], C[..., 3:]
        norm = np.linalg.norm(ax, axis=-1)
        lead = np.argmax(norm, axis=1)
        sphere = norm[rows, lead] < 1e-14        # pure translations
        top = np.where(sphere, 1.0, norm[rows, lead])
        axis = ax[rows, lead] / top[:, None]
        sfreq = np.sum(ax * axis[:, None], axis=-1)
        pfreq = np.sum(rate * axis[:, None], axis=-1)
        ws = k * rate
    elif fam == "torus":
        fixed = np.ones(T, dtype=bool)
    else:
        raise groups.FamilyError(fam)
    if fixed.any():
        phase = line[2] if line is not None else groups.pairing_coords(
            fam, np.asarray(spec.params["y"], float), C)
        points(fixed, _signal(phase[fixed], cs[fixed])[:, None])
    exact = (n == 1) | fixed
    upper[exact] = value[exact] + slack[exact]
    settled = exact | (value >= target) | _refutes(upper, target, eps)
    stage = np.where(settled, 1, 2)

    # stage 2: the analytic class bounds
    open_ = np.flatnonzero(~settled)
    if fam in ("heisenberg", "bargmann"):
        # stationary phase: the long-run p-mean keeps exactly the terms of
        # one (ga, ep) class and lower-bounds the sup over R, and the sum
        # of the class sums' moduli, each class taken once by its first
        # member, bounds it from above.  Classes use exact float equality,
        # so deliberately drawn repeats (a shared frequency 0, say) group
        ga, ep, off = (a[open_] for a in line[:3])
        same = (ga[:, :, None] == ga[:, None]) \
            & (ep[:, :, None] == ep[:, None])
        sums = _class_sums(same, np.exp(1j * off) * cs[open_])
        value[open_] = np.maximum(value[open_], np.max(sums, axis=0))
        first = ~np.any(np.tril(same, -1), axis=-1).T
        upper[open_] = np.minimum(upper[open_], slack[open_]
                                  + np.sum(np.where(first, sums, 0.0), axis=0))
    elif fam == "euclid":
        sel = open_[sphere[open_]]
        # sphere-uniform mean of the signal = sum c_j sinc(|w_j|), with
        # |w_j| = k |rate_j| written as the spherical state's closed form
        # writes it
        rs = rate[sel]
        mean = np.abs(_rsum(states.sinc(k * np.sqrt(np.sum(rs * rs, axis=-1)))
                            * cs[sel]))
        D, ok = _directions(ws[sel])
        dv = _signal(np.sum(D[:, :, None] * ws[sel][:, None], axis=-1),
                     cs[sel][:, None])
        value[sel] = np.maximum(value[sel],
                                np.maximum(mean, np.max(dv * ok, axis=1)))
        samples[sel] += np.sum(ok, axis=1)
        # per-s-frequency class bound: sup_{l,p} >= sup_p |mean_l of class|,
        # and the l-mean of a class is a line in p, bounded here on a
        # coarse p grid
        sel = open_[~sphere[open_]]
        s = sfreq[sel]
        p = k * _LINE[::COARSE, None, None]
        value[sel] = np.maximum(value[sel], np.max(_class_sums(
            s[:, :, None] == s[:, None],
            np.exp(1j * p * pfreq[sel]) * cs[sel]), axis=(0, 1)))
    settled |= (value >= target) | _refutes(upper, target, eps)

    # stages 3-5, one row at a time
    steps = np.zeros(T, dtype=int)
    drawn = np.zeros(T, dtype=int)
    for t in np.flatnonzero(~settled):
        run = _Bound(target[t], eps, value[t], upper[t], slack[t], samples[t])
        m = n[t]
        if line is not None:
            ga, ep, off, r = line
            _line_rest(run, cs[t, :m], ga[t, :m], ep[t, :m], off[t, :m], r[t],
                       heights, fam == "su2", budget, seeds(t))
        elif sphere[t]:
            _sphere_rest(run, cs[t, :m], ws[t, :m], anchors[:, 3:] / k,
                         budget, seeds(t))
        else:
            _strip_rest(run, cs[t, :m], sfreq[t, :m], pfreq[t, :m], k, box,
                        np.column_stack([anchors[:, :3] @ axis[t],
                                         anchors[:, 3:] @ axis[t]]),
                        budget, seeds(t))
        value[t], upper[t], samples[t] = run.value, run.upper, run.samples
        steps[t], stage[t], drawn[t] = run.steps, run.stage, run.drawn
    return SupEstimate(value, samples, steps, stage, drawn, upper)


def orbit_sup(spec, Zs, cs, budget=10000, seed=0, box=None, anchors=None,
              target=None):
    """Lower estimate of sup over the orbit of |sum_j c_j e^{i<x, Z_j>}|,
    with a certified upper bound on it in `upper`.

    anchors: optional dual points always evaluated (localization points of
    a state under test); they keep the estimate sharp where the attaining
    point is known a priori.

    seed: anything np.random.default_rng accepts; a Generator is drawn from
    in place.

    target: optional early-exit threshold.  The stages (module docstring)
    run in order of cost and the search stops after the first one whose
    running lower bound reaches the target, or whose upper bound lies
    below it by more than the `margin` tolerance; estimates stay valid
    lower bounds either way, and `stage` records where the search stopped.

    The search is the one quantum_check runs on its stacks of tuples, on a
    stack of one.
    """
    if not groups.commuting(Zs):
        raise ValueError("tuple does not commute")
    est = _sup_rows(
        spec, np.stack([Z.coords for Z in Zs])[None],
        np.asarray(cs, dtype=complex)[None], np.array([len(Zs)]),
        np.array([w.coords for w in anchors or []], dtype=float),
        np.inf if target is None else target, budget, lambda t: seed,
        DEFAULT.box_radius if box is None else box, DEFAULT.margin)
    return SupEstimate(float(est.value[0]), int(est.samples[0]),
                       int(est.ascent_steps[0]), int(est.stage[0]),
                       int(est.drawn[0]), float(est.upper[0]))

# ---------------------------------------------------------------------------
# the sup-inequality check

# quantum_check draws, evaluates and settles its trials this many at a time
BLOCK = 256


def _key(seed, kind, index):
    """The seed sequence of one stream of a check: kind 0 draws the tuples
    of block `index`, kind 1 the stage-5 draws of trial `index`."""
    return np.random.SeedSequence(seed, spawn_key=(kind, index))


def _canonical_probes(spec):
    """Deterministic first trials, as (coordinates (2, dim), coefficients)
    pairs.  The zero/half-turn-center pair refutes the constant state on
    any family whose orbit sits off the origin.  On SU(2) the pair
    (0, tau e3) with c = (1, e^{-4 i tau}) / 2 and tau = pi / (4 + lambda)
    has orbit sup |cos(tau (lambda - 4) / 2)|, at height lambda, while a
    highest weight j gives |cos(tau (j - 4) / 2)|: it refutes every spin
    j > lambda (2j <= 8)."""
    family = spec.family
    ones = np.array([1.0, 1.0], dtype=complex)
    probes = []
    if family in ("heisenberg", "bargmann"):
        Z = np.zeros((2, spec.dim))
        Z[1, 0] = np.pi
        probes.append((Z, ones))
    if family == "heisenberg":
        probes.append((np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), ones))
    if family == "euclid":
        probes.append((np.array([[0, 0, 0, 0, 0, 1.0], [0, 0, 0, 0, 0, -1.0]]),
                       np.array([1.0, -1.0], dtype=complex)))
    if family == "su2":
        tau = np.pi / (4.0 + spec.params["lam"])
        probes.append((np.array([[0.0, 0.0, 0.0], [0.0, 0.0, tau]]),
                       np.array([0.5, 0.5 * np.exp(-4j * tau)])))
    if family == "torus":
        half = np.full(spec.dim, np.pi)
        probes.append((np.array([half, -half]), ones))
    return probes


def _draw_block(spec, rng, n_max, width):
    """BLOCK commuting tuples from the family whitelist: (BLOCK, width, dim)
    algebra coordinates and (BLOCK, width) coefficients, zero past each
    tuple's n terms (n uniform in 1..n_max)."""
    shape = (BLOCK, width)
    n = rng.integers(1, n_max + 1, BLOCK)

    def zero_or(p, lo, hi):
        """Each term 0 with probability p, else uniform in [lo, hi)."""
        return np.where(rng.uniform(size=shape) < p, 0.0,
                        rng.uniform(lo, hi, shape))

    family = spec.family
    if family == "torus":
        C = rng.uniform(-3, 3, shape + (spec.dim,))
    elif family == "su2":
        C = rng.uniform(-4, 4, shape + (1,)) \
            * _unit(rng.standard_normal((BLOCK, 3)))[:, None]
    elif family == "heisenberg":
        theta = np.choose(rng.integers(0, 3, BLOCK),
                          [0.0, np.pi / 2, rng.uniform(0, np.pi, BLOCK)])
        mu = zero_or(0.3, -3, 3)
        C = np.stack([rng.uniform(-np.pi, np.pi, shape),
                      mu * np.cos(theta)[:, None],
                      mu * np.sin(theta)[:, None]], axis=-1)
    elif family == "bargmann":
        # half abelian-ideal tuples (no beta component), half boost lines
        ideal = rng.uniform(size=(BLOCK, 1, 1)) < 0.5
        al = rng.uniform(-np.pi, np.pi, shape)
        ga, ep = zero_or(0.3, -3, 3), zero_or(0.5, -2, 2)
        mu = zero_or(0.3, -3, 3)
        gh, eh = rng.uniform(-2, 2, (2, BLOCK, 1))
        C = np.where(ideal, np.stack([al, np.zeros(shape), ga, ep], axis=-1),
                     np.stack([al, mu, mu * gh, mu * eh], axis=-1))
    elif family == "euclid":
        # half pure translations, half screws about a common axis
        screws = rng.uniform(size=(BLOCK, 1, 1)) >= 0.5
        axis = _unit(rng.standard_normal((BLOCK, 3)))[:, None]
        s = zero_or(0.4, -np.pi, np.pi)[..., None]
        t = rng.uniform(-3, 3, shape + (1,))
        rate = rng.uniform(-2, 2, shape + (3,))
        C = np.where(screws, np.concatenate([s * axis, t * axis], axis=-1),
                     np.concatenate([np.zeros_like(rate), rate], axis=-1))
    else:
        raise groups.FamilyError(family)
    cs = rng.uniform(0, 1, shape) \
        * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    live = np.arange(width) < n[:, None]
    return np.where(live[..., None], C, 0.0), np.where(live, cs, 0.0), n


def _block_tuples(spec, n_max, seed, block):
    """Trials block * BLOCK onward of a check, as _draw_block gives them.
    Each block draws from its own keyed stream, so a trial's tuple does not
    depend on how many trials run; the canonical probes replace the first
    trials."""
    probes = _canonical_probes(spec)
    C, cs, n = _draw_block(spec, np.random.default_rng(_key(seed, 0, block)),
                           n_max, max([n_max] + [len(c) for _, c in probes]))
    if block == 0:
        for t, (Z, c) in enumerate(probes):
            C[t], cs[t], n[t] = 0.0, 0.0, len(c)
            C[t, :len(c)], cs[t, :len(c)] = Z, c
    return C, cs, n


def _state_anchors(state, spec):
    """The state's localization point as a (0 or 1, dim) stack: kept only
    when it lies on the orbit, since an anchor is an orbit point."""
    loc = state.localization or {}
    pts = np.array([loc[key] for key in ("x", "w") if key in loc],
                   dtype=float).reshape(-1, spec.dim)
    return pts[relation_residuals(spec, pts) <= DEFAULT.delta]


def _left_sides(state, C, cs):
    """|sum_j c_j m(exp Z_j)| for each tuple of the stack, summed as
    _signal sums."""
    return np.abs(_rsum(states.exp_values(state, C) * cs))


def _trials(state, spec, n_max, budget, seed, block, rows,
            eps=DEFAULT.margin):
    """The first `rows` trials of a block: their tuples (C, cs, n), left
    sides, and sup searches settled against those left sides with slack
    eps."""
    C, cs, n = (a[:rows] for a in _block_tuples(spec, n_max, seed, block))
    lhs = _left_sides(state, C, cs)
    first = block * BLOCK
    est = _sup_rows(spec, C, cs, n, _state_anchors(state, spec), lhs, budget,
                    lambda t: _key(seed, 1, first + t), DEFAULT.box_radius,
                    eps)
    return C, cs, n, lhs, est


def quantum_check(state, spec, trials=1000, n_max=3, budget=10000, seed=0,
                  eps=None):
    """Test |sum c_j m(exp Z_j)| <= sup over the orbit, over random
    whitelisted commuting tuples.  Reports the worst margin (sup lower
    bound minus left side), concrete witnesses for any failures, how many
    trials each search stage settled (`stages`) and how many budgeted draws
    were made (`samples_drawn`; `budget` is only the cap per trial).  Each
    witness carries the certified upper bound on its sup (`upper`) and
    whether that bound refutes it (`certified`: upper < lhs - eps);
    `certified_failures` counts those.  A trial whose upper bound refutes
    it is settled there, without the budgeted draws.

    Trials run BLOCK at a time as coordinate stacks: block b's tuples come
    from the stream keyed by (seed, b), every left side from one
    states.exp_values call, and stages 1-2 of the sup search from array
    code over the block; only the trials those leave unsettled are searched
    one by one, trial t's stage-5 draws from its own stream keyed by
    (seed, t).  So a trial does not depend on how many trials run, and
    different seeds run different trials.  Whitelisted tuples commute by
    construction and skip the `commuting` test that orbit_sup applies."""
    eps = DEFAULT.margin if eps is None else eps
    margins = []
    failures = []
    stages = np.zeros(len(STAGES), dtype=int)
    drawn = 0
    for block in range(-(-trials // BLOCK)):
        C, cs, n, lhs, est = _trials(state, spec, n_max, budget, seed, block,
                                     min(BLOCK, trials - block * BLOCK), eps)
        margin = est.value - lhs
        margins.extend(margin.tolist())
        stages += np.bincount(est.stage - 1, minlength=len(STAGES))
        drawn += int(np.sum(est.drawn))
        for t in np.flatnonzero(margin < -eps):
            failures.append({
                "trial": int(block * BLOCK + t),
                "Zs": C[t, :n[t]].tolist(),
                "cs": [[c.real, c.imag] for c in cs[t, :n[t]].tolist()],
                "lhs": float(lhs[t]),
                "rhs": float(est.value[t]),
                "margin": float(margin[t]),
                "upper": float(est.upper[t]),
                "certified": bool(est.upper[t] < lhs[t] - eps),
            })
    return {
        "state": state.kind,
        "family": spec.family,
        "trials": trials,
        "budget": budget,
        "samples_drawn": drawn,
        "stages": dict(zip(STAGES, stages.tolist())),
        "seed": seed,
        "worst_margin": min(margins) if margins else 0.0,
        "margins": margins,
        "failures": failures,
        "certified_failures": sum(f["certified"] for f in failures),
        "pass": not failures,
    }


def kostant_projection_check(lam, n_samples=100000, seed=0, axis=None):
    """Hausdorff distance between axis-projected sphere samples and the
    interval [-lam, lam]."""
    rng = np.random.default_rng(seed)
    axis = np.array([0.0, 0.0, 1.0]) if axis is None else \
        np.asarray(axis, float) / np.linalg.norm(axis)
    x = rng.standard_normal((n_samples, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    h = np.sort(lam * (x @ axis))
    gaps = np.diff(h, prepend=-lam, append=lam)
    return float(max(np.max(gaps) / 2.0, h[0] + lam, lam - h[-1], 0.0))
