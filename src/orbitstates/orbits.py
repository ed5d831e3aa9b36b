"""Moment maps, orbit sampling, dual-pairing projections, and the
sup-inequality check run as a numerical optimization.

The check asks, for commuting tuples (Z_1..Z_n) and coefficients c_j,
whether |sum_j c_j m(exp Z_j)| stays below sup over orbit points x of
|sum_j c_j e^{i<x, Z_j>}|.  The searched sup UNDERestimates the true sup,
so a pass is certified (the left side stays below a value the orbit
attains), while a reported failure is not: a finer search might still find
a larger value on the orbit.

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
reaches the target is sound, and without a target every stage runs.
`budget` caps the draws of stage 5; re-running with a larger budget extends
the same stream of draws, so the best drawn value never falls as the budget
grows.  The estimate can: the ascents start from the best points found,
and a better start may climb to a lower local maximum.
`SupEstimate.drawn` and the `samples_drawn` field of a `quantum_check`
report say how many draws were actually made.
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

# the stage names of SupEstimate.stage (1-based) as quantum_check reports them
STAGES = ("anchor", "class_bound", "coarse_grid", "full_grid", "search")


@dataclass
class SupEstimate:
    value: float
    samples: int         # orbit points evaluated, draws included
    ascent_steps: int
    stage: int = 1       # the last stage run (the one that met any target)
    drawn: int = 0       # budgeted draws made (stage 5 only)

    def __float__(self):
        return float(self.value)


class OrbitSpec:
    __slots__ = ("family", "params")

    def __init__(self, family, params):
        self.family = family
        self.params = dict(params)

    def sample(self, rng, count, box=None):
        """Seeded dual points on the orbit (rows of coordinate vectors)."""
        box = DEFAULT.box_radius if box is None else box
        f = self.family
        if f == "heisenberg":
            pq = rng.uniform(-box, box, size=(count, 2))
            return np.column_stack([np.ones(count), pq])
        if f == "bargmann":
            pq = rng.uniform(-box, box, size=(count, 2))
            return np.column_stack([np.ones(count), pq,
                                    0.5 * pq[:, 0] ** 2])
        if f == "euclid":
            k, s = self.params["k"], self.params["s"]
            u = rng.standard_normal((count, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = rng.uniform(-box, box, size=(count, 3))
            r -= np.sum(r * u, axis=1, keepdims=True) * u
            L = k * np.cross(r, u) + s * u
            return np.hstack([L, k * u])
        if f == "su2":
            lam = self.params["lam"]
            x = rng.standard_normal((count, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            return lam * x
        if f == "torus":
            y = np.asarray(self.params["y"], dtype=float)
            return np.tile(y, (count, 1))
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


def moment(family, point, params=None):
    """Dual vector of a phase-space point."""
    params = params or {}
    if family == "heisenberg":
        p, q = point
        return groups.covector(family, [1.0, p, q])
    if family == "bargmann":
        p, q = point
        return groups.covector(family, [1.0, p, q, 0.5 * p * p])
    if family == "euclid":
        r, u = np.asarray(point[0], float), np.asarray(point[1], float)
        nu = np.linalg.norm(u)
        if abs(nu - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")
        r = r - (r @ u) * u
        k, s = params.get("k", 1.0), params.get("s", 0.0)
        return groups.covector(family, np.concatenate(
            [k * np.cross(r, u) + s * u, k * u]))
    if family == "su2":
        x = np.asarray(point, dtype=float)
        lam = params.get("lam", np.linalg.norm(x))
        n = np.linalg.norm(x)
        if n == 0:
            raise ValueError("zero point has no direction")
        return groups.covector(family, lam * x / n)
    raise groups.FamilyError(family)


def project(w, Zs):
    """Pairing values (<w, Z_1>, ...); the tuple must commute."""
    if not groups.commuting(Zs):
        raise ValueError("tuple does not commute")
    return tuple(groups.pairing(w, Z) for Z in Zs)


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


class _Bound:
    """The running certified lower bound of one orbit_sup call."""
    __slots__ = ("target", "value", "samples", "steps", "stage", "drawn")

    def __init__(self, target):
        self.target = target
        self.value = 0.0
        self.samples = self.steps = self.drawn = 0
        self.stage = 1

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
        return self.target is not None and self.value >= self.target

    def estimate(self):
        return SupEstimate(self.value, self.samples, self.steps, self.stage,
                           self.drawn)


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
    ASCENT_RESTARTS points, then ascend from the ASCENT_RESTARTS best of
    those and of the fixed points X.  Memory stays bounded by the chunk."""
    run.stage = 5
    keep_X, keep_v = [X], [vals]
    for D in chunks:
        v = chart.value(D)
        run.points(v)
        run.drawn += len(v)
        top = np.argsort(v)[::-1][:ASCENT_RESTARTS]
        keep_X.append(D[top])
        keep_v.append(v[top])
    X, vals = np.concatenate(keep_X), np.concatenate(keep_v)
    _, f, steps = _ascend(chart, X[np.argsort(vals)[::-1][:ASCENT_RESTARTS]])
    run.steps += steps
    run.bound(np.max(f))


def _sup_line(run, cs, ga, ep, off, r, budget, seed, anchors=(),
              interval=False):
    """sup of |sum c_j e^{i(p ga_j - p^2 ep_j / 2 + off_j)}| over p in
    [-r, r] when `interval` (the SU(2) heights), else over R, searched in
    [-r, r]."""
    chart = _line_chart(cs, ga, ep, off, r if interval else np.inf)
    anchors = np.asarray(anchors, float).reshape(-1, 1)
    avals = chart.value(anchors)
    run.points(avals)
    if run.met(1):
        return
    if not interval:
        # stationary phase: the long-run p-mean keeps exactly the terms of
        # one (ga, ep) class and lower-bounds the sup over R.  Classes use
        # exact float equality, so deliberately drawn repeats (a shared
        # frequency 0, say) group.  Each class sum is the full-length dot
        # with the other terms zeroed: the arithmetic of the left side of a
        # state localized on the class, so it meets that target exactly
        # rather than an ulp below it
        key = ga + 1j * np.asarray(ep)
        E = np.exp(1j * off)
        for k in np.unique(key):
            run.bound(abs(np.where(key == k, E, 0.0) @ cs))
    if run.met(2):
        return
    X = r * _LINE[:, None]
    vals = _grid_stages(run, X, chart.value)
    if vals is None or run.met(4):
        return
    rng = np.random.default_rng(seed)
    _search(run, chart, np.vstack([X, anchors]), np.concatenate([vals, avals]),
            _draws(budget, lambda n: rng.uniform(-r, r, size=(n, 1))))


def _sup_sphere(run, cs, ws, budget, seed, anchors=()):
    """sup over the unit sphere of |sum c_j e^{i u.w_j}|."""
    chart = _sphere_chart(cs, ws)
    anchors = np.asarray(anchors, float).reshape(-1, 3)
    avals = chart.value(anchors)
    run.points(avals)
    if run.met(1):
        return
    # sphere-uniform mean of the signal = sum c_j sinc(|w_j|)
    nw = np.linalg.norm(ws, axis=1)
    run.bound(abs(np.sum(cs * states.sinc(nw))))
    u = ws[nw > 1e-12] / nw[nw > 1e-12, None]
    dirs = np.stack([u, -u], axis=1).reshape(-1, 3)
    dvals = chart.value(dirs)
    run.points(dvals)
    if run.met(2):
        return
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
    rng = np.random.default_rng(seed)
    _search(run, chart, np.vstack([_SPHERE, dirs, anchors, _CIRCLES]),
            np.concatenate([vals, dvals, avals, cvals]),
            _draws(budget, lambda n: _unit(rng.standard_normal((n, 3)))))


def _sup_strip(run, cs, sfreq, pfreq, k, budget, seed, box, anchors=()):
    """sup over (l, p) in R x [-k, k] of |sum c_j e^{i(s_j l + t_j p)}|."""
    chart = _strip_chart(cs, sfreq, pfreq, k)
    anchors = np.asarray(anchors, float).reshape(-1, 2)
    avals = chart.value(anchors)
    run.points(avals)
    if run.met(1):
        return
    # per-s-frequency class bound: sup_{l,p} >= sup_p |mean_l of class|,
    # and the l-mean of a class is a line in p
    classes = [_line_chart(cs[sel], pfreq[sel], 0.0, 0.0)
               for sel in (sfreq == s for s in np.unique(sfreq))]

    def class_bound(ps):
        for line in classes:
            run.bound(np.max(line.value(ps)))

    p_line = k * _LINE[:, None]
    class_bound(p_line[::COARSE])
    if run.met(2):
        return
    X = _STRIP * (box, k)
    vals = _grid_stages(run, X, chart.value)
    if vals is None:
        return
    class_bound(p_line[_rest(GRID_1D)])
    if run.met(4):
        return
    rng = np.random.default_rng(seed)
    # (l, p) pairs in stream order, so a larger budget extends the draws
    _search(run, chart, np.vstack([X, anchors]), np.concatenate([vals, avals]),
            _draws(budget, lambda n: rng.uniform((-box, -k), (box, k), (n, 2))))


def _anchor_values(anchors, Zs, cs):
    return [abs(sum(c * np.exp(1j * groups.pairing(w, Z))
                    for c, Z in zip(cs, Zs))) for w in anchors]


def orbit_sup(spec, Zs, cs, budget=10000, seed=0, box=None, anchors=None,
              target=None):
    """Lower estimate of sup over the orbit of |sum_j c_j e^{i<x, Z_j>}|.

    anchors: optional dual points always evaluated (localization points of
    a state under test); they keep the estimate sharp where the attaining
    point is known a priori.

    seed: anything np.random.default_rng accepts; a Generator is drawn from
    in place.

    target: optional early-exit threshold.  The stages (module docstring)
    run in order of cost and the search stops after the first one whose
    running lower bound reaches the target; estimates stay valid lower
    bounds either way, and `stage` records where the search stopped.
    """
    if not groups.commuting(Zs):
        raise ValueError("tuple does not commute")
    box = DEFAULT.box_radius if box is None else box
    cs = np.asarray(cs, dtype=complex)
    anchors = anchors or []
    run = _Bound(target)
    run.points(_anchor_values(anchors, Zs, cs))
    if run.met(1):
        return run.estimate()
    if len(Zs) == 1:
        run.bound(abs(cs[0]))
        return run.estimate()

    fam = spec.family
    C = np.stack([Z.coords for Z in Zs])

    if fam == "heisenberg":
        al, be, ga = C[:, 0], C[:, 1], C[:, 2]
        # commuting <=> the (beta, gamma) rows are parallel
        lead = np.argmax(be ** 2 + ga ** 2)
        nrm = math.hypot(be[lead], ga[lead])
        if nrm < 1e-14:
            # pure center: <x, Z_j> = -alpha_j everywhere
            run.points([abs(np.exp(-1j * al) @ cs)])
            return run.estimate()
        d = np.array([be[lead], ga[lead]]) / nrm
        mu = be * d[0] + ga * d[1]
        # tau = p d[1] - q d[0]; over the (p, q) box it reaches
        # +- box (|d0| + |d1|)
        r = box * (abs(d[0]) + abs(d[1]))
        _sup_line(run, cs, mu, 0.0, -al, r, budget, seed)
    elif fam == "bargmann":
        al, be, ga, ep = C[:, 0], C[:, 1], C[:, 2], C[:, 3]
        if np.max(np.abs(be)) < 1e-14:
            # ideal tuple: phases p ga_j - p^2 ep_j / 2 - al_j, 1-D in p
            _sup_line(run, cs, ga, ep, -al, box, budget, seed)
        else:
            # boost line: directions (beta_j, gamma_j, eps_j) =
            # mu_j (1, gh, eh); u = p gh - q - p^2 eh / 2 sweeps R and the
            # phases are mu_j u - alpha_j
            _sup_line(run, cs, be, 0.0, -al, box, budget, seed)
    elif fam == "euclid":
        k = spec.params["k"]
        ax, rate = C[:, :3], C[:, 3:]
        if np.max(np.linalg.norm(ax, axis=1)) < 1e-14:
            anchor_pts = [w.coords[3:] / k for w in anchors]
            _sup_sphere(run, cs, k * rate, budget, seed, anchors=anchor_pts)
        else:
            lead = np.argmax(np.linalg.norm(ax, axis=1))
            n = ax[lead] / np.linalg.norm(ax[lead])
            # (l, p) of a dual point: its pairings with (n, 0) and (0, n)
            strip_anchors = [(w.coords[:3] @ n, w.coords[3:] @ n)
                             for w in anchors]
            _sup_strip(run, cs, ax @ n, rate @ n, k, budget, seed, box,
                       anchors=strip_anchors)
    elif fam == "su2":
        lam = spec.params["lam"]
        lead = np.argmax(np.linalg.norm(C, axis=1))
        nl = np.linalg.norm(C[lead])
        if nl < 1e-14:
            run.points([abs(np.sum(cs))])
            return run.estimate()
        om = C @ (C[lead] / nl)
        # the weight heights: where highest-weight states put their atoms
        extra = np.arange(-math.floor(2 * lam), math.floor(2 * lam) + 1) * 0.5
        extra = extra[np.abs(extra) <= lam + 1e-12]
        _sup_line(run, cs, om, 0.0, 0.0, lam, budget, seed, anchors=extra,
                  interval=True)
    elif fam == "torus":
        y = np.asarray(spec.params["y"], float)
        run.points([abs(sum(c * np.exp(1j * float(y @ Z.coords))
                            for c, Z in zip(cs, Zs)))])
    else:
        raise groups.FamilyError(fam)
    return run.estimate()

# ---------------------------------------------------------------------------
# the sup-inequality check

def _zero_alg(family):
    return groups.algebra(family, np.zeros(groups.ALGEBRA_DIM.get(family, 1)))


def _canonical_probes(spec):
    """Deterministic first trials.  The zero/half-turn-center pair refutes
    the constant state on any family whose orbit sits off the origin.  On
    SU(2) the pair (0, tau e3) with c = (1, e^{-4 i tau}) / 2 and
    tau = pi / (4 + lambda) has orbit sup |cos(tau (lambda - 4) / 2)|, at
    height lambda, while a highest weight j gives |cos(tau (j - 4) / 2)|:
    it refutes every spin j > lambda (2j <= 8)."""
    family = spec.family
    probes = []
    if family in ("heisenberg", "bargmann"):
        Z2 = _zero_alg(family).coords.copy()
        Z2[0] = np.pi
        probes.append(([_zero_alg(family),
                        groups.algebra(family, Z2)],
                       np.array([1.0, 1.0], dtype=complex)))
    if family == "heisenberg":
        probes.append(([groups.algebra(family, [0.0, 0.0, 1.0]),
                        groups.algebra(family, [0.0, 0.0, -1.0])],
                       np.array([1.0, 1.0], dtype=complex)))
    if family == "euclid":
        probes.append(([groups.algebra(family, [0, 0, 0, 0, 0, 1.0]),
                        groups.algebra(family, [0, 0, 0, 0, 0, -1.0])],
                       np.array([1.0, -1.0], dtype=complex)))
    if family == "su2":
        tau = np.pi / (4.0 + spec.params["lam"])
        probes.append(([_zero_alg(family),
                        groups.algebra(family, [0.0, 0.0, tau])],
                       np.array([0.5, 0.5 * np.exp(-4j * tau)])))
    if family == "torus":
        probes.append(([groups.algebra(family, [np.pi]),
                        groups.algebra(family, [-np.pi])],
                       np.array([1.0, 1.0], dtype=complex)))
    return probes


def _draw_tuple(family, rng, n_max):
    """One commuting tuple from the family whitelist."""
    n = int(rng.integers(1, n_max + 1))
    if family == "torus":
        return [groups.algebra(family, rng.uniform(-3, 3, 1)) for _ in range(n)]
    if family == "su2":
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        ts = rng.uniform(-4, 4, n)
        return [groups.algebra(family, t * v) for t in ts]
    if family == "heisenberg":
        theta = [0.0, np.pi / 2, rng.uniform(0, np.pi)][int(rng.integers(0, 3))]
        d = np.array([np.cos(theta), np.sin(theta)])
        out = []
        for _ in range(n):
            al = rng.uniform(-np.pi, np.pi)
            mu = 0.0 if rng.uniform() < 0.3 else rng.uniform(-3, 3)
            out.append(groups.algebra(family, [al, mu * d[0], mu * d[1]]))
        return out
    if family == "bargmann":
        if rng.uniform() < 0.5:
            # abelian-ideal tuple (no beta component)
            out = []
            for _ in range(n):
                al = rng.uniform(-np.pi, np.pi)
                ga = 0.0 if rng.uniform() < 0.3 else rng.uniform(-3, 3)
                ep = 0.0 if rng.uniform() < 0.5 else rng.uniform(-2, 2)
                out.append(groups.algebra(family, [al, 0.0, ga, ep]))
            return out
        gh, eh = rng.uniform(-2, 2), rng.uniform(-2, 2)
        out = []
        for _ in range(n):
            al = rng.uniform(-np.pi, np.pi)
            mu = 0.0 if rng.uniform() < 0.3 else rng.uniform(-3, 3)
            out.append(groups.algebra(family, [al, mu, mu * gh, mu * eh]))
        return out
    if family == "euclid":
        if rng.uniform() < 0.5:
            return [groups.algebra(
                family, np.concatenate([np.zeros(3), rng.uniform(-2, 2, 3)]))
                for _ in range(n)]
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        out = []
        for _ in range(n):
            s = 0.0 if rng.uniform() < 0.4 else rng.uniform(-np.pi, np.pi)
            t = rng.uniform(-3, 3)
            out.append(groups.algebra(
                family, np.concatenate([s * axis, t * axis])))
        return out
    raise groups.FamilyError(family)


def _state_anchors(state):
    loc = state.localization or {}
    if "x" in loc:
        return [groups.covector(state.family, loc["x"])]
    if "w" in loc:
        return [groups.covector(state.family, loc["w"])]
    return []


def _quantum_trial(state, spec, t, seed, n_max, budget, probes, anchors):
    # one stream per (seed, trial): the tuple is drawn first, then the
    # sup search's budgeted draws continue the same stream
    rng = np.random.default_rng([seed, t])
    if t < len(probes):
        Zs, cs = probes[t]
    else:
        Zs = _draw_tuple(spec.family, rng, n_max)
        r = rng.uniform(0, 1, len(Zs))
        ph = rng.uniform(0, 2 * np.pi, len(Zs))
        cs = r * np.exp(1j * ph)
    lhs = abs(states.exp_values(state, [Z.coords for Z in Zs]) @ cs)
    # the sup only needs to certify lhs <= rhs: stop searching at lhs
    est = orbit_sup(spec, Zs, cs, budget=budget, seed=rng, anchors=anchors,
                    target=lhs)
    return Zs, cs, lhs, est


def quantum_check(state, spec, trials=1000, n_max=3, budget=10000, seed=0,
                  eps=None):
    """Test |sum c_j m(exp Z_j)| <= sup over the orbit, over random
    whitelisted commuting tuples.  Reports the worst margin (sup estimate
    minus left side), concrete witnesses for any failures, how many trials
    each search stage settled (`stages`) and how many budgeted draws were
    made (`samples_drawn`; `budget` is only the cap per trial).  Trial t
    draws from np.random.default_rng([seed, t]), so trials are independent
    and different seeds run different trials."""
    eps = DEFAULT.margin if eps is None else eps
    probes = _canonical_probes(spec)
    anchors = _state_anchors(state)
    margins = []
    failures = []
    stages = dict.fromkeys(STAGES, 0)
    drawn = 0
    for t in range(trials):
        Zs, cs, lhs, est = _quantum_trial(state, spec, t, seed, n_max, budget,
                                          probes, anchors)
        stages[STAGES[est.stage - 1]] += 1
        drawn += est.drawn
        margin = est.value - lhs
        margins.append(margin)
        if margin < -eps:
            failures.append({
                "trial": t,
                "Zs": [list(map(float, Z.coords)) for Z in Zs],
                "cs": [[float(c.real), float(c.imag)] for c in cs],
                "lhs": float(lhs),
                "rhs": float(est.value),
                "margin": float(margin),
            })
    return {
        "state": state.kind,
        "family": spec.family,
        "trials": trials,
        "budget": budget,
        "samples_drawn": drawn,
        "stages": stages,
        "seed": seed,
        "worst_margin": float(min(margins)) if margins else 0.0,
        "margins": [float(m) for m in margins],
        "failures": failures,
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
