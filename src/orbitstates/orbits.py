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
|sum_j c_j e^{i phi_j(x)}|):

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
     of the exact (gamma, eps) classes, and on a row of exactly two
     classes with equal eps the point p* where the two class sums align
     (the exact sup); the sphere mean sum c_j sinc|w_j| and the
     directions +-w_j/|w_j|; the per-s-class strip bound at the 256
     centres that stage 3 uses on the line, scaled to p in [-k, k];
  3  the centres of a fixed uniform partition of an axis-aligned box of
     chart coordinates: 256 cells of p in [-r, r] on the line, 6 faces x
     8 x 8 cells of the cube chart [-6, 6] x [-1, 1] on the sphere, 64 x 8
     cells of (l, p) in [-box, box] x [-k, k] on the strip;
  4  the refinement of that partition by a Lipschitz branch and bound
     (Piyavskii 1972; Shubert 1972).

The cube chart (`_cube`) projects the six faces of the cube [-1, 1]^3
radially onto the sphere and is 1-Lipschitz on each face; the partition's
edges include the face edges, so no cell spans two faces.

Every stage yields a true lower bound on the sup, so stopping once it
reaches the target is sound, and without a target every stage runs.  The
upper bound is tightened from values the stages compute anyway:

  1  sum_j |c_j| everywhere, and the value itself when it is exact;
  2  on the line over R, sum over the (gamma, eps) classes of
     |class sum of c_j e^{i off_j}|;
  3-4  on the SU(2) interval and the sphere, whose boxes cover the whole
     chart, the largest bound of the cells the branch and bound leaves
     open: a cell's centre value plus L times its half-diagonal, with L
     the signal's Lipschitz constant.

Each upper bound also carries ROUNDING * sum_j |c_j|, an allowance for the
rounding of the values evaluated on the orbit: a phase of size Phi is
evaluated to within a few ulps of Phi, so a value may exceed the exact sup
by about 1e-16 Phi sum_j |c_j|, and the allowance covers phases up to about
1e6 radians (the searched box reaches a few thousand).

One record (`_Bound`) holds a stack's bounds through all four stages, and
every stage settles its rows by one rule (`_Bound.settle`): a row is
settled once its value reaches the target, or once min(upper, top +
allowance) lies below the target by more than `eps`, where top bounds
the values the stage left unexplored (inf in stage 1 and after stage 2).
Where top bounds the whole chart (stage 2's class bound, stages 3 and 4
on the SU(2) interval and the sphere) it is stored in the upper bound.
The line over R and the strip are searched in a box that does not cover
them, so stages 3 and 4 certify no upper bound there: they stop once the
box cannot reach the target, which settles the verdict but not the sup.

The branch and bound always evaluates its whole first partition, prunes
cells only against the best value found and refines them in a fixed
order, so the points it evaluates never depend on the target: `budget`,
the cap on the evaluations of stage 4, and an early exit both run the
first rounds of the full search, and the estimate never falls as the
budget grows.  It keeps at most OPEN_MAX cells open: past that it drops
the cells of the lowest bounds, unsplit, and keeps their largest bound in
its upper bound, so a round's memory and work do not grow with the budget.
`SupEstimate.drawn` and the `samples_drawn` field of a `quantum_check`
report say how many stage-4 evaluations were made.

The search runs on stacks of tuples, padded to a common length with zero
terms: stages 1 to 3 are array code over the whole stack (stage 3 on
chunks of rows of at most GRID_CELLS cells, so its memory does not grow
with the stack), and stage 4 runs one tuple at a time on the few that
those leave unsettled.
`quantum_check` runs its trials BLOCK at a time: one draw of a block's
tuples from a stream keyed by (seed, block), one `states.exp_values` call
for their left sides, then the search.  The left sides and every value of
the signal go through one left-to-right reduction (`_rsum`), so a sum
that equals a localized state's left side in exact arithmetic equals it
in floating point too, and a row's values do not depend on the stack it
is searched in (the sphere's phases u . w_j are such a sum as well).
`orbit_sup` is the same search on a stack of one; it checks that its tuple
commutes, while drawn tuples commute by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import groups, states
from .tolerances import DEFAULT

BATCH = 8192         # stage 4 splits this many cells at a time
OPEN_MAX = 4 * BATCH  # and keeps at most this many cells open
GRID_CELLS = BATCH // 2  # stage 3 evaluates at most this many cells at once
ROUNDING = 1e-9      # upper bounds add ROUNDING * sum_j |c_j| (see above)
PHASE_MAX = 1e6      # the largest phase that ROUNDING covers, in radians

# the stage names of SupEstimate.stage (1-based) as quantum_check reports them
STAGES = ("anchor", "class_bound", "grid", "search")


@dataclass
class SupEstimate:
    """One search's result (the search over a stack keeps (T,) arrays)."""
    value: float
    samples: int         # orbit points evaluated, stage 4 included
    stage: int = 1       # the last stage run (the one that settled the row)
    drawn: int = 0       # stage-4 evaluations made (at most the budget)
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
    L.P = k s on euclid; |x| = lam on su2); 0 on a torus.  Each Euclid
    defect is relative to the size of the terms it cancels, max(1, k) and
    max(1, |L| |P|): the rounding of L.P grows like |L| |P|, and orbit
    samples reach |L| = k box_radius."""
    fam = spec.family
    if fam == "heisenberg":
        return np.abs(pts[:, 0] - 1.0)
    if fam == "bargmann":
        return np.maximum(np.abs(pts[:, 0] - 1.0),
                          np.abs(pts[:, 3] - 0.5 * pts[:, 1] ** 2))
    if fam == "euclid":
        k, s = spec.params["k"], spec.params["s"]
        L, P = pts[:, :3], pts[:, 3:]
        nP = np.linalg.norm(P, axis=1)
        return np.maximum(
            np.abs(nP - k) / max(1.0, k),
            np.abs(np.sum(L * P, axis=1) - k * s)
            / np.maximum(1.0, np.linalg.norm(L, axis=1) * nP))
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


def _partition(hi, counts):
    """The centres and half-widths of the uniform partition of the box
    [-hi, hi] into counts[i] cells along axis i."""
    half = np.asarray(hi, float) / counts
    axes = [h * (2 * np.arange(c) + 1 - c) for h, c in zip(half, counts)]
    centres = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return _frozen(centres.reshape(-1, len(counts))), _frozen(half)


# the first partitions of the search on unit charts, scaled per call: the
# line [-1, 1], the cube chart [-6, 6] x [-1, 1] (8 x 8 cells per face)
# and the strip [-1, 1]^2
_LINE_CELLS = _partition([1.0], [256])
_CUBE_CELLS = _partition([6.0, 1.0], [48, 8])
_STRIP_CELLS = _partition([1.0, 1.0], [64, 8])


class _Bound:
    """The one record of the sup search on a stack of T rows, which all
    four stages read and write: (T,) arrays of the lower bound `value`,
    the certified upper bound `upper`, the orbit points evaluated
    (`samples`), the stage-4 evaluations (`drawn`) and the last stage run
    (`stage`), with each row's `target` (inf: no early exit), the `margin`
    tolerance `eps` and each row's rounding allowance `slack`.  A method's
    `rows` index the stack (an array, a mask or one row)."""
    __slots__ = ("target", "eps", "value", "upper", "slack", "samples",
                 "drawn", "stage")

    def __init__(self, target, eps, value, upper, slack):
        self.target = target
        self.eps = eps
        self.value = value
        self.upper = upper
        self.slack = slack
        self.samples = np.zeros(len(value), dtype=int)
        self.drawn = np.zeros_like(self.samples)
        self.stage = np.ones_like(self.samples)

    def points(self, rows, vals):
        """Fold in the values at evaluated orbit points of the rows (the
        last axis of vals)."""
        self.value[rows] = np.maximum(self.value[rows], np.max(vals, axis=-1))
        self.samples[rows] += vals.shape[-1]

    def settle(self, rows, top=np.inf, compact=False):
        """The rule every stage applies after an evaluation, with `top` a
        bound on the values the stage has left unexplored (inf: none): the
        rows' bound is min(upper, top + slack), and when top covers the
        whole chart (`compact`) it is stored in `upper`.  True where the
        value reaches the target or that bound lies below it by more than
        eps."""
        cap = np.minimum(self.upper[rows], top + self.slack[rows])
        if compact:
            self.upper[rows] = cap
        target = self.target[rows]
        return (self.value[rows] >= target) \
            | (cap < target - self.eps) & (target < np.inf)


def _cube(X):
    """Unit vectors at the rows (x, y) of the cube chart [-6, 6] x [-1, 1]:
    face f = floor((x + 6) / 2) is the face u_i = -1 (f even) or +1 (f odd)
    of [-1, 1]^3, i = f // 2, with (u_{i+1}, u_{i+2}) = (x - 2f + 5, y)
    (indices mod 3), projected radially onto the sphere.  On a face the
    map is 1-Lipschitz, since off the unit ball radial projection is the
    metric projection onto it."""
    f = np.clip(np.floor((X[:, 0] + 6.0) / 2.0), 0, 5).astype(int)
    i, rows = f // 2, np.arange(len(X))
    U = np.empty((len(X), 3))
    U[rows, i] = 2.0 * (f % 2) - 1.0
    U[rows, (i + 1) % 3] = X[:, 0] - (2.0 * f - 5.0)
    U[rows, (i + 2) % 3] = X[:, 1]
    return _unit(U)


# Each chart takes the terms of one row ((W,) arrays, r a number) or of a
# stack of rows ((R, W) arrays, r (R,)) and returns the signal at chart
# points, the first partition's centres and half-widths, and the signal's
# Lipschitz constant on the chart, one per row.  The line's partition
# scales with r, so on a stack its points are per row, (R, cells, 1); the
# sphere's and the strip's are shared, (cells, 2).

def _line_chart(cs, ga, ep, off, r):
    """The signal on the line chart (phases p ga_j - p^2 ep_j / 2 + off_j),
    the first partition of p in [-r, r] and the signal's Lipschitz constant
    there, L = sum_j |c_j| (|ga_j| + r |ep_j|)."""
    r = np.asarray(r)[..., None]
    lip = np.sum(np.abs(cs * ga) + r * np.abs(cs * ep), axis=-1)
    cs, ga, ep, off = (a[..., None, :] for a in (cs, ga, ep, off))
    return (lambda P: _signal(P * (ga - 0.5 * P * ep) + off, cs),
            r[..., None] * _LINE_CELLS[0], r * _LINE_CELLS[1], lip)


def _sphere_chart(cs, ws):
    """The signal on the unit sphere (phases u . w_j, summed left to right)
    through the cube chart, its first partition and L = sum_j |c_j| |w_j|."""
    lip = np.sum(np.abs(cs) * np.linalg.norm(ws, axis=-1), axis=-1)
    cs, ws = cs[..., None, :], ws[..., None, :, :]
    return (lambda X: _signal(_rsum(_cube(X)[:, None] * ws), cs),
            *_CUBE_CELLS, lip)


def _strip_chart(cs, sfreq, pfreq, k, box):
    """The signal on the strip (phases s_j l + t_j p), the first partition
    of (l, p) in [-box, box] x [-k, k] and L = sum_j |c_j| |(s_j, t_j)|."""
    lip = np.sum(np.abs(cs) * np.hypot(sfreq, pfreq), axis=-1)
    cs, sfreq, pfreq = (a[..., None, :] for a in (cs, sfreq, pfreq))
    return (lambda X: _signal(X[:, :1] * sfreq + X[:, 1:] * pfreq, cs),
            _STRIP_CELLS[0] * (box, k), _STRIP_CELLS[1] * (box, k), lip)


def _best_first(bound, k):
    """The indices, ascending, of the k largest bounds, equal bounds taken
    in index order."""
    if k >= len(bound):
        return np.arange(len(bound))
    cut = np.partition(bound, len(bound) - k)[len(bound) - k]
    take = bound > cut
    take[np.flatnonzero(bound == cut)[:k - np.count_nonzero(take)]] = True
    return np.flatnonzero(take)


def _grid(run, rows, value, centre, half, lip, compact):
    """Stage 3 on rows of run, of which value, centre, half and lip are the
    chart: the signal at every centre of the chart's first partition,
    folded into run.  A cell's bound is its centre value plus lip times its
    half-diagonal.  Returns the values (..., cells) and whether each row is
    settled (_Bound.settle)."""
    run.stage[rows] = 3
    vals = value(centre)
    run.points(rows, vals)
    bound = vals + (lip * np.linalg.norm(half, axis=-1))[..., None]
    return vals, run.settle(
        rows, np.maximum(np.max(bound, axis=-1), run.value[rows]), compact)


def _branch_and_bound(run, t, value, centre, half, lip, vals, budget,
                      compact):
    """Stage 4 on row t of run, which stage 3 left open: a Lipschitz branch
    and bound of the signal `value` over the box tiled by the cells of the
    chart's first partition, with centres `centre`, half-widths `half` and
    values `vals` (stage 3's, which run holds), on each of which it is
    lip-Lipschitz.

    Each round halves the open cells with the BATCH largest bounds (equal
    bounds taken in a fixed order) across their longest side and settles
    the row as _Bound.settle says; before each round every cell whose
    bound does not exceed the best value found is pruned, and past
    OPEN_MAX open cells those of the lowest bounds (equal bounds in the
    same order) are dropped, their largest bound `dropped` counting as an
    open bound from then on.  No step reads the target, so a run that
    stops early or has a smaller budget (the cap on the evaluations made
    here, run.drawn[t]) runs the first rounds of the full run, the last of
    them perhaps on fewer of its cells.  When `compact`, the box is the
    whole chart, so the largest open bound (or the best value, which
    bounds every pruned cell) bounds the sup from above.  All cells of one
    depth have the same half-widths, half[depth]."""
    run.stage[t] = 4
    half = [np.asarray(half, float)]
    depth = np.zeros(len(centre), dtype=int)
    bound = vals + lip * np.linalg.norm(half, axis=1)[depth]
    dropped = -np.inf
    while True:
        live = np.flatnonzero(bound > run.value[t])
        if len(live) > OPEN_MAX:
            sel = _best_first(bound[live], OPEN_MAX)
            dropped = max(dropped, np.max(np.delete(bound[live], sel)))
            live = live[sel]
        # np.take: a row gather several times faster than indexing
        centre = np.take(centre, live, axis=0)
        depth, bound = depth[live], bound[live]
        k = min(BATCH, len(bound), (budget - run.drawn[t]) // 2)
        if k <= 0:
            return
        idx = _best_first(bound, k)
        dep = depth[idx]
        if dep.max() + 1 == len(half):
            h = half[-1].copy()
            h[np.argmax(h)] *= 0.5
            half.append(h)
        H = np.array(half)
        c, step = np.take(centre, idx, axis=0), (H[:-1] - H[1:])[dep]
        kids = np.stack([c - step, c + step], axis=1).reshape(-1, H.shape[1])
        dep = np.repeat(dep + 1, 2)
        vals = value(kids)
        run.points(t, vals)
        run.drawn[t] += len(kids)
        bound[idx] = -np.inf            # a split cell leaves the list
        centre = np.concatenate([centre, kids])
        depth = np.concatenate([depth, dep])
        bound = np.concatenate(
            [bound, vals + lip * np.linalg.norm(half, axis=1)[dep]])
        if run.settle(t, max(np.max(bound), run.value[t], dropped), compact):
            return


# ---------------------------------------------------------------------------
# the staged search on stacks of tuples

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
    return np.abs(_rsum(groups.expi(phases) * cs))


def _class_sums(same, P):
    """sum_k [k ~ j] P_k over the last axis of P, stacked over the terms j
    along a new leading axis, where same[r, j] marks the terms of row r in
    the class of term j: the sum of one class is the full-length _rsum
    with the other terms zeroed."""
    return np.array([_rsum(np.where(same[:, j], P, 0.0))
                     for j in range(same.shape[-1])])


def _directions(ws):
    """The directions +-w_j/|w_j| as (..., 2W, 3) rows, and which of them
    are defined (|w_j| > 1e-12)."""
    nw = np.linalg.norm(ws, axis=-1, keepdims=True)
    ok = nw[..., 0] > 1e-12
    u = ws / np.where(ok[..., None], nw, 1.0)
    return np.concatenate([u, -u], axis=-2), np.concatenate([ok, ok], axis=-1)


def _sup_rows(spec, C, cs, n, anchors, target, budget, box):
    """The staged sup search on a stack of tuples, kept in one _Bound
    record from the first stage to the last.

    Row t is the tuple of algebra coordinates C[t, :n[t]] (C is
    (T, W, dim)) with coefficients cs[t, :n[t]] (cs is 0 on the padding),
    searched against target[t] (inf: no early exit): every stage settles
    its rows by _Bound.settle, once the lower bound reaches the target or
    the upper bound lies below target[t] - eps, eps the `margin`
    tolerance.  anchors is an (A, dim) stack of dual points, and budget
    caps each row's stage-4 evaluations.  Stages 1 to 3 run on every row
    at once (stage 3 on chunks of rows), stage 4 on each row they leave
    unsettled.  Returns the record's arrays as a SupEstimate of (T,)
    arrays."""
    fam = spec.family
    T, W = cs.shape
    rows = np.arange(T)
    anchors = np.reshape(anchors, (-1, C.shape[-1]))
    # stage 1: anchors, the SU(2) weight heights, and the exact value of
    # one-term tuples and of the tuples whose phases are constant
    total = _rsum(np.abs(cs))
    slack = ROUNDING * total
    run = _Bound(np.broadcast_to(np.asarray(target, float), (T,)),
                 DEFAULT.margin, np.where(n == 1, np.abs(cs[:, 0]), 0.0),
                 total + slack, slack)
    if len(anchors):
        run.points(rows, _signal(groups.pairing_coords(
            fam, anchors[:, None], C[:, None]), cs[:, None]))
    line = sphere = None
    fixed = np.zeros(T, dtype=bool)      # constant phases: the sup is exact
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
        run.points(rows, _signal(heights[:, None] * om[:, None], cs[:, None]))
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
        run.points(fixed, _signal(phase[fixed], cs[fixed])[:, None])
    exact = (n == 1) | fixed
    run.upper[exact] = run.value[exact] + slack[exact]

    # stage 2: the analytic class bounds
    open_ = rows[~(exact | run.settle(rows))]
    run.stage[open_] = 2
    if fam in ("heisenberg", "bargmann"):
        # stationary phase: the long-run p-mean keeps exactly the terms of
        # one (ga, ep) class and lower-bounds the sup over R, and the sum
        # of the class sums' moduli, each class taken once by its first
        # member, bounds it from above.  Classes use exact float equality,
        # so deliberately drawn repeats (a shared frequency 0, say) group
        ga, ep, off = (a[open_] for a in line[:3])
        same = (ga[:, :, None] == ga[:, None]) \
            & (ep[:, :, None] == ep[:, None])
        sums = _class_sums(same, groups.expi(off) * cs[open_])
        mods = np.abs(sums)
        run.value[open_] = np.maximum(run.value[open_], np.max(mods, axis=0))
        first = ~np.any(np.tril(same, -1), axis=-1).T
        # the class bound holds on all of R, so it is stored in upper
        done = run.settle(open_, np.sum(np.where(first, mods, 0.0), axis=0),
                          True)
        # on the rows still open with exactly two classes, of equal ep,
        # |A_1 e^{i p ga_1} + A_2 e^{i p ga_2}| reaches its sup
        # |A_1| + |A_2| at p* = (arg A_1 - arg A_2) / (ga_2 - ga_1);
        # p* is skipped where a phase there exceeds what ROUNDING covers
        first &= np.arange(W)[:, None] < n[open_]
        two = np.flatnonzero((np.sum(first, axis=0) == 2) & ~done)
        j1 = np.argmax(first[:, two], axis=0)
        j2 = W - 1 - np.argmax(first[::-1, two], axis=0)
        eq = ep[two, j1] == ep[two, j2]
        two, j1, j2 = two[eq], j1[eq], j2[eq]
        p = np.angle(sums[j1, two] * np.conj(sums[j2, two])) \
            / (ga[two, j2] - ga[two, j1])
        ph = p[:, None] * (ga[two] - 0.5 * p[:, None] * ep[two]) + off[two]
        ok = np.max(np.abs(ph), axis=1, initial=0.0) <= PHASE_MAX
        sel = open_[two[ok]]
        run.points(sel, _signal(ph[ok], cs[sel])[:, None])
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
        run.value[sel] = np.maximum(
            run.value[sel], np.maximum(mean, np.max(dv * ok, axis=1)))
        run.samples[sel] += np.sum(ok, axis=1)
        # per-s-frequency class bound: sup_{l,p} >= sup_p |mean_l of class|,
        # and the l-mean of a class is a line in p, bounded here at the
        # centres of the line's first partition
        sel = open_[~sphere[open_]]
        s = sfreq[sel]
        p = k * _LINE_CELLS[0][:, :, None]
        run.value[sel] = np.maximum(run.value[sel], np.max(np.abs(_class_sums(
            s[:, :, None] == s[:, None],
            groups.expi(p * pfreq[sel]) * cs[sel])), axis=(0, 1)))
    open_ = open_[~run.settle(open_)]

    # stage 3 on the open rows of each chart, GRID_CELLS cells at a time,
    # then stage 4 on each row it leaves open; the SU(2) interval and the
    # sphere are searched whole.  chart(rows, w) is the chart of the rows'
    # first w terms (a row's trailing zero terms change none of its values)
    if line is not None:
        ga, ep, off, r = line
        parts = [(open_, len(_LINE_CELLS[0]), fam == "su2",
                  lambda t, w: _line_chart(cs[t, :w], ga[t, :w], ep[t, :w],
                                           off[t, :w], r[t]))]
    elif fam == "euclid":
        parts = [(open_[sphere[open_]], len(_CUBE_CELLS[0]), True,
                  lambda t, w: _sphere_chart(cs[t, :w], ws[t, :w])),
                 (open_[~sphere[open_]], len(_STRIP_CELLS[0]), False,
                  lambda t, w: _strip_chart(cs[t, :w], sfreq[t, :w],
                                            pfreq[t, :w], k, box))]
    else:
        parts = []                       # a torus row is exact
    for rows_, cells, compact, chart in parts:
        per = max(1, GRID_CELLS // cells)
        for chunk in (rows_[i:i + per] for i in range(0, len(rows_), per)):
            vals, done = _grid(run, chunk, *chart(chunk, np.max(n[chunk])),
                               compact)
            for i in np.flatnonzero(~done):
                t = chunk[i]
                _branch_and_bound(run, t, *chart(t, n[t]), vals[i], budget,
                                  compact)
    return SupEstimate(run.value, run.samples, run.stage, run.drawn,
                       run.upper)


def orbit_sup(spec, Zs, cs, budget=10000, box=None, anchors=None,
              target=None):
    """Lower estimate of sup over the orbit of |sum_j c_j e^{i<x, Z_j>}|,
    with a certified upper bound on it in `upper`, for the rows Z_j of a
    (n, dim) stack Zs of algebra coordinates.

    anchors: an optional (A, dim) stack of dual points always evaluated
    (localization points of a state under test); they keep the estimate
    sharp where the attaining point is known a priori.

    budget: the cap on the evaluations of stage 4, the refinement rounds
    of the branch and bound.

    target: optional early-exit threshold.  The stages (module docstring)
    run in order of cost and the search stops after the first one whose
    running lower bound reaches the target, or whose upper bound lies
    below it by more than the `margin` tolerance; estimates stay valid
    lower bounds either way, and `stage` records where the search stopped.

    The search is the one quantum_check runs on its stacks of tuples, on a
    stack of one.
    """
    Zs = np.asarray(Zs, dtype=float)
    if not groups.commuting(spec.family, Zs):
        raise ValueError("tuple does not commute")
    est = _sup_rows(
        spec, Zs[None], np.asarray(cs, dtype=complex)[None],
        np.array([len(Zs)]),
        np.array([] if anchors is None else anchors, dtype=float),
        np.inf if target is None else target, budget,
        DEFAULT.box_radius if box is None else box)
    return SupEstimate(float(est.value[0]), int(est.samples[0]),
                       int(est.stage[0]), int(est.drawn[0]),
                       float(est.upper[0]))

# ---------------------------------------------------------------------------
# the sup-inequality check

# quantum_check draws, evaluates and settles its trials this many at a time
BLOCK = 256


def _key(seed, block):
    """The seed sequence from which a check draws the tuples of `block`."""
    return np.random.SeedSequence(seed, spawn_key=(0, block))


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
                       np.array([0.5, 0.5 * groups.expi(-4 * tau)])))
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
    C, cs, n = _draw_block(spec, np.random.default_rng(_key(seed, block)),
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


def _trials(state, spec, n_max, budget, seed, block, rows):
    """The first `rows` trials of a block: their tuples (C, cs, n), left
    sides, and sup searches settled against those left sides."""
    C, cs, n = (a[:rows] for a in _block_tuples(spec, n_max, seed, block))
    lhs = _left_sides(state, C, cs)
    est = _sup_rows(spec, C, cs, n, _state_anchors(state, spec), lhs, budget,
                    DEFAULT.box_radius)
    return C, cs, n, lhs, est


def quantum_check(state, spec, trials=1000, n_max=3, budget=10000, seed=0):
    """Test |sum c_j m(exp Z_j)| <= sup over the orbit, over random
    whitelisted commuting tuples.  Reports the worst margin (sup lower
    bound minus left side), concrete witnesses for any failures, how many
    trials each search stage settled (`stages`) and how many stage-4
    evaluations were made (`samples_drawn`; `budget` is only the cap per
    trial).  Each witness carries the certified upper bound on its sup
    (`upper`) and whether that bound refutes it (`certified`:
    upper < lhs - eps, eps the `margin` tolerance); `certified_failures`
    counts those.  A trial is settled at the first stage whose bounds
    decide it either way.

    Trials run BLOCK at a time as coordinate stacks: block b's tuples come
    from the stream keyed by (seed, b), every left side from one
    states.exp_values call, and stages 1-3 of the sup search from array
    code over the block; only the trials those leave unsettled are searched
    one by one, by a search that draws nothing.  So a trial does not depend
    on how many trials run, and different seeds run different trials.
    Whitelisted tuples commute by construction and skip the `commuting`
    test that orbit_sup applies."""
    eps = DEFAULT.margin
    margins = []
    failures = []
    stages = np.zeros(len(STAGES), dtype=int)
    drawn = 0
    for block in range(-(-trials // BLOCK)):
        C, cs, n, lhs, est = _trials(state, spec, n_max, budget, seed, block,
                                     min(BLOCK, trials - block * BLOCK))
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


# kostant_projection_check draws its sphere points this many at a time
KOSTANT_BLOCK = 8192


def kostant_projection_check(lam, n_samples=100000, seed=0, axis=None):
    """Hausdorff distance between axis-projected sphere samples and the
    interval [-lam, lam].  The points are drawn, normalized and projected
    KOSTANT_BLOCK at a time, with the generator calls of one draw of all
    of them, into one array of heights."""
    rng = np.random.default_rng(seed)
    axis = np.array([0.0, 0.0, 1.0]) if axis is None else \
        np.asarray(axis, float) / np.linalg.norm(axis)
    h = np.empty(n_samples)
    for lo in range(0, n_samples, KOSTANT_BLOCK):
        x = rng.standard_normal((min(KOSTANT_BLOCK, n_samples - lo), 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        np.multiply(lam, x @ axis, out=h[lo:lo + len(x)])
    h.sort()
    gaps = np.diff(h, prepend=-lam, append=lam)
    return float(max(np.max(gaps) / 2.0, h[0] + lam, lam - h[-1], 0.0))
