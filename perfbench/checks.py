"""Independent references and the checks the benchmark applies to reports.

Nothing in this file imports orbitstates.  Every reference is computed by a
second route from textbook formulas (Gaussian CDFs, ladder-operator spin
matrices, 2x2 matrix exponentials, Lipschitz bounds), so agreement with a
report is a real check and not the program compared with itself.

Each ``check_*`` function takes a parsed report (and whatever the benchmark
knows about the inputs it generated) and returns a list of problems; an
empty list means the report passed.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtr

# gates shared with the program's acceptance criteria
PSD_PER_N = -1e-9          # Gram minimum eigenvalue / n
INEQUALITY_SLACK = 1e-12   # Herglotz / Krein / Weil margins
GNS_RESIDUAL = 1e-9        # unitarity, recovery and reproducing defects
PREQUANT_TOL = 1e-3        # quadrature against the 1-D reference
ATOM_MASS_TOL = 1e-6       # spectral atom against the spin route
ATOM_FREQ_TOL = 1e-3       # atom position against m |Z|
MARGIN_EPS = 1e-6          # quantum_check slack
LHS_TOL = 1e-12            # recomputed left side of a witness
ATOM_FACTOR = 5.0          # detection floor is ATOM_FACTOR / T
COEFFICIENT_TOL = 1e-12    # induced coefficient against the closed form


# ---------------------------------------------------------------------------
# prequantization escape mass

def prequant_mass_outside(center=(0.0, 0.0), sigma=1.0, nodes=64, pieces=8,
                          radius=12.0):
    """P(|sin p + (k - p) cos p| > 1) for (p, k) ~ N(center, sigma^2 I).

    For fixed p with cos p != 0 the allowed k form the interval with ends
    p + (+-1 - sin p) / cos p, so the mass outside is a 1-D integral over p
    of two Gaussian tails.  The integrand is smooth between the zeros of
    cos p; composite Gauss-Legendre on those pieces converges to rounding.
    """
    c0, c1 = center
    lo, hi = c0 - radius * sigma, c0 + radius * sigma
    first = math.ceil((lo - math.pi / 2) / math.pi)
    last = math.floor((hi - math.pi / 2) / math.pi)
    breaks = [lo] + [math.pi / 2 + n * math.pi
                     for n in range(first, last + 1)] + [hi]
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a, b, pieces + 1)
        for u, v in zip(edges[:-1], edges[1:]):
            p = 0.5 * (u + v) + 0.5 * (v - u) * x
            s, c = np.sin(p), np.cos(p)
            ends = np.stack([p + (-1.0 - s) / c, p + (1.0 - s) / c])
            k_lo, k_hi = ends.min(axis=0), ends.max(axis=0)
            tails = ndtr((k_lo - c1) / sigma) + ndtr(-(k_hi - c1) / sigma)
            dens = np.exp(-0.5 * ((p - c0) / sigma) ** 2) \
                / (sigma * math.sqrt(2.0 * math.pi))
            total += 0.5 * (v - u) * float(np.sum(w * tails * dens))
    return total


# ---------------------------------------------------------------------------
# SU(2): spin route and matrix exponential

_SIGMA = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
          np.array([[0.0, -1.0j], [1.0j, 0.0]]),
          np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def spin_matrices(two_j):
    """(Jx, Jy, Jz) in the Jz eigenbasis ordered m = j, j-1, ..., -j."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    raise_diag = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    Jp = np.zeros((two_j + 1, two_j + 1))
    Jp[np.arange(two_j), np.arange(1, two_j + 1)] = raise_diag
    Jm = Jp.T
    return 0.5 * (Jp + Jm), (Jp - Jm) / 2j, np.diag(m)


def spin_atoms(two_j, Z):
    """{m: mass} of t -> m_j(exp tZ) for the highest-weight state.

    The restriction is <top| exp(i t |Z| n.J) |top>, so its atoms sit at
    omega = m |Z| with mass |<top|e_m>|^2 over the eigenvectors of n.J.
    """
    Z = np.asarray(Z, float)
    n = Z / np.linalg.norm(Z)
    Jx, Jy, Jz = spin_matrices(two_j)
    vals, vecs = np.linalg.eigh(n[0] * Jx + n[1] * Jy + n[2] * Jz)
    return {round(2.0 * v) / 2.0: float(abs(vecs[0, i]) ** 2)
            for i, v in enumerate(vals)}


def su2_highest_weight_value(two_j, Z):
    """(top-left entry of exp((i/2) Z.sigma))^(2j), exponential by expm."""
    X = 0.5j * sum(z * s for z, s in zip(Z, _SIGMA))
    return complex(expm(X)[0, 0]) ** two_j


# ---------------------------------------------------------------------------
# upper bounds on the orbit sup

def lipschitz_sup_bound(freqs, cs, lo, hi, target, pieces=2048,
                        max_rounds=48, max_intervals=1 << 16):
    """Upper bound on sup_{h in [lo, hi]} |sum_j c_j e^{i freqs_j h}|.

    Branch and bound with the Lipschitz constant L = sum |c_j| |freqs_j|:
    an interval of half-width r whose midpoint value is f bounds the sup
    on it by f + L r.  Intervals whose bound already lies below target are
    settled; the rest are halved.  Returns (bound, certified) where
    certified means bound < target.
    """
    freqs = np.asarray(freqs, float)
    cs = np.asarray(cs, complex)
    L = float(np.sum(np.abs(cs) * np.abs(freqs)))
    half = 0.5 * (hi - lo) / pieces
    mids = lo + (2.0 * np.arange(pieces) + 1.0) * half
    settled = -np.inf
    for _ in range(max_rounds):
        ub = np.abs(np.exp(1j * np.outer(mids, freqs)) @ cs) + L * half
        open_ = ub >= target
        if np.any(~open_):
            settled = max(settled, float(np.max(ub[~open_])))
        if not np.any(open_):
            return settled, True
        if 2 * np.count_nonzero(open_) > max_intervals:
            break
        half *= 0.5
        mids = np.concatenate([mids[open_] - half, mids[open_] + half])
    ub = np.abs(np.exp(1j * np.outer(mids, freqs)) @ cs) + L * half
    return max(settled, float(np.max(ub))), False


def orbit_sup_bound(family, Zs, cs, lam=None, target=np.inf):
    """(upper bound, certified) for the sup over the orbit of
    |sum_j c_j e^{i<x, Z_j>}|; certified means the bound is below target.

    su2: orbit points pair with the common direction v of the tuple as
    heights h in [-lam, lam]; the bound comes from Lipschitz branch and
    bound.  heisenberg / bargmann: the orbits sit at M = 1, so a central
    tuple has the constant value |sum c_j e^{-i alpha_j}|; otherwise the
    triangle bound sum |c_j| is used.
    """
    Zs = np.asarray(Zs, float)
    cs = np.asarray(cs, complex)
    if family == "su2":
        norms = np.linalg.norm(Zs, axis=1)
        lead = int(np.argmax(norms))
        if norms[lead] == 0.0:
            bound = float(abs(np.sum(cs)))
            return bound, bound < target
        freqs = Zs @ (Zs[lead] / norms[lead])
        return lipschitz_sup_bound(freqs, cs, -lam, lam, target)
    if family in ("heisenberg", "bargmann"):
        if np.all(Zs[:, 1:] == 0.0):
            bound = float(abs(np.exp(-1j * Zs[:, 0]) @ cs))
        else:
            bound = float(np.sum(np.abs(cs)))
        return bound, bound < target
    raise ValueError("no independent bound for family %r" % (family,))


# ---------------------------------------------------------------------------
# report checks

def _flag(problems, ok, message):
    if not ok:
        problems.append(message)


def check_pass(report):
    problems = []
    _flag(problems, report.get("pass") is True, "report pass is not true")
    return problems


def check_reproduce(report):
    problems = check_pass(report)
    res = report["results"]
    target = res["target"]
    bad = sorted(k for k, v in res["matrix"].items() if v is not True)
    _flag(problems, not bad, "%s: matrix entries false: %s" % (target, bad))
    d = res["details"]
    if target == "prequant-counterexample":
        for key, center in (("mass_outside", (0.0, 0.0)),
                            ("shifted_mass_outside", (0.0, 10.0))):
            ref = prequant_mass_outside(center)
            _flag(problems, abs(d[key] - ref) <= PREQUANT_TOL,
                  "%s %.9f vs 1-D reference %.9f" % (key, d[key], ref))
    for key, value in d.items():
        if key.endswith("min_eig_per_n"):
            _flag(problems, value >= PSD_PER_N, "%s = %g" % (key, value))
        elif key.endswith("_max_error"):
            _flag(problems, value <= COEFFICIENT_TOL,
                  "%s = %g" % (key, value))
        elif key.endswith("_worst_margin"):
            # inequality margins in bargmann-states, sup margins in
            # euclid-waves
            ok = value <= INEQUALITY_SLACK if target == "bargmann-states" \
                else value >= -MARGIN_EPS
            _flag(problems, ok, "%s = %g" % (key, value))
    return problems


def check_verify(report):
    problems = check_pass(report)
    res = report["results"]
    _flag(problems, res["min_eigenvalue_per_n"] >= PSD_PER_N,
          "min eigenvalue / n = %g" % res["min_eigenvalue_per_n"])
    ineq = res["inequalities"]
    for key in ("herglotz_margin", "krein_margin", "weil_margin"):
        _flag(problems, ineq[key] <= INEQUALITY_SLACK,
              "%s = %g" % (key, ineq[key]))
    return problems


def check_gns(report):
    problems = check_pass(report)
    res = report["results"]
    for key in ("worst_unitarity_residual", "worst_recovery_error",
                "reproducing_defect"):
        _flag(problems, res[key] <= GNS_RESIDUAL, "%s = %g" % (key, res[key]))
    _flag(problems, res["rank"] >= 1, "rank %r" % (res["rank"],))
    return problems


def check_su2_atoms(report, two_j, Z, T):
    """Atoms of the highest-weight state against the spin route: every
    reported atom sits at some m |Z| with the spin mass, and every spin atom
    above the detection floor is reported."""
    problems = check_pass(report)
    res = report["results"]
    _flag(problems, res["classification"] == "atomic",
          "classification %r, expected atomic" % (res["classification"],))
    want = spin_atoms(two_j, Z)
    speed = float(np.linalg.norm(Z))
    found = set()
    for om, mass in res["atoms"]:
        m = round(2.0 * om / speed) / 2.0
        if m not in want or abs(om - m * speed) > ATOM_FREQ_TOL:
            problems.append("atom at %.9g matches no weight" % om)
            continue
        found.add(m)
        _flag(problems, abs(mass - want[m]) <= ATOM_MASS_TOL,
              "atom m=%g mass %.9g vs spin route %.9g" % (m, mass, want[m]))
    floor = ATOM_FACTOR / T
    missed = sorted(m for m, w in want.items() if w > floor and m not in found)
    _flag(problems, not missed, "atoms above the floor not reported: %s"
          % (missed,))
    return problems


def check_single_atom(report, omega):
    """A character restriction: one atom of mass 1 at omega (both within
    the atom tolerance)."""
    problems = check_pass(report)
    res = report["results"]
    _flag(problems, res["classification"] == "atomic",
          "classification %r, expected atomic" % (res["classification"],))
    atoms = res["atoms"]
    _flag(problems, len(atoms) == 1
          and abs(atoms[0][0] - omega) <= ATOM_MASS_TOL
          and abs(atoms[0][1] - 1.0) <= ATOM_MASS_TOL,
          "atoms %r, expected [[%.9g, 1.0]]" % (atoms, omega))
    return problems


def check_uniform_density(report, density, edge):
    """sinc restriction: flat density 1/(2 edge) on [-edge, edge], no atoms."""
    problems = check_pass(report)
    res = report["results"]
    _flag(problems, res["classification"] == "uniform_density",
          "classification %r, expected uniform_density"
          % (res["classification"],))
    _flag(problems, res["atoms"] == [], "atoms %r, expected none"
          % (res["atoms"],))
    _flag(problems, abs(res["total_mass_accounted"] - 1.0) <= 0.02,
          "total mass %.6f" % res["total_mass_accounted"])
    om, dens = density
    inside = np.abs(om) < 0.8 * edge
    outside = np.abs(om) > 1.3 * edge
    _flag(problems, np.max(np.abs(dens[inside] - 0.5 / edge)) < 0.02 / edge,
          "density plateau is not 1/(2 edge)")
    _flag(problems, np.max(np.abs(dens[outside])) < 1e-3,
          "density outside the band")
    return problems


def check_certify(report, trials):
    problems = check_pass(report)
    res = report["results"]
    margins = res["margins"]
    _flag(problems, len(margins) == trials,
          "%d margins for %d trials" % (len(margins), trials))
    worst = min(margins) if margins else float("nan")
    _flag(problems, worst >= -MARGIN_EPS, "worst margin %g" % worst)
    _flag(problems, res["failures"] == [], "%d failures"
          % len(res["failures"]))
    return problems


def check_refute(report, trials, family, lam, closed_form):
    """A false inequality: every witness recomputes, its rhs stays below an
    independent upper bound on the sup, and at least one is certified
    (the bound lies below the left side)."""
    problems = []
    res = report["results"]
    _flag(problems, report.get("pass") is False, "report pass is not false")
    _flag(problems, len(res["margins"]) == trials,
          "%d margins for %d trials" % (len(res["margins"]), trials))
    failures = res["failures"]
    _flag(problems, bool(failures), "no failure witness")
    certified = 0
    for f in failures:
        cs = np.array([complex(a, b) for a, b in f["cs"]])
        Zs = np.asarray(f["Zs"], float)
        lhs = abs(sum(c * closed_form(Z) for c, Z in zip(cs, Zs)))
        _flag(problems, abs(lhs - f["lhs"]) <= LHS_TOL,
              "trial %d: lhs %.17g recomputes to %.17g"
              % (f["trial"], f["lhs"], lhs))
        _flag(problems, f["margin"] == f["rhs"] - f["lhs"]
              and f["margin"] < -MARGIN_EPS,
              "trial %d: inconsistent margin" % f["trial"])
        bound, cert = orbit_sup_bound(family, Zs, cs, lam=lam, target=lhs)
        _flag(problems, f["rhs"] <= bound + LHS_TOL,
              "trial %d: rhs %.17g above the upper bound %.17g"
              % (f["trial"], f["rhs"], bound))
        certified += cert
    _flag(problems, certified >= 1, "no certified witness")
    return problems
