"""Spectral-measure estimation for states restricted to one-parameter
subgroups, atom/density classification, concentration checks, and the
prequantization mass-outside computation.

Convention: the restriction t -> m(exp tZ) is treated as the Fourier
transform int e^{+i omega t} dmu(omega) of a positive measure mu, so the
mass at omega is the long-run mean of m(exp tZ) e^{-i omega t}.

Sampling uses a midpoint grid on [-T, T]: t = 0 is never a node, so states
whose restriction vanishes off a null set average to exactly zero (the
Haar-on-the-Bohr-dual pattern), while the constant state still averages to
exactly one.  The t = 0 value is sampled separately and only used for the
pattern test.  Off-target leakage of a unit atom at distance d is bounded
by 1/(d T); tests that want exact atom masses pick T commensurate with the
atom spacing, which zeroes the discrete leakage identically.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import states
from .tolerances import DEFAULT

ATOM_FACTOR = 5.0  # an atom must exceed this multiple of the leakage bound
MAX_ATOMS = 64


@dataclass
class AtomEstimate:
    omega: float
    mass: complex
    leakage: float
    T: float
    N: int

    def __complex__(self):
        return complex(self.mass)

    def __abs__(self):
        return abs(self.mass)


@dataclass
class SpectralEstimate:
    atoms: list                    # [(omega, real mass)] sorted by omega
    density: tuple | None          # (omega grid, density values) or None
    classification: str            # atomic | uniform_density | haar_on_bohr | mixed
    total_mass_accounted: float
    leakage: float
    T: float
    N: int
    zero_value: complex = 1.0 + 0.0j
    imag_residue: float = 0.0


def _midpoints(T, N):
    dt = 2.0 * T / N
    return -T + (np.arange(N) + 0.5) * dt


def flow_values(state, Z, ts):
    """m(exp(t Z)) for an array of times."""
    ts = np.asarray(ts, dtype=float)
    return states.exp_values(state, np.multiply.outer(ts, Z.coords))


def _mean_at(y, ts, omega):
    return complex(np.mean(y * np.exp(-1j * omega * ts)))


def bohr_atoms(state, Z, omegas, T, N=2 ** 14):
    """Mass estimates at each frequency of omegas of the restriction along
    Z, from one evaluation of the flow on the midpoint grid."""
    ts = _midpoints(T, N)
    vals = flow_values(state, Z, ts)
    return [AtomEstimate(float(om), _mean_at(vals, ts, om), 1.0 / T,
                         float(T), int(N)) for om in omegas]


def bohr_atom(state, Z, omega, T=None, N=2 ** 14):
    """Mass estimate at frequency omega of the restriction along Z."""
    if T is None:
        T = 100.0 * max(2.0 * np.pi / abs(omega) if omega else 0.0, 1.0)
    return bohr_atoms(state, Z, [omega], T, N)[0]


def _lattice(T, N):
    """The frequency lattice pi n / T, n in [-N/2, N/2), ascending, and the
    map from samples on the midpoint grid to their Bohr means there."""
    n = np.arange(N)
    n[n >= N // 2] -= N
    phase = np.exp(1j * np.pi * n) * np.exp(-1j * np.pi * n / N)
    omegas = np.pi * n / T
    order = np.argsort(omegas)
    return omegas[order], lambda y: (phase * np.fft.fft(y) / N)[order]


def _lattice_means(y, T, N):
    """Bohr means on the frequency lattice pi n / T, n in [-N/2, N/2)."""
    omegas, means = _lattice(T, N)
    return omegas, means(y)


def atom_scan(state, Z, T, N=2 ** 14, max_atoms=MAX_ATOMS, samples=None):
    """Atoms of the restriction along Z, strongest first, until the largest
    Bohr mean on the lattice pi n / T is at most ATOM_FACTOR / T.  Each atom
    sits where bounded Brent maximizes |Bohr mean| within one lattice step
    of that peak; its mass is the mean there, subtracted before the next.
    The lattice is computed once per call.
    Returns [(omega, complex mass)] by omega, the residual and the times."""
    # imported here: scipy.optimize adds 0.1 s to every CLI start-up
    from scipy.optimize import minimize_scalar

    ts = _midpoints(T, N)
    y = flow_values(state, Z, ts) if samples is None else samples.copy()
    omegas, lattice_means = _lattice(T, N)
    thresh = ATOM_FACTOR / T
    atoms = []
    for _ in range(max_atoms):
        means = lattice_means(y)
        idx = int(np.argmax(np.abs(means)))
        if abs(means[idx]) <= thresh:
            break
        peak = minimize_scalar(
            lambda om: -abs(_mean_at(y, ts, om)), method="bounded",
            bounds=(omegas[idx] - np.pi / T, omegas[idx] + np.pi / T),
            options={"xatol": 1e-12 / T})
        om = float(peak.x)
        mass = _mean_at(y, ts, om)
        atoms.append((om, mass))
        y = y - mass * np.exp(1j * om * ts)
    atoms.sort(key=lambda a: a[0])
    return atoms, y, ts


def density_estimate(state, Z, T=None, N=2 ** 14):
    """Atoms plus Hann-windowed density of the restriction along Z."""
    T = 200.0 * np.pi if T is None else float(T)
    ts = _midpoints(T, N)
    vals = flow_values(state, Z, ts)
    zero_value = complex(states.exp_values(state, np.zeros_like(Z.coords)))

    if np.all(np.abs(vals) <= 1e-12) and abs(zero_value - 1.0) <= 1e-9:
        return SpectralEstimate(
            atoms=[], density=None, classification="haar_on_bohr",
            total_mass_accounted=0.0, leakage=1.0 / T, T=T, N=N,
            zero_value=zero_value)

    atoms_c, resid, _ = atom_scan(state, Z, T, N, samples=vals)
    imag_residue = max((abs(m.imag) for _, m in atoms_c), default=0.0)
    atoms = [(om, float(m.real)) for om, m in atoms_c]
    atom_mass = sum(max(m, 0.0) for _, m in atoms)

    window = 0.5 * (1.0 + np.cos(np.pi * ts / T))
    omegas, means = _lattice_means(resid * window, T, N)
    dens = np.real(means) * (T / np.pi)  # kernel mass-normalized: sum -> int
    density = (omegas, dens)
    dens_int = float(np.trapezoid(dens, omegas))

    total = atom_mass + max(dens_int, 0.0)
    if atom_mass >= 0.9:
        cls = "atomic"
    elif dens_int >= 0.9 and _flat_support(omegas, dens):
        cls = "uniform_density"
    else:
        cls = "mixed"
    if total < 0.9:
        cls = "mixed"
    return SpectralEstimate(
        atoms=atoms, density=density, classification=cls,
        total_mass_accounted=float(total), leakage=1.0 / T, T=T, N=N,
        zero_value=zero_value, imag_residue=float(imag_residue))


EDGE_TRIM = 2   # the Hann kernel's main-lobe half-width 2 pi / T, in lattice steps


def _flat_support(omegas, dens):
    """Whether the density is flat where it exceeds half its peak.  Each run
    above half the peak loses EDGE_TRIM lattice points at both ends first:
    the window smooths a band edge over that width, so a point on the edge
    says nothing about the plateau."""
    peak = float(np.max(dens))
    if peak <= 0:
        return False
    sel = np.concatenate([[False], dens > 0.5 * peak, [False]])
    ends = np.flatnonzero(sel[1:] != sel[:-1]).reshape(-1, 2)
    body = np.concatenate([dens[a + EDGE_TRIM:b - EDGE_TRIM] for a, b in ends])
    if body.size < 4:
        return False
    return float(np.max(body) - np.min(body)) <= 0.25 * peak


def concentration_check(estimate, target, eps=None):
    """Mass of the estimate outside the eps-neighborhood of the target set.

    target: {"type": "interval", "bounds": [lo, hi]}
            {"type": "point", "value": v}
            {"type": "finite", "values": [...]}
    """
    eps = DEFAULT.freq_eps if eps is None else eps

    def far(oms):
        """Which of the frequencies oms lie more than eps from the target."""
        oms = np.asarray(oms, dtype=float)
        if target["type"] == "interval":
            lo, hi = target["bounds"]
            dist = np.maximum(np.maximum(lo - oms, oms - hi), 0.0)
        elif target["type"] == "point":
            dist = np.abs(oms - target["value"])
        elif target["type"] == "finite":
            dist = np.min(np.abs(np.subtract.outer(oms, target["values"])), 1)
        else:
            raise ValueError("unknown target type %r" % (target["type"],))
        return dist > eps

    outside = sum(max(mass, 0.0) for (_, mass), out in
                  zip(estimate.atoms, far([om for om, _ in estimate.atoms]))
                  if out)
    if estimate.density is not None:
        omegas, dens = estimate.density
        mask = far(omegas)
        if np.any(mask):
            contrib = np.clip(dens, 0.0, None) * mask
            outside += float(np.trapezoid(contrib, omegas))
    passed = outside <= 1e-3 + estimate.leakage
    return {"mass_outside": float(outside), "pass": bool(passed)}


# ---------------------------------------------------------------------------
# prequantization counterexample

@dataclass
class PrequantScenario:
    kind: str                      # gaussian | grid | point
    center: tuple = (0.0, 0.0)
    sigma: float = 1.0
    p: np.ndarray | None = None
    k: np.ndarray | None = None
    density: np.ndarray | None = None


def gaussian_scenario(center=(0.0, 0.0), sigma=1.0):
    return PrequantScenario("gaussian", tuple(center), float(sigma))


def grid_scenario(p, k, density):
    return PrequantScenario("grid", p=np.asarray(p, float),
                            k=np.asarray(k, float),
                            density=np.asarray(density, float))


def point_scenario(center):
    return PrequantScenario("point", tuple(center))


class GridTooCoarse(ValueError):
    pass


def _classical_value(p, k):
    return np.sin(p) + (k - p) * np.cos(p)


def _mass_on_grid(p, k, density):
    """(total mass, mass outside) of a density on a uniform (p, k) grid."""
    dp = p[1] - p[0]
    dk = k[1] - k[0]
    outside = np.abs(_classical_value(p[:, None], k[None, :])) > 1.0
    return (float(np.sum(density)) * dp * dk,
            float(np.sum(density * outside)) * dp * dk)


def _gaussian_mass(center, sigma):
    """Mass outside and quad's summed error estimate for N(center, sigma^2 I).
    For fixed p the k with |sin p + (k - p) cos p| <= 1 form the interval
    with ends p + (+-1 - sin p) / cos p, so the mass is one integral over p
    of the p-density times both k-tails.  It is smooth between the zeros of
    cos p, which cut c0 +- 12 sigma (beyond lies under 1e-32 of the mass)
    into the pieces given to quad."""
    # imported here: scipy.integrate adds 0.1 s to every CLI start-up
    from scipy.integrate import quad

    c0, c1 = center
    w = sigma * math.sqrt(2.0)

    def integrand(p):
        s, c = math.sin(p), math.cos(p)
        lo, hi = sorted((p + (-1.0 - s) / c, p + (1.0 - s) / c))
        return (math.erfc((c1 - lo) / w) + math.erfc((hi - c1) / w)) \
            * math.exp(-((p - c0) / w) ** 2) / (2.0 * w * math.sqrt(math.pi))

    a, b = c0 - 12.0 * sigma, c0 + 12.0 * sigma
    n0 = math.ceil((a - math.pi / 2) / math.pi)
    n1 = math.floor((b - math.pi / 2) / math.pi)
    breaks = [a] + [math.pi * (n + 0.5) for n in range(n0, n1 + 1)] + [b]
    pieces = [quad(integrand, u, v) for u, v in zip(breaks, breaks[1:])]
    return sum(v for v, _ in pieces), sum(e for _, e in pieces)


def prequant_mass_outside(scenario):
    """Mass of |phi|^2 pushed outside [-1, 1] by (p,k) -> sin p + (k-p)cos p.

    point: 0 or 1.  grid: midpoint sums of a density that must integrate to
    1, against its half-resolution ([::2]) sums.  gaussian: the 1-D integral
    of _gaussian_mass, against quad's own error estimate.  GridTooCoarse is
    raised when either check exceeds 1e-3."""
    if scenario.kind == "point":
        p0, k0 = scenario.center
        return float(abs(_classical_value(p0, k0)) > 1.0)
    if scenario.kind == "grid":
        p, k, density = scenario.p, scenario.k, scenario.density
        total, full = _mass_on_grid(p, k, density)
        if abs(total - 1.0) > 1e-6:
            raise ValueError("density integrates to %.9f, not 1" % total)
        if p.size >= 8 and k.size >= 8:
            tot, out = _mass_on_grid(p[::2], k[::2], density[::2, ::2])
            coarse = out / max(tot, 1e-300)
            if abs(coarse - full) > 1e-3:
                raise GridTooCoarse(
                    "refinement moved the estimate by %.2e" % abs(coarse - full))
        return full
    if scenario.kind == "gaussian":
        value, err = _gaussian_mass(scenario.center, scenario.sigma)
        if err > 1e-3:
            raise GridTooCoarse("quadrature error estimate %.2e" % err)
        return value
    raise ValueError("unknown scenario kind %r" % (scenario.kind,))
