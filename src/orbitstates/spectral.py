"""Spectral-measure estimation for states restricted to one-parameter
subgroups, atom/density classification, concentration checks, and the
prequantization mass-outside computation.

Convention: the restriction t -> m(exp tZ) is treated as the Fourier
transform int e^{+i omega t} dmu(omega) of a positive measure mu, so the
mass at omega is the long-run mean of m(exp tZ) e^{-i omega t}.

Sampling uses a midpoint grid on [-T, T] (N nodes, dt = 2T / N): t = 0 is
never a node, so states whose restriction vanishes off a null set average
to exactly zero (the Haar-on-the-Bohr-dual pattern), while the constant
state still averages to exactly one.  The t = 0 value is sampled
separately and only used for the pattern test.  On this grid the Bohr
means of an atom a at omega_k + x / dt are a sin(N d / 2) / (N sin(d / 2)),
d = x - 2 pi j / N, at lattice points k + j, so atom_scan reads x and a in
closed form from the peak and its larger neighbour (Quinn 1994, IEEE
Trans. Signal Process. 42(5); exact here).  Other atoms leak by at most
1 / (d T) at distance d; a T commensurate with the atom spacing puts every
atom on the lattice and zeroes that leakage.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import groups, states
from .tolerances import DEFAULT, gate

ATOM_FACTOR = 5.0  # an atom must exceed this multiple of the leakage bound
MAX_ATOMS = 64
T_DEFAULT = 200.0 * np.pi  # density_estimate's T when none is given


@dataclass
class AtomEstimate:
    omega: float
    mass: complex
    leakage: float


@dataclass
class SpectralEstimate:
    atoms: list                    # [(omega, real mass)] sorted by omega
    density: tuple | None          # (omega grid, density values) or None
    classification: str            # atomic | uniform_density | haar_on_bohr | mixed
    total_mass_accounted: float
    leakage: float
    T: float
    N: int
    samples: np.ndarray            # the flow on the midpoint grid of [-T, T]
    zero_value: complex = 1.0 + 0.0j
    imag_residue: float = 0.0

    def atom_at(self, omega):
        """Mass estimate at frequency omega from the estimate's samples."""
        return _means_at(self.samples, [omega], self.T)[0]


def _midpoints(T, N):
    dt = 2.0 * T / N
    return -T + (np.arange(N) + 0.5) * dt


def flow_values(state, Z, ts):
    """m(exp(t Z)) for an array of times and algebra coordinates Z."""
    ts = np.asarray(ts, dtype=float)
    return states.exp_values(state, np.multiply.outer(
        ts, np.asarray(Z, dtype=float)))


def _means_at(y, omegas, T):
    """Bohr means at the omegas of samples y on the grid of [-T, T]."""
    ts = _midpoints(T, len(y))
    return [AtomEstimate(float(om), complex(np.mean(y * groups.expi(-om * ts))),
                         1.0 / T) for om in omegas]


def bohr_atoms(state, Z, omegas, T, N=2 ** 14):
    """Mass estimates at each frequency of omegas of the restriction along
    Z, from one evaluation of the flow on the midpoint grid."""
    return _means_at(flow_values(state, Z, _midpoints(T, N)), omegas, T)


def bohr_atom(state, Z, omega, T, N=2 ** 14):
    """Mass estimate at frequency omega of the restriction along Z."""
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


def atom_scan(y, T):
    """Atoms of flow samples y on the midpoint grid of [-T, T], strongest
    first, until the largest Bohr mean on the lattice pi n / T is at most
    ATOM_FACTOR / T (at most MAX_ATOMS of them).  With r = Re(mean[k + s] /
    mean[k]) for the peak k and its larger neighbour k + s, the atom sits at
    omega_k + x / dt, x = 2 s atan2(r sin(pi / N), 1 + r cos(pi / N)), with
    mass mean[k] N sin(x / 2) / sin(N x / 2) (a ratio of sincs, 1 at x = 0)
    and is subtracted before the next.  Returns [(omega, complex mass)] by
    omega, the residual and the lattice (frequencies, samples -> means)."""
    N = len(y)
    ts = _midpoints(T, N)
    omegas, lattice_means = _lattice(T, N)
    thresh = ATOM_FACTOR / T
    atoms = []
    for _ in range(MAX_ATOMS):
        means = lattice_means(y)
        k = int(np.argmax(np.abs(means)))
        if abs(means[k]) <= thresh:
            break
        s = 1 if k == 0 or (k < N - 1
                            and abs(means[k + 1]) >= abs(means[k - 1])) else -1
        r = (means[k + s] / means[k]).real
        x = 2 * s * math.atan2(r * math.sin(math.pi / N),
                               1 + r * math.cos(math.pi / N))
        x = min(max(x, -math.pi / N), math.pi / N)
        om = float(omegas[k] + x * N / (2.0 * T))
        mass = complex(means[k] * np.sinc(x / (2 * np.pi))
                       / np.sinc(N * x / (2 * np.pi)))
        atoms.append((om, mass))
        y = y - mass * groups.expi(om * ts)
    atoms.sort(key=lambda a: a[0])
    return atoms, y, (omegas, lattice_means)


def density_estimate(state, Z, T=None, N=2 ** 14):
    """Atoms plus Hann-windowed density of the restriction along Z."""
    T = T_DEFAULT if T is None else float(T)
    ts = _midpoints(T, N)
    vals = flow_values(state, Z, ts)
    zero_value = complex(states.exp_values(state, np.zeros(np.shape(Z))))

    if np.all(np.abs(vals) <= DEFAULT.flow_zero) \
            and abs(zero_value - 1.0) <= DEFAULT.unit_value:
        return SpectralEstimate(
            atoms=[], density=None, classification="haar_on_bohr",
            total_mass_accounted=0.0, leakage=1.0 / T, T=T, N=N,
            samples=vals, zero_value=zero_value)

    atoms_c, resid, (omegas, lattice_means) = atom_scan(vals, T)
    imag_residue = max((abs(m.imag) for _, m in atoms_c), default=0.0)
    atoms = [(om, float(m.real)) for om, m in atoms_c]
    atom_mass = sum(max(m, 0.0) for _, m in atoms)

    window = 0.5 * (1.0 + np.cos(np.pi * ts / T))
    # kernel mass-normalized: sum -> int
    dens = np.real(lattice_means(resid * window)) * (T / np.pi)
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
        samples=vals, zero_value=zero_value, imag_residue=float(imag_residue))


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


def concentration_check(estimate, target):
    """The gate row of the estimate's mass outside the freq_eps-neighborhood
    of the target set: at most outside_mass plus the estimate's leakage.

    target: {"type": "interval", "bounds": [lo, hi]}
            {"type": "point", "value": v}
            {"type": "finite", "values": [...]}
    """
    def far(oms):
        """Which of the frequencies oms lie beyond freq_eps of the target."""
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
        return dist > DEFAULT.freq_eps

    outside = sum(max(mass, 0.0) for (_, mass), out in
                  zip(estimate.atoms, far([om for om, _ in estimate.atoms]))
                  if out)
    if estimate.density is not None:
        omegas, dens = estimate.density
        mask = far(omegas)
        if np.any(mask):
            contrib = np.clip(dens, 0.0, None) * mask
            outside += float(np.trapezoid(contrib, omegas))
    return gate(float(outside), "<=", "outside_mass", plus=estimate.leakage)


# ---------------------------------------------------------------------------
# prequantization counterexample

class GridTooCoarse(ValueError):
    pass


PREQUANT_NODES = 128   # n: each piece takes the n- and 2n-node rules

_erfc = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], kept after first use:
    leggauss(256) costs about 7 ms."""
    return np.polynomial.legendre.leggauss(n)


def prequant_mass_outside(center=(0.0, 0.0)):
    """Mass of N(center, I) pushed outside [-1, 1] by
    (p, k) -> sin p + (k - p) cos p.

    For fixed p the k with |sin p + (k - p) cos p| <= 1 form the interval
    with ends p + (+-1 - sin p) / cos p, so the mass is one integral over p
    of the p-density times both k-tails.  It is smooth between the zeros of
    cos p, which cut c0 +- 12 (beyond lies under 1e-32 of the mass) into
    pieces.  Each piece is integrated by the Gauss-Legendre rules GL_n and
    GL_2n (n = PREQUANT_NODES), every node of every piece in one array; the
    mass is the GL_2n sum, and GridTooCoarse is raised when the summed
    |GL_n - GL_2n| exceeds the `quadrature` tolerance."""
    c0, c1 = center
    w = math.sqrt(2.0)
    a, b = c0 - 12.0, c0 + 12.0
    n0 = math.ceil((a - math.pi / 2) / math.pi)
    n1 = math.floor((b - math.pi / 2) / math.pi)
    breaks = np.array([a] + [math.pi * (n + 0.5) for n in range(n0, n1 + 1)]
                      + [b])
    half, mid = 0.5 * np.diff(breaks), 0.5 * (breaks[1:] + breaks[:-1])

    def pieces(n):
        x, wts = _legendre(n)
        p = mid[:, None] + half[:, None] * x
        s, c = np.sin(p), np.cos(p)
        ends = p + (-1.0 - s) / c, p + (1.0 - s) / c
        lo, hi = np.minimum(*ends), np.maximum(*ends)
        tails = _erfc((c1 - lo) / w).astype(float) \
            + _erfc((hi - c1) / w).astype(float)
        return half * ((tails * np.exp(-((p - c0) / w) ** 2)) @ wts) \
            / (2.0 * w * math.sqrt(math.pi))

    coarse, fine = pieces(PREQUANT_NODES), pieces(2 * PREQUANT_NODES)
    err = float(np.sum(np.abs(coarse - fine)))
    if err > DEFAULT.quadrature:
        raise GridTooCoarse("quadrature error estimate %.2e" % err)
    return float(np.sum(fine))
