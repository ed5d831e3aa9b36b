"""Independent reference routes used by the tests.

Everything here is computed from standard matrix representations and
textbook formulas (scipy expm, ladder-operator spin matrices,
binomial laws), never by calling back into the package, so agreement is a
genuine two-route check.
"""

import math

import numpy as np
from scipy.linalg import expm

# Frozen brute-force value for the escaped-mass counterexample: high
# resolution midpoint quadrature of the standard bivariate normal over the
# region |sin p + (k - p) cos p| > 1, computed independently and fixed
# before the estimator was written.
PREQUANT_MASS = 0.296698016141580
# The same mass for the Gaussian centred at (p, k) = (0, 10), from the 1-D
# composite Gauss-Legendre route perfbench/checks.prequant_mass_outside
# ((0, 10)), which shares no code with the package.
PREQUANT_MASS_SHIFTED = 0.95296313720170


# ---------------------------------------------------------------------------
# faithful matrix models of the chart conventions

def heis_mat(a, b, c):
    return np.array([[1.0, b, a],
                     [0.0, 1.0, c],
                     [0.0, 0.0, 1.0]])


def heis_alg(al, be, ga):
    return np.array([[0.0, be, al],
                     [0.0, 0.0, ga],
                     [0.0, 0.0, 0.0]])


def heis_coords(M):
    return np.array([M[0, 2], M[0, 1], M[1, 2]])


def barg_mat(a, b, c, e):
    return np.array([[1.0, b, 0.5 * b * b, a],
                     [0.0, 1.0, b, c],
                     [0.0, 0.0, 1.0, e],
                     [0.0, 0.0, 0.0, 1.0]])


def barg_alg(al, be, ga, ep):
    return np.array([[0.0, be, 0.0, al],
                     [0.0, 0.0, be, ga],
                     [0.0, 0.0, 0.0, ep],
                     [0.0, 0.0, 0.0, 0.0]])


def barg_coords(M):
    return np.array([M[0, 3], M[0, 1], M[1, 3], M[2, 3]])


def se3_mat(A, c):
    M = np.eye(4)
    M[:3, :3] = A
    M[:3, 3] = c
    return M


def hat(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def se3_alg(axis, rate):
    Z = np.zeros((4, 4))
    Z[:3, :3] = hat(axis)
    Z[:3, 3] = rate
    return Z


SIGMA = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, -1.0j], [1.0j, 0.0]]),
         np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def su2_mat(q):
    """2x2 unitary with su2_mat(p * q) = su2_mat(p) @ su2_mat(q) for the
    Hamilton product."""
    w, x, y, z = q
    return w * np.eye(2) - 1j * (x * SIGMA[0] + y * SIGMA[1] + z * SIGMA[2])


def su2_rotation(q):
    """R with (R x).sigma = U (x.sigma) U^dag, where U = su2_mat(q)^dag =
    w + i (x, y, z).sigma is the unitary of the package's chart."""
    U = su2_mat(q).conj().T
    return np.array([[0.5 * np.trace(U @ b @ U.conj().T @ a).real
                      for b in SIGMA] for a in SIGMA])


def group_exp(family, coords):
    """Chart coordinates of exp via scipy expm in the matrix model."""
    if family == "heisenberg":
        return heis_coords(expm(heis_alg(*coords)))
    if family == "bargmann":
        return barg_coords(expm(barg_alg(*coords)))
    raise ValueError(family)


# ---------------------------------------------------------------------------
# spin machinery

def spin_matrices(two_j):
    """(Jx, Jy, Jz) in the Jz eigenbasis ordered j, j-1, ..., -j."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    Jz = np.diag(m)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
    raise_diag = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    Jp = np.zeros((two_j + 1, two_j + 1))
    Jp[np.arange(two_j), np.arange(1, two_j + 1)] = raise_diag
    Jm = Jp.T
    Jx = 0.5 * (Jp + Jm)
    Jy = (Jp - Jm) / 2j
    return Jx, Jy, Jz


def spin_coefficient(two_j, v, t):
    """<top| exp(i t |v| n.J) |top> -- the spin route to the state value."""
    Jx, Jy, Jz = spin_matrices(two_j)
    th = np.linalg.norm(v)
    n = v / th
    H = n[0] * Jx + n[1] * Jy + n[2] * Jz
    U = expm(1j * t * th * np.asarray(H, dtype=complex))
    return complex(U[0, 0])


def binomial_masses(two_j, n3):
    """Atoms of t -> (cos x + i n3 sin x)^{2j}: mass at omega = m * |v| is
    C(2j, j+m) ((1+n3)/2)^{j+m} ((1-n3)/2)^{j-m},  m = -j..j."""
    pp = (1.0 + n3) / 2.0
    pm = (1.0 - n3) / 2.0
    out = {}
    for kk in range(two_j + 1):
        mm = kk - two_j / 2.0
        out[mm] = math.comb(two_j, kk) * pp ** kk * pm ** (two_j - kk)
    return out


def spin_masses(two_j, n):
    """Same atoms via eigendecomposition of n.J (the two routes must agree)."""
    Jx, Jy, Jz = spin_matrices(two_j)
    H = n[0] * Jx + n[1] * Jy + n[2] * Jz
    vals, vecs = np.linalg.eigh(H)
    return {float(m): float(abs(vecs[0, i]) ** 2) for i, m in enumerate(vals)}


# ---------------------------------------------------------------------------
# random chart draws for property tests (kept away from the package RNG)

def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_unit_quaternion(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)
