"""Discrete (counting) and quadrature (sphere) induced actions.

Counting sections live on finite supports; points are identified by their
grid key, in `inner`, so translated deltas coincide.  Actions and matrix
coefficients take a coordinate stack of any leading shape S (a single
element is one coordinate row, a stack of shape ()), and an action's counting
section then has supports and values of shape S + (m, ...).

The four one-parameter families of actions on the (a, b, c) group:

  row a   (g phi)(p) = e^{-ia} e^{ipc} phi(p - b)
  row b   (g psi)(q) = e^{-ia} e^{-ib(q-c)} psi(q - c)
  row c   (g psi)(r) = e^{-ia} e^{-ib(r-c)} e^{ib^2 t/2} psi(r - c - bt)
  row d   (g phi)(p, q) = e^{-ia} e^{-ib(q-c)} phi(p - b, q - c)

and the sphere action (helicity 0)

  (g f)(v) = e^{i<v, kc>} f(A^{-1} v).

Quadrature sections keep a fixed Gauss-Legendre x uniform grid and compose
evaluators, so rotations never touch the nodes or weights; values are
materialized on the grid for inner products.

The irreducibility/disjointness criterion for induced actions (characters
that match on H and g K g^{-1}, and finitely many double cosets) is
analytic per family and is not decided numerically here.
"""

import numpy as np

from . import groups
from .tolerances import DEFAULT


class SectionVector:
    """Finitely supported (counting) or grid-sampled (quadrature) section."""

    __slots__ = ("support", "values", "mode", "weights", "evaluator")

    def __init__(self, support, values, mode="counting", weights=None,
                 evaluator=None):
        self.support = np.asarray(support, dtype=float)
        self.values = np.asarray(values, dtype=complex)
        self.mode = mode
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.evaluator = evaluator
        if mode == "counting" and len(self.values) != len(self.support):
            raise ValueError("support/values length mismatch")

    def norm(self):
        return float(np.sqrt(inner(self, self).real))


def delta_section(points, values=None):
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if values is None:
        values = np.ones(pts.shape[0] if pts.ndim else 1)
    return SectionVector(pts, values, mode="counting")


def inner(f, g):
    """(f, g) in the common mode, over the sections' leading stack axes.

    Counting mode sums conj(f_i) g_j over every pair of points whose keys
    on the support grid are equal, which is the inner product of the
    sections with their coincident points merged; quadrature mode is the
    weighted sum on the shared grid.
    """
    if f.mode != g.mode:
        raise ValueError("mode mismatch")
    if f.mode == "quadrature":
        return np.sum(f.weights * np.conj(f.values) * g.values, axis=-1)
    fk, gk = (np.rint(h.support.reshape(h.values.shape + (-1,))
                      / DEFAULT.support_grid) for h in (f, g))
    same = (fk[..., :, None, :] == gk[..., None, :, :]).all(-1)
    terms = np.conj(f.values)[..., :, None] * g.values[..., None, :]
    return np.sum(np.where(same, terms, 0.0), axis=(-2, -1))


class HeisenbergRow:
    """One of the four actions above; rows a, b, d need no parameter."""

    def __init__(self, row, t=0.0):
        if row not in "abcd":
            raise ValueError("unknown row %r" % (row,))
        self.row = row
        self.t = float(t)

    def apply(self, G, f):
        """g . f for every g of a coordinate stack G of shape S + (3,)."""
        if f.mode != "counting":
            raise ValueError("counting mode required")
        G = np.asarray(G, dtype=float)
        a, b, c = G[..., 0, None], G[..., 1, None], G[..., 2, None]
        s = f.support
        if self.row == "a":
            new = s + b
            vals = groups.expi(-a + new * c) * f.values
        elif self.row == "b":
            new = s + c
            vals = groups.expi(-(a + b * (new - c))) * f.values
        elif self.row == "c":
            new = s + c + b * self.t
            vals = groups.expi(-a - b * (new - c) + 0.5 * b * b * self.t) \
                * f.values
        else:
            if s.ndim != 2 or s.shape[1] != 2:
                raise ValueError("row d needs planar support")
            new = s + G[..., None, 1:]
            vals = groups.expi(-(a + b * (new[..., 1] - c))) * f.values
        return SectionVector(new, vals, mode="counting")


class EuclidAction:
    """Helicity-zero sphere action for wavenumber k.

    Counting mode rotates the support points, for every element of a
    coordinate stack G; quadrature mode composes the evaluator of one
    element and re-materializes values on the fixed grid.
    """

    def __init__(self, k):
        self.k = float(k)

    def apply(self, G, f):
        A, c = groups.euclid_parts(G)
        kc = self.k * c
        if f.mode == "counting":
            unit = np.abs(np.linalg.norm(f.support, axis=-1) - 1.0)
            if np.max(unit) > 1e-9:
                raise ValueError("support points must be unit vectors")
            new = f.support @ np.swapaxes(A, -1, -2)
            vals = groups.expi(np.sum(new * kc[..., None, :], axis=-1)) \
                * f.values
            return SectionVector(new, vals, mode="counting")
        base = f.evaluator
        def evaluator(v, base=base, A=A, kc=kc):
            return groups.expi(v @ kc) * base(v @ A)   # v @ A = A^T v rows
        vals = evaluator(f.support)
        return SectionVector(f.support, vals, mode="quadrature",
                             weights=f.weights, evaluator=evaluator)


def sphere_grid(n_theta=64, n_phi=128):
    """Gauss-Legendre in cos(theta) x uniform phi; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    z = np.repeat(x, n_phi)
    rho = np.sqrt(1.0 - z * z)
    pts = np.column_stack([rho * np.cos(np.tile(phi, n_theta)),
                           rho * np.sin(np.tile(phi, n_theta)), z])
    weights = np.repeat(w, n_phi) / (2.0 * n_phi)
    return pts, weights


def constant_section(n_theta=64, n_phi=128):
    pts, w = sphere_grid(n_theta, n_phi)
    def evaluator(v):
        return np.ones(v.shape[:-1], dtype=complex)
    return SectionVector(pts, np.ones(len(pts), dtype=complex),
                         mode="quadrature", weights=w, evaluator=evaluator)


def matrix_coefficient(action, f, G):
    """(f, g . f) in f's mode for every g of a coordinate stack G of any
    leading shape; f must be normalized.

    Quadrature sections fill the whole grid for each element, so they take
    the stack one element at a time.
    """
    if abs(f.norm() - 1.0) > 1e-9:
        raise ValueError("section must be normalized (|f| = %.6g)" % f.norm())
    if f.mode == "counting":
        return inner(f, action.apply(G, f))
    out = np.empty(G.shape[:-1], dtype=complex)
    for i in np.ndindex(out.shape):
        out[i] = inner(f, action.apply(G[i], f))
    return out[()]
