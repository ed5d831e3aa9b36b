"""Finite-sample GNS construction: quotient of the Gram form, representation
matrices, coefficient recovery, and a commutant-dimension probe.

Given a state m and samples S = (s_0 = e, s_1, ..., s_{n-1}), the kernel
functions m_{s_i} span a finite subspace carrying the left action
(g f)(x) = f(g^{-1} x).  Eigenvectors of K_ij = m(s_i^{-1} s_j) above the
quotient tolerance give an orthonormal basis B; the action of g projects to

    R_g = B^dagger M_g B,      M_g[i, j] = m(s_i^{-1} g s_j),

a least-squares projection whose per-column squared-norm deficit is the
reported residual.  When g maps the sampled cosets into themselves (up to
Gram-kernel directions) the residual vanishes and R_g is unitary.
"""

import numpy as np

from . import groups, states
from .tolerances import DEFAULT


class NotAStateError(ValueError):
    pass


class ResidualError(ValueError):
    pass


class GnsSpace:
    __slots__ = ("state", "samples", "gram", "rank", "basis", "cyclic")

    def __init__(self, state, samples, gram, rank, basis, cyclic):
        self.state = state
        self.samples = samples
        self.gram = gram
        self.rank = rank
        self.basis = basis      # n x r, columns = coefficient vectors
        self.cyclic = cyclic    # coordinates of m_e in the basis


def build(state, samples):
    """Quotient the Gram form of a sample stack (n, d) at the eigenvalue
    cut quotient_scale * n."""
    fam, s0 = state.family, samples[0]
    e = groups.exp_coords(fam, np.zeros(groups.ALGEBRA_DIM.get(fam, len(s0))))
    if not np.abs(s0 - e).max() < 1e-12:
        raise ValueError("samples[0] must be the identity")

    gm = states.gram(state, samples)
    n = gm.n
    if not states.check_psd(gm)["pass"]:
        raise NotAStateError(
            "Gram minimum eigenvalue %.3g: not a state on this sample"
            % gm.eigenvalues[-1])
    vals, vecs = np.linalg.eigh(gm.entries)
    keep = vals > DEFAULT.quotient_scale * n
    r = int(np.sum(keep))
    basis = vecs[:, keep] / np.sqrt(vals[keep])
    cyclic = basis.conj().T @ gm.entries[:, 0]
    return GnsSpace(state, samples, gm, r, basis, cyclic)


def rep_matrix(space, g):
    """(R_g, residual): projected action matrix and its defect, for a
    coordinate row or stack g of leading shape L: R of shape L + (r, r) and
    the residuals of shape L.

    residual = max over columns j of  1 - |R_g[:, j]|^2, the squared-norm
    deficit of projecting the transported basis back onto the span.

    A stack is transported one element at a time, so a call holds one
    n x n table M_g whatever the stack's length.
    """
    S, g = space.samples, np.asarray(g, dtype=float)
    flat = g.reshape(-1, g.shape[-1])
    R = np.empty((len(flat), space.rank, space.rank), dtype=complex)
    for i in range(len(R)):
        gS = groups.compose_coords(space.state.family, flat[i:i + 1], S)
        Mg = states.pair_eval(space.state, S[:, None], gS[None])
        R[i] = space.basis.conj().T @ Mg @ space.basis
    R = R.reshape(g.shape[:-1] + R.shape[1:])
    deficit = 1.0 - np.sum(np.abs(R) ** 2, axis=-2)
    return R, np.maximum(0.0, np.max(deficit, axis=-1))


def cyclic_coefficient(space, R):
    """<m_e, R m_e> for projected action matrices R of shape L + (r, r)."""
    return (R @ space.cyclic) @ space.cyclic.conj()


def coefficient(space, g):
    """<m_e, pi(g) m_e> in the quotient basis, over a row or a stack."""
    return cyclic_coefficient(space, rep_matrix(space, g)[0])


def reproducing_check(space, cs):
    """Max defect of f(c) = (m_c, f) between fresh evaluation and basis route.

    cs: evaluation coefficient vectors over the samples; the functions f
    have seeded random unit coefficient vectors, one per c.
    """
    K = space.gram.entries
    B = space.basis
    rng = np.random.default_rng(0)
    n = len(space.samples)
    fs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in cs]
    fs = [v / np.linalg.norm(v) for v in fs]
    worst = 0.0
    for c, a in zip(cs, fs):
        c = np.asarray(c, dtype=complex)
        a = np.asarray(a, dtype=complex)
        direct = c.conj() @ (K @ a)
        via_basis = (B.conj().T @ (K @ c)).conj() @ (B.conj().T @ (K @ a))
        worst = max(worst, abs(direct - via_basis))
    return worst


def _acting(space, gs, what):
    """rep_matrix over the stack gs, once every residual is within the
    `residual` tolerance."""
    R, res = rep_matrix(space, gs)
    if np.max(res) > DEFAULT.residual:
        raise ResidualError("%s residual %.3g exceeds %.3g"
                            % (what, np.max(res), DEFAULT.residual))
    return R


def commutant_dim(space, generators):
    """Dimension of {X : X R_g = R_g X for all g in the generator stack}.

    Null space of the stacked commutator operator, counted at the
    `commutant_svd` singular-value cut.  Generators must act with
    negligible residual -- the commutant of a lossy projection is
    meaningless.
    """
    eye = np.eye(space.rank)
    # row-major vec: kron(A, B) vec(X) = vec(A X B^T)
    L = np.vstack([np.kron(R, eye) - np.kron(eye, R.T) for R in
                   _acting(space, generators, "generator")])
    sv = np.linalg.svd(L, compute_uv=False)
    cut = DEFAULT.commutant_svd * max(1.0, sv[0] if len(sv) else 1.0)
    return int(space.rank ** 2 - np.sum(sv > cut))


def eigenvector_check(space, subgroup_samples, character_values):
    """Max of |pi(h) m_e - chi(h) m_e| over a stack of subgroup samples."""
    R = _acting(space, subgroup_samples, "subgroup element")
    chi = np.asarray(character_values)[..., None]
    defect = np.linalg.norm(R @ space.cyclic - chi * space.cyclic, axis=-1)
    return float(np.max(defect))


# the kinds closed_sample_set builds a set for
CLOSED_KINDS = ("heisenberg_loc_p", "heisenberg_loc_q", "euclid_plane",
                "su2_highest_weight")

def closed_sample_set(state, n=16, seed=0):
    """Sample stack (identity first) on which the finite representation is
    exactly isometric, plus a probe stack that stays inside the closure.

    For the delta-type states the samples are coset representatives of the
    modulus-one subgroup H: they vary only the coordinate that H's pivots
    miss, so the Gram matrix is the identity, and the probes lie in H, so
    every probe acts as a unitary (permutation times phases).  For the spin
    states the set is the quaternion subgroup {+-1, +-i, +-j, +-k}, closed
    under multiplication."""
    if state.kind not in CLOSED_KINDS:
        raise ValueError("no closed set construction for %r" % (state.kind,))
    rng = np.random.default_rng(seed)
    if state.kind == "su2_highest_weight":
        X = np.array([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                      (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0),
                      (0, 0, 0, 1), (0, 0, 0, -1)], dtype=float)
        probes = X[1:]
    elif state.kind == "euclid_plane":
        # the rotation by 2 pi / n about (1, 1, 1), and its powers as
        # chained products from the identity, each RENORM_EVERY-th one
        # re-orthonormalized
        Z = np.zeros(6)
        Z[:3] = 2.0 * np.pi / (n * np.sqrt(3.0))
        R = groups.exp_coords("euclid", Z)
        X = np.empty((n, 12))
        X[0] = groups.exp_coords("euclid", np.zeros(6))
        for i in range(1, n):
            X[i] = groups.compose_coords("euclid", X[i - 1], R)
            if i % groups.RENORM_EVERY == 0:
                A = groups.euclid_parts(X[i])[0]
                A[...] = groups.orthonormalize(A)
        probes = np.concatenate([R[None], groups.euclid_coords(
            np.eye(3), rng.uniform(-3, 3, (7, 3)))])
    else:
        H, pivots = state.localization["H"], state.localization["pivots"]
        X = np.zeros((n, 3))
        X[:, np.setdiff1d(np.arange(3), pivots)[0]] = np.concatenate(
            [[0.0], rng.uniform(-3, 3, n - 1)])
        probes = rng.uniform(-3, 3, (8, len(H))) @ H + 0.0
    return (groups.check_coords(state.family, X),
            groups.check_coords(state.family, probes))
