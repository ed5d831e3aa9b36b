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
    __slots__ = ("state", "samples", "gram", "rank", "basis", "cyclic", "tol")

    def __init__(self, state, samples, gram, rank, basis, cyclic, tol):
        self.state = state
        self.samples = samples
        self.gram = gram
        self.rank = rank
        self.basis = basis      # n x r, columns = coefficient vectors
        self.cyclic = cyclic    # coordinates of m_e in the basis
        self.tol = tol


def build(state, samples, tol=None):
    """Quotient the Gram form of a sample stack at eigenvalue cut tol * n."""
    tol = DEFAULT.quotient_scale if tol is None else tol
    e = samples[0]
    coords = [np.concatenate([np.ravel(x) for x in g.data])
              for g in (e, groups.identity(e.family, len(e.data)))]
    if not np.abs(coords[0] - coords[1]).max() < 1e-12:
        raise ValueError("samples[0] must be the identity")

    gm = states.gram(state, samples)
    n = gm.n
    if gm.eigenvalues[-1] < -DEFAULT.psd_scale * n:
        raise NotAStateError(
            "Gram minimum eigenvalue %.3g: not a state on this sample"
            % gm.eigenvalues[-1])
    vals, vecs = np.linalg.eigh(gm.entries)
    keep = vals > tol * n
    r = int(np.sum(keep))
    basis = vecs[:, keep] / np.sqrt(vals[keep])
    cyclic = basis.conj().T @ gm.entries[:, 0]
    return GnsSpace(state, samples, gm, r, basis, cyclic, tol)


def rep_matrix(space, g):
    """(R_g, residual): projected action matrix and its defect.

    residual = max over columns j of  1 - |R_g[:, j]|^2, the squared-norm
    deficit of projecting the transported basis back onto the span.
    """
    S = space.samples.data
    Mg = states.pair_eval(space.state, S, groups.compose_coords(
        space.state.family, g.data, S), grid=True)
    R = space.basis.conj().T @ Mg @ space.basis
    deficit = 1.0 - np.sum(np.abs(R) ** 2, axis=0)
    return R, float(max(0.0, np.max(deficit)))


def coefficient(space, g):
    """<m_e, pi(g) m_e> in the quotient basis."""
    R, _ = rep_matrix(space, g)
    return complex(space.cyclic.conj() @ (R @ space.cyclic))


def reproducing_check(space, cs, fs=None, seed=0):
    """Max defect of f(c) = (m_c, f) between fresh evaluation and basis route.

    cs: evaluation coefficient vectors over the samples; fs: coefficient
    vectors defining the functions (random unit vectors when omitted).
    """
    K = space.gram.entries
    B = space.basis
    rng = np.random.default_rng(seed)
    if fs is None:
        fs = []
        for _ in cs:
            v = rng.standard_normal(len(space.samples)) \
                + 1j * rng.standard_normal(len(space.samples))
            fs.append(v / np.linalg.norm(v))
    worst = 0.0
    for c, a in zip(cs, fs):
        c = np.asarray(c, dtype=complex)
        a = np.asarray(a, dtype=complex)
        direct = c.conj() @ (K @ a)
        via_basis = (B.conj().T @ (K @ c)).conj() @ (B.conj().T @ (K @ a))
        worst = max(worst, abs(direct - via_basis))
    return worst


def commutant_dim(space, generators, svd_tol=None, residual_tol=None):
    """Dimension of {X : X R_g = R_g X for all generators}.

    Null space of the stacked commutator operator, counted at the given
    singular-value cut.  Generators must act with negligible residual --
    the commutant of a lossy projection is meaningless.
    """
    svd_tol = DEFAULT.commutant_svd if svd_tol is None else svd_tol
    residual_tol = DEFAULT.residual if residual_tol is None else residual_tol
    r = space.rank
    blocks = []
    for g in generators:
        R, res = rep_matrix(space, g)
        if res > residual_tol:
            raise ResidualError(
                "generator residual %.3g exceeds %.3g" % (res, residual_tol))
        eye = np.eye(r)
        # row-major vec: kron(A, B) vec(X) = vec(A X B^T)
        blocks.append(np.kron(R, eye) - np.kron(eye, R.T))
    L = np.vstack(blocks)
    sv = np.linalg.svd(L, compute_uv=False)
    cut = svd_tol * max(1.0, sv[0] if len(sv) else 1.0)
    return int(r * r - np.sum(sv > cut))


def eigenvector_check(space, subgroup_samples, character_values,
                      residual_tol=None):
    """Max of |pi(h) m_e - chi(h) m_e| over the subgroup samples."""
    residual_tol = DEFAULT.residual if residual_tol is None else residual_tol
    worst = 0.0
    for h, chi in zip(subgroup_samples, character_values):
        R, res = rep_matrix(space, h)
        if res > residual_tol:
            raise ResidualError(
                "subgroup element residual %.3g exceeds %.3g" % (res, residual_tol))
        defect = np.linalg.norm(R @ space.cyclic - chi * space.cyclic)
        worst = max(worst, float(defect))
    return worst


# the kinds closed_sample_set builds a set for
CLOSED_KINDS = ("heisenberg_loc_p", "heisenberg_loc_q", "euclid_plane",
                "su2_highest_weight")


def closed_sample_set(state, n=16, seed=0):
    """Sample stack (identity first) on which the finite representation is
    exactly isometric, plus probe elements that stay inside the closure.

    For the delta-type states the set is built from coset representatives
    of the modulus-one subgroup, so the Gram matrix is the identity and
    every probe acts as a unitary (permutation times phases).  For the spin
    states the set is the quaternion subgroup {+-1, +-i, +-j, +-k}, closed
    under multiplication."""
    rng = np.random.default_rng(seed)
    kind = state.kind
    if kind == "heisenberg_loc_p":
        bs = np.concatenate([[0.0], rng.uniform(-3, 3, n - 1)])
        samples = [groups.heisenberg(0.0, b, 0.0) for b in bs]
        probes = [groups.heisenberg(u[0], 0.0, u[1])
                  for u in rng.uniform(-3, 3, (8, 2))]
        return groups.stack(state.family, samples), probes
    if kind == "heisenberg_loc_q":
        cs = np.concatenate([[0.0], rng.uniform(-3, 3, n - 1)])
        samples = [groups.heisenberg(0.0, 0.0, c) for c in cs]
        probes = [groups.heisenberg(u[0], u[1], 0.0)
                  for u in rng.uniform(-3, 3, (8, 2))]
        return groups.stack(state.family, samples), probes
    if kind == "euclid_plane":
        # the rotation by 2 pi / n about (1, 1, 1)
        axis = np.full(3, 2.0 * np.pi / (n * np.sqrt(3.0)))
        rot = groups.exp(groups.algebra("euclid",
                                        np.concatenate([axis, np.zeros(3)])))
        samples = [groups.identity("euclid")]
        for _ in range(n - 1):
            samples.append(groups.compose(samples[-1], rot))
        probes = [rot]
        probes += [groups.euclid(np.eye(3), c)
                   for c in rng.uniform(-3, 3, (7, 3))]
        return groups.stack(state.family, samples), probes
    if kind == "su2_highest_weight":
        quats = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                 (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
        samples = [groups.su2(*q) for q in quats]
        return groups.stack("su2", samples), samples[1:]
    raise ValueError("no closed set construction for %r" % (kind,))
