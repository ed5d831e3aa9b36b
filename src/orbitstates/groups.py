"""Canonical coordinates, group law, exp, brackets and (co)adjoint actions
for the four concrete families (plus tori as the abelian degenerate case).

Chart conventions
-----------------
heisenberg  (a, b, c)     <->  3x3 unipotent  [[1, b, a], [0, 1, c], [0, 0, 1]]
bargmann    (a, b, c, e)  <->  4x4 unipotent  [[1, b, b^2/2, a],
                                               [0, 1, b,     c],
                                               [0, 0, 1,     e],
                                               [0, 0, 0,     1]]
euclid      (A, c)        <->  4x4 affine     [[A, c], [0, 1]],  A in SO(3);
            12 coordinates, A row by row and then c (euclid_coords packs them,
            euclid_parts splits them)
su2         (w, x, y, z)  <->  2x2 unitary    [[w+iz, ix+y], [ix-y, w-iz]]
torus       angles mod 2pi (componentwise addition)

Algebra coordinates follow the same layout: heisenberg (alpha, beta, gamma),
bargmann (alpha, beta, gamma, eps), euclid (axis, rate) packed as a 6-vector,
su2 a rotation 3-vector v with matrix (i/2) v.sigma, torus a rate vector.

Dual (coadjoint) coordinates and pairings:
heisenberg (M, p, q):     <w, Z> = p*gamma - q*beta - M*alpha
bargmann (M, p, q, E):    <w, Z> = p*gamma - q*beta - E*eps - M*alpha
euclid (L, P):            <w, Z> = <L, axis> + <P, rate>
su2 x in R^3:             <w, Z> = x . v
torus y in R^d:           <w, Z> = y . Z
"""

import numpy as np

from .tolerances import DEFAULT

FAMILIES = ("heisenberg", "bargmann", "euclid", "su2", "torus")
# algebra and group coordinate lengths; a torus has its own dimension
ALGEBRA_DIM = {"heisenberg": 3, "bargmann": 4, "euclid": 6, "su2": 3}
COORD_DIM = {"heisenberg": 3, "bargmann": 4, "euclid": 12, "su2": 4}

# a chain of Euclid products re-orthonormalizes its rotation blocks after
# this many composures (gns.closed_sample_set)
RENORM_EVERY = 64


class FamilyError(ValueError):
    pass


# index rows into the nine entries of row-major 3x3 blocks: the six entries
# i <= j of A^T A as sum_k A_ki A_kj, and the six terms of det A (rule of
# Sarrus), the first three added and the last three subtracted
_GRAM_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]
_GRAM_LEFT = np.array([[3 * k + i for k in range(3)] for i, _ in _GRAM_PAIRS])
_GRAM_RIGHT = np.array([[3 * k + j for k in range(3)] for _, j in _GRAM_PAIRS])
_GRAM_EYE = np.array([[float(i == j)] for i, j in _GRAM_PAIRS])
_SARRUS = np.array([[3 * r + (s + sign * r) % 3 for r in range(3)]
                    for sign in (1, -1) for s in range(3)]).T


def _check_euclid_rotation(A):
    """Raise unless every block of a (..., 3, 3) stack is in SO(3).  The
    defects are computed entry by entry over one contiguous (9, N) copy of
    the blocks: a stacked 3x3 matmul and one LAPACK det per block cost
    more than drawing them.  Each gate reads `not (defect <= bound)`, so
    NaN and inf fail it."""
    a = np.ascontiguousarray(np.reshape(A, (-1, 9)).T)
    gram = (a[_GRAM_LEFT] * a[_GRAM_RIGHT]).sum(axis=1)
    err = np.abs(gram - _GRAM_EYE).max(initial=0.0)
    terms = a[_SARRUS[0]] * a[_SARRUS[1]] * a[_SARRUS[2]]
    det = terms[:3].sum(axis=0) - terms[3:].sum(axis=0)
    det_defect = np.abs(det - 1.0).max(initial=0.0)
    tol = 100 * DEFAULT.ortho
    if not (err <= tol and det_defect <= tol):
        raise ValueError("rotation block is not special orthogonal "
                         "(orthogonality defect %.3g, determinant defect %.3g)"
                         % (err, det_defect))


def _unit_quaternions(Q):
    """A (..., 4) stack divided by its norms, which must be 1 within 1e-6
    (NaN and inf fail)."""
    n = np.sqrt(np.vecdot(Q, Q))   # the dot product np.linalg.norm takes
    if not np.abs(n - 1.0).max(initial=0.0) <= 1e-6:
        raise ValueError("quaternion norm %.6g too far from 1"
                         % n.flat[np.argmax(np.abs(n - 1.0))])
    return Q / n[..., None]


def orthonormalize(A):
    """Nearest rotation (polar factor) of each block of a (..., 3, 3) stack."""
    u, _, vt = np.linalg.svd(A)
    u[..., -1] *= np.where(np.linalg.det(u @ vt) < 0, -1.0, 1.0)[..., None]
    return u @ vt


def expi(x):
    """e^{ix} for a real array x, from t = tan(x / 2) as ((1 - t^2) + 2t i)
    / (1 + t^2): numpy 2.4 on AVX512 vectorizes tan, where its float64 sin
    and cos and its complex exp run scalar libm loops (README, design notes).
    The imaginary part gets + 0.0, so expi(-0.0) is 1+0j; NaN and +-inf
    give NaN.  Two float temporaries, the size of the complex result."""
    x = np.asarray(x, dtype=float)
    z = np.empty(x.shape, dtype=complex)
    t, d, re = np.empty(x.shape), np.empty(x.shape), z.real
    np.multiply(x, 0.5, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=d)
    np.subtract(1.0, d, out=re)
    np.add(d, 1.0, out=d)
    np.divide(re, d, out=re)
    np.divide(t, d, out=t)
    np.add(t, t, out=t)
    np.add(t, 0.0, out=z.imag)
    return z


# ---------------------------------------------------------------------------
# the group law, the adjoint action and the bracket on coordinate stacks
#
# A stack is one array: any broadcastable leading axes in front of the
# chart coordinates, (..., 3) heisenberg, (..., 4) bargmann and su2, (..., d)
# torus and (..., 12) euclid.  Only this module knows the euclid layout;
# euclid_coords packs it and euclid_parts reads it.  Algebra stacks are
# (..., dim), euclid (..., 6) as (axis, rate).

def euclid_coords(A, c):
    """The euclid stack of rotation blocks A (..., 3, 3) and translations
    c (..., 3), broadcast against each other."""
    X = np.empty(np.broadcast_shapes(np.shape(A)[:-2], np.shape(c)[:-1])
                 + (12,))
    XA, Xc = euclid_parts(X)
    XA[...], Xc[...] = A, c
    return X


def euclid_parts(X):
    """Views of the rotation blocks A (..., 3, 3) and translations c (..., 3)
    of a euclid stack X."""
    return X[..., :9].reshape(X.shape[:-1] + (3, 3)), X[..., 9:]


def check_coords(family, X):
    """The coordinate stack X (..., d) as a float array, once its rows are
    elements of `family`: euclid rotation blocks are checked and su2
    quaternions checked and normalized, once over the whole stack."""
    if family not in FAMILIES:
        raise FamilyError("unknown family %r" % (family,))
    X = np.asarray(X, dtype=float)
    d = COORD_DIM.get(family)
    if d is not None and X.shape[-1:] != (d,):
        raise FamilyError("%s coordinates have length %d, got shape %s"
                          % (family, d, X.shape))
    if family == "euclid":
        _check_euclid_rotation(euclid_parts(X)[0])
    elif family == "su2":
        X = _unit_quaternions(X)
    return X


def _join(cols):
    """Coordinate columns of one shape, stacked along a new last axis."""
    if np.ndim(cols[0]) == 0:
        return np.array(cols, dtype=float)
    return np.stack(cols, axis=-1)


def _matvec(A, v):
    return np.einsum("...ij,...j->...i", A, v)


def compose_coords(family, X, Y):
    """Coordinates of x y (matrix product in the faithful representation)."""
    if family == "heisenberg":
        a1, b1, c1 = X[..., 0], X[..., 1], X[..., 2]
        a2, b2, c2 = Y[..., 0], Y[..., 1], Y[..., 2]
        return _join([a1 + a2 + b1 * c2, b1 + b2, c1 + c2])
    if family == "bargmann":
        a1, b1, c1, e1 = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
        a2, b2, c2, e2 = Y[..., 0], Y[..., 1], Y[..., 2], Y[..., 3]
        return _join([a1 + a2 + b1 * c2 + 0.5 * b1 * b1 * e2, b1 + b2,
                      c1 + c2 + b1 * e2, e1 + e2])
    if family == "euclid":
        # written in place: packing afterwards made this half again as slow
        (A1, c1), (A2, c2) = euclid_parts(X), euclid_parts(Y)
        Z = np.empty(np.broadcast_shapes(X.shape, Y.shape))
        A, c = euclid_parts(Z)
        np.matmul(A1, A2, out=A)
        np.add(_matvec(A1, c2), c1, out=c)
        return Z
    if family == "su2":
        w1, x1, y1, z1 = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
        w2, x2, y2, z2 = Y[..., 0], Y[..., 1], Y[..., 2], Y[..., 3]
        # quaternion product: w1 w2 - v1.v2, w1 v2 + w2 v1 + v1 x v2
        return _join([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                      w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
                      w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2),
                      w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2)])
    if family == "torus":
        return np.mod(X + Y, 2 * np.pi)
    raise FamilyError("unknown family %r" % (family,))


compose = compose_coords   # the name perfbench/test_checks.py reads


def inverse_coords(family, X):
    """Coordinates of x^-1."""
    if family == "heisenberg":
        a, b, c = X[..., 0], X[..., 1], X[..., 2]
        return _join([-a + b * c, -b, -c])
    if family == "bargmann":
        a, b, c, e = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
        return _join([-a + b * c - 0.5 * b * b * e, -b, -c + b * e, -e])
    if family == "euclid":
        A, c = euclid_parts(X)
        At = np.swapaxes(A, -1, -2)
        return euclid_coords(At, -_matvec(At, c))
    if family == "su2":
        return X * np.array([1.0, -1.0, -1.0, -1.0])
    if family == "torus":
        return np.mod(-X, 2 * np.pi)
    raise FamilyError("unknown family %r" % (family,))


def _rotation_factors(th):
    """sin(th)/th, (1 - cos th)/th^2 and (th - sin th)/th^3, with their
    series below 1e-4, where the last would cancel."""
    small = th < 1e-4
    t = np.where(small, 1.0, th)
    t2 = th * th
    sn = np.sin(t)
    half = np.sin(0.5 * t) / t
    return (np.where(small, 1.0 - t2 / 6.0, sn / t),
            np.where(small, 0.5 - t2 / 24.0, 2.0 * half * half),
            np.where(small, 1.0 / 6.0 - t2 / 120.0, (t - sn) / (t * t * t)))


def exp_coords(family, C):
    """Coordinates of exp Z for a stack C of algebra coordinates."""
    if family == "heisenberg":
        al, be, ga = C[..., 0], C[..., 1], C[..., 2]
        return _join([al + 0.5 * be * ga, be, ga])
    if family == "bargmann":
        al, be, ga, ep = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
        return _join([al + 0.5 * be * ga + be * be * ep / 6.0, be,
                      ga + 0.5 * be * ep, ep])
    if family == "euclid":
        if not np.any(C[..., :3]):
            # pure translations, exactly what the formulas below give
            return euclid_coords(np.eye(3), C[..., 3:])
        # with w = axis, r = rate, th = |w| and the factors s1, s2, s3:
        #   A = cos th + s1 [w]x + s2 w w^T,   cos th = 1 - s2 th^2
        #   c = r + s2 w x r + s3 w x (w x r) = s1 r + s2 w x r + s3 (w.r) w
        x, y, z = C[..., 0], C[..., 1], C[..., 2]
        rx, ry, rz = C[..., 3], C[..., 4], C[..., 5]
        t2 = x * x + y * y + z * z
        s1, s2, s3 = _rotation_factors(np.sqrt(t2))
        co = 1.0 - s2 * t2
        sx, sy, sz = s2 * x, s2 * y, s2 * z
        ux, uy, uz = s1 * x, s1 * y, s1 * z
        xy, xz, yz = sx * y, sx * z, sy * z
        g = s3 * (x * rx + y * ry + z * rz)
        X = np.empty(C.shape[:-1] + (12,))
        A, c = euclid_parts(X)
        A[..., 0, 0], A[..., 0, 1], A[..., 0, 2] = co + sx * x, xy - uz, xz + uy
        A[..., 1, 0], A[..., 1, 1], A[..., 1, 2] = xy + uz, co + sy * y, yz - ux
        A[..., 2, 0], A[..., 2, 1], A[..., 2, 2] = xz - uy, yz + ux, co + sz * z
        c[..., 0] = s1 * rx + sy * rz - sz * ry + g * x
        c[..., 1] = s1 * ry + sz * rx - sx * rz + g * y
        c[..., 2] = s1 * rz + sx * ry - sy * rx + g * z
        return X
    if family == "su2":
        th = np.sqrt(np.sum(C * C, axis=-1))
        small = th < 1e-12
        half = np.where(small, 0.5, np.sin(0.5 * th) / np.where(small, 1.0, th))
        return np.concatenate([np.cos(0.5 * th)[..., None],
                               half[..., None] * C], axis=-1)
    if family == "torus":
        return np.mod(C, 2 * np.pi)
    raise FamilyError("unknown family %r" % (family,))


def log_coords(family, X):
    """Algebra coordinates of log g over a stack X of group coordinates, on
    the two nilpotent families, where exp_coords is a bijection."""
    if family == "heisenberg":
        a, b, c = X[..., 0], X[..., 1], X[..., 2]
        return _join([a - 0.5 * b * c, b, c])
    if family == "bargmann":
        a, b, c, e = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
        ga = c - 0.5 * b * e
        return _join([a - 0.5 * b * ga - b * b * e / 6.0, b, ga, e])
    raise FamilyError("no log_coords on %r" % (family,))


def adjoint_coords(family, G, C):
    """Coordinates of Ad(g) Z = g Z g^-1 (in the faithful representation)
    over broadcastable stacks of group coordinates G and algebra
    coordinates C."""
    if family == "heisenberg":
        b, c = G[..., 1], G[..., 2]
        al, be, ga = C[..., 0], C[..., 1], C[..., 2]
        return _join(np.broadcast_arrays(al + b * ga - c * be, be, ga))
    if family == "bargmann":
        b, c, e = G[..., 1], G[..., 2], G[..., 3]
        al, be, ga, ep = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
        return _join(np.broadcast_arrays(
            al + b * ga - c * be + 0.5 * b * b * ep, be, ga + b * ep - e * be,
            ep))
    if family == "euclid":
        A, c = euclid_parts(G)
        Aax = _matvec(A, C[..., :3])
        return np.concatenate([Aax, _matvec(A, C[..., 3:]) + np.cross(c, Aax)],
                              axis=-1)
    if family == "su2":
        # U ((i/2) v.sigma) U^dag; with this chart U = exp((i/2) theta n.sigma)
        # rotates v by -theta about n: the quaternion sandwich q^-1 (0, v) q
        n = G[..., 1:]
        t = 2.0 * np.cross(n, C)
        return C - G[..., :1] * t + np.cross(n, t)
    if family == "torus":
        return np.array(np.broadcast_to(
            C, np.broadcast_shapes(np.shape(G), np.shape(C))))
    raise FamilyError("unknown family %r" % (family,))


def bracket_coords(family, Z, W):
    """Coordinates of [Z, W] over broadcastable stacks of algebra
    coordinates."""
    if family == "heisenberg":
        d = Z[..., 1] * W[..., 2] - W[..., 1] * Z[..., 2]
        zero = np.zeros_like(d)
        return _join([d, zero, zero])
    if family == "bargmann":
        be, ga, ep = Z[..., 1], Z[..., 2], Z[..., 3]
        be2, ga2, ep2 = W[..., 1], W[..., 2], W[..., 3]
        zero = np.zeros_like(be * be2)
        return _join([be * ga2 - be2 * ga, zero, be * ep2 - be2 * ep, zero])
    if family == "euclid":
        a1, r1, a2, r2 = Z[..., :3], Z[..., 3:], W[..., :3], W[..., 3:]
        return np.concatenate(
            [np.cross(a1, a2), np.cross(a1, r2) - np.cross(a2, r1)], axis=-1)
    if family == "su2":
        return np.cross(Z, W)
    if family == "torus":
        return np.zeros(np.broadcast_shapes(np.shape(Z), np.shape(W)))
    raise FamilyError("unknown family %r" % (family,))


def pairing_coords(family, W, C):
    """<w, Z> over broadcastable stacks of dual coordinates W and algebra
    coordinates C; elementwise arithmetic, so a row's value does not depend
    on the shape of the stack it sits in."""
    if family == "heisenberg":
        M, p, q = W[..., 0], W[..., 1], W[..., 2]
        al, be, ga = C[..., 0], C[..., 1], C[..., 2]
        return p * ga - q * be - M * al
    if family == "bargmann":
        M, p, q, E = W[..., 0], W[..., 1], W[..., 2], W[..., 3]
        al, be, ga, ep = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
        return p * ga - q * be - E * ep - M * al
    if family in ("euclid", "su2", "torus"):
        return np.sum(W * C, axis=-1)
    raise FamilyError(family)


def coadjoint_coords(family, G, W):
    """Coordinates of the dual action Ad*(g) w over broadcastable stacks of
    group coordinates G and dual coordinates W, fixed by
    <Ad*(g) w, E_i> = <w, Ad(g^-1) E_i> over the coordinate basis E_i of
    the algebra: the pairing matrix of that basis with the dual one is a
    signed permutation, so this is one linear solve."""
    W = np.asarray(W, dtype=float)
    E = np.eye(W.shape[-1])
    rhs = pairing_coords(family, W[..., None, :], adjoint_coords(
        family, inverse_coords(family, G)[..., None, :], E))
    return np.linalg.solve(pairing_coords(family, E[:, None], E).T,
                           rhs[..., None])[..., 0]


def commuting(family, C):
    """True iff all pairwise brackets of the rows of a (k, dim) stack of
    algebra coordinates vanish below the `commuting` tolerance."""
    C = np.asarray(C, dtype=float)
    B = bracket_coords(family, C[:, None], C[None])
    return not np.any(np.linalg.norm(B, axis=-1) >= DEFAULT.commuting)


def random_elements(family, rng, count, scale=3.0, dim=1, sets=1, each=None):
    """Seeded generic elements: `sets` sets of `count`, returned as one
    (sets * count, d) coordinate stack that equals `sets` separate calls'
    stacks laid end to end.  Set by set it makes the generator calls a
    separate call makes, in order; the elements of all sets are then built
    and checked at once.  Uniform coordinates in [-scale, scale) on
    heisenberg and bargmann, uniform angles on a torus of dimension dim,
    and Gaussian quaternions normalized to su2 elements or to euclid
    rotation blocks (then uniform translations).  each(rng, i), if given,
    runs after set i's generator calls: support_samples makes its support
    draws there, so a multi-set draw reads the stream as single ones do."""
    if family not in FAMILIES:
        raise FamilyError(family)
    quaternions = family in ("su2", "euclid")
    width = 4 if quaternions else dim if family == "torus" \
        else COORD_DIM[family]
    raw = np.empty((sets, count, width))
    shift = np.empty((sets, count, 3)) if family == "euclid" else None
    for i in range(sets):
        if quaternions:
            rng.standard_normal((count, 4), out=raw[i])
        elif family == "torus":
            raw[i] = rng.uniform(0, 2 * np.pi, (count, dim))
        else:
            raw[i] = rng.uniform(-scale, scale, (count, width))
        if shift is not None:
            shift[i] = rng.uniform(-scale, scale, (count, 3))
        if each is not None:
            each(rng, i)
    raw = raw.reshape(sets * count, width)
    if family == "torus":
        return check_coords(family, np.mod(raw, 2 * np.pi))
    if not quaternions:
        return check_coords(family, raw)
    raw /= np.sqrt(np.vecdot(raw, raw))[:, None]
    if family == "su2":
        return check_coords(family, raw)
    # each product of two quaternion entries that A needs, once, over every set
    w, x, y, z = raw.T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    X = np.empty((sets * count, 12))
    A, c = euclid_parts(X)
    A[:, 0, 0] = 1 - 2 * (yy + zz)
    A[:, 0, 1] = 2 * (xy - wz)
    A[:, 0, 2] = 2 * (xz + wy)
    A[:, 1, 0] = 2 * (xy + wz)
    A[:, 1, 1] = 1 - 2 * (xx + zz)
    A[:, 1, 2] = 2 * (yz - wx)
    A[:, 2, 0] = 2 * (xz - wy)
    A[:, 2, 1] = 2 * (yz + wx)
    A[:, 2, 2] = 1 - 2 * (xx + yy)
    c[:] = shift.reshape(sets * count, 3)
    return check_coords(family, X)
