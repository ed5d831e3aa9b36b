"""Canonical coordinates, group law, exp/log, brackets and (co)adjoint actions
for the four concrete families (plus tori as the abelian degenerate case).

Chart conventions
-----------------
heisenberg  (a, b, c)     <->  3x3 unipotent  [[1, b, a], [0, 1, c], [0, 0, 1]]
bargmann    (a, b, c, e)  <->  4x4 unipotent  [[1, b, b^2/2, a],
                                               [0, 1, b,     c],
                                               [0, 0, 1,     e],
                                               [0, 0, 0,     1]]
euclid      (A, c)        <->  4x4 affine     [[A, c], [0, 1]],  A in SO(3)
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

import json

import numpy as np

from .tolerances import DEFAULT

FAMILIES = ("heisenberg", "bargmann", "euclid", "su2", "torus")
# algebra coordinate lengths; a torus has its own dimension
ALGEBRA_DIM = {"heisenberg": 3, "bargmann": 4, "euclid": 6, "su2": 3}

# Euclid rotation blocks are re-orthonormalized after this many composures.
RENORM_EVERY = 64


class FamilyError(ValueError):
    pass


class BranchCutError(ValueError):
    """log requested at (or numerically against) the angle-pi cut."""


class GroupElement:
    """An element or a stack: `data` is a coordinate stack (see the group
    law below), of leading shape () for a single element, which has no
    len() and no indexing."""
    __slots__ = ("family", "data", "_age")

    def __init__(self, family, data, _age=0):
        if family not in FAMILIES:
            raise FamilyError("unknown family %r" % (family,))
        self.family = family
        self.data = data
        self._age = _age  # composures since last re-orthonormalization (euclid)

    def __repr__(self):
        return "GroupElement(%s, %s)" % (self.family, self.data)

    def __len__(self):
        shape = lead_shape(self.data)
        if not shape:
            raise TypeError("a single %s element is not a stack" % self.family)
        return shape[0]

    def __getitem__(self, index):
        len(self)   # along the leading axis, so only on stacks
        return GroupElement(self.family, map_coords(lambda x: x[index],
                                                    self.data), self._age)


class AlgebraElement:
    __slots__ = ("family", "coords")

    def __init__(self, family, coords):
        if family not in FAMILIES:
            raise FamilyError("unknown family %r" % (family,))
        self.family = family
        self.coords = np.asarray(coords, dtype=float)

    def __repr__(self):
        return "AlgebraElement(%s, %s)" % (self.family, self.coords)


class CoadjointVector:
    __slots__ = ("family", "coords")

    def __init__(self, family, coords):
        if family not in FAMILIES:
            raise FamilyError("unknown family %r" % (family,))
        self.family = family
        self.coords = np.asarray(coords, dtype=float)

    def __repr__(self):
        return "CoadjointVector(%s, %s)" % (self.family, self.coords)


def _check_same(x, y):
    if x.family != y.family:
        raise FamilyError("family mismatch: %s vs %s" % (x.family, y.family))


def _check_euclid_rotation(A, tol=DEFAULT.ortho):
    """Raise unless every block of a (..., 3, 3) stack is in SO(3).  Each
    gate reads `not (defect <= bound)`, so NaN and inf fail it."""
    err = np.abs(np.swapaxes(A, -1, -2) @ A - np.eye(3)).max(initial=0.0)
    det_defect = np.abs(np.linalg.det(A) - 1.0).max(initial=0.0)
    if not (err <= 100 * tol and det_defect <= 100 * tol):
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


def heisenberg(a, b, c):
    return GroupElement("heisenberg", np.array([a, b, c], dtype=float))


def bargmann(a, b, c, e):
    return GroupElement("bargmann", np.array([a, b, c, e], dtype=float))


def euclid(A, c):
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    _check_euclid_rotation(A)
    return GroupElement("euclid", (A, c))


def su2(w, x, y, z):
    return GroupElement("su2", _unit_quaternions(np.array([w, x, y, z],
                                                          dtype=float)))


def torus(angles):
    return GroupElement("torus", np.mod(np.asarray(angles, dtype=float), 2 * np.pi))


def identity(family, dim=1):
    return exp(AlgebraElement(family, np.zeros(ALGEBRA_DIM.get(family, dim))))


def algebra(family, coords):
    return AlgebraElement(family, coords)


def covector(family, coords):
    return CoadjointVector(family, coords)


def orthonormalize(A):
    """Nearest rotation (polar factor) of each block of a (..., 3, 3) stack."""
    u, _, vt = np.linalg.svd(A)
    u[..., -1] *= np.where(np.linalg.det(u @ vt) < 0, -1.0, 1.0)[..., None]
    return u @ vt


# ---------------------------------------------------------------------------
# the group law on coordinate stacks
#
# A stack carries any broadcastable leading axes in front of the chart
# coordinates: (..., 3) heisenberg, (..., 4) bargmann and su2, (..., d)
# torus, and euclid (A, c) pairs of shapes (..., 3, 3) and (..., 3).
# Algebra stacks are (..., dim), euclid (..., 6) as (axis, rate).

def lead_shape(X):
    """The stack shape of a coordinate stack: () for a single element."""
    return np.shape(X[1] if isinstance(X, tuple) else X)[:-1]


def map_coords(fn, *stacks):
    """fn over coordinate stacks of one family, array by array: both arrays
    of euclid (A, c) pairs in turn, so fn sees leading axes first."""
    if isinstance(stacks[0], tuple):
        return tuple(map(fn, *stacks))
    return fn(*stacks)


def expand_coords(X, axis):
    """Coordinate stack X with a new broadcast axis at leading position
    `axis`, in front of the coordinates."""
    return map_coords(lambda x: np.expand_dims(x, axis), X)


def from_coords(family, X):
    """The element stack of coordinate stack X: euclid rotation blocks are
    checked and su2 quaternions checked and normalized, once over the
    whole stack."""
    if family == "euclid":
        _check_euclid_rotation(X[0])
    elif family == "su2":
        X = _unit_quaternions(X)
    return GroupElement(family, X)


def stack(family, elements):
    """Single elements of `family`, listed, as one stack."""
    if not elements:
        raise ValueError("no elements to stack")
    if any(g.family != family for g in elements):
        raise FamilyError("elements must all be %s elements" % family)
    return GroupElement(family, map_coords(
        lambda *xs: np.array(xs, dtype=float), *(g.data for g in elements)))


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
        A1, c1 = X
        A2, c2 = Y
        return (np.matmul(A1, A2), _matvec(A1, c2) + c1)
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


def inverse_coords(family, X):
    """Coordinates of x^-1."""
    if family == "heisenberg":
        a, b, c = X[..., 0], X[..., 1], X[..., 2]
        return _join([-a + b * c, -b, -c])
    if family == "bargmann":
        a, b, c, e = X[..., 0], X[..., 1], X[..., 2], X[..., 3]
        return _join([-a + b * c - 0.5 * b * b * e, -b, -c + b * e, -e])
    if family == "euclid":
        A, c = X
        At = np.swapaxes(A, -1, -2)
        return (At, -_matvec(At, c))
    if family == "su2":
        return X * np.array([1.0, -1.0, -1.0, -1.0])
    if family == "torus":
        return np.mod(-X, 2 * np.pi)
    raise FamilyError("unknown family %r" % (family,))


def _hat(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


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


def _translation_factor(axis):
    """V with exp(axis, rate) = (rodrigues(axis), V rate)."""
    s1, s2, s3 = _rotation_factors(np.linalg.norm(axis))
    return s1 * np.eye(3) + s2 * _hat(axis) + s3 * np.outer(axis, axis)


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
        lead = C.shape[:-1]
        if not np.any(C[..., :3]):
            # pure translations, exactly what the formulas below give; views,
            # since copying them would double the cost of a translation flow
            return np.broadcast_to(np.eye(3), lead + (3, 3)), C[..., 3:]
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
        A = np.empty(lead + (3, 3))
        A[..., 0, 0], A[..., 0, 1], A[..., 0, 2] = co + sx * x, xy - uz, xz + uy
        A[..., 1, 0], A[..., 1, 1], A[..., 1, 2] = xy + uz, co + sy * y, yz - ux
        A[..., 2, 0], A[..., 2, 1], A[..., 2, 2] = xz - uy, yz + ux, co + sz * z
        g = s3 * (x * rx + y * ry + z * rz)
        return (A, _join([s1 * rx + sy * rz - sz * ry + g * x,
                          s1 * ry + sz * rx - sx * rz + g * y,
                          s1 * rz + sx * ry - sy * rx + g * z]))
    if family == "su2":
        th = np.sqrt(np.sum(C * C, axis=-1))
        small = th < 1e-12
        half = np.where(small, 0.5, np.sin(0.5 * th) / np.where(small, 1.0, th))
        return np.concatenate([np.cos(0.5 * th)[..., None],
                               half[..., None] * C], axis=-1)
    if family == "torus":
        return np.mod(C, 2 * np.pi)
    raise FamilyError("unknown family %r" % (family,))


# ---------------------------------------------------------------------------
# the group law on elements

def compose(g, h):
    """Product g*h of elements or stacks; SU(2) products are renormalized and
    euclid rotation blocks re-orthonormalized every RENORM_EVERY composures."""
    _check_same(g, h)
    f = g.family
    data = compose_coords(f, g.data, h.data)
    if f == "su2":
        return GroupElement(f, _unit_quaternions(data))
    if f == "euclid":
        age = max(g._age, h._age) + 1
        if age >= RENORM_EVERY:
            return GroupElement(f, (orthonormalize(data[0]), data[1]))
        return GroupElement(f, data, _age=age)
    return GroupElement(f, data)


def inverse(g):
    return GroupElement(g.family, inverse_coords(g.family, g.data),
                        _age=g._age)


def exp(Z):
    return GroupElement(Z.family, exp_coords(Z.family, Z.coords))


def _rotation_log(A, guard=DEFAULT.branch_guard):
    cos_th = 0.5 * (np.trace(A) - 1.0)
    cos_th = min(1.0, max(-1.0, cos_th))
    th = np.arccos(cos_th)
    if th >= np.pi - guard:
        raise BranchCutError("rotation angle %.12g at the principal-branch cut" % th)
    w = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    if th < 1e-8:
        return 0.5 * w  # sin th ~ th
    return (th / (2.0 * np.sin(th))) * w


def log(g):
    f = g.family
    if f == "heisenberg":
        a, b, c = g.data
        return AlgebraElement(f, np.array([a - 0.5 * b * c, b, c]))
    if f == "bargmann":
        a, b, c, e = g.data
        return AlgebraElement(f, np.array(
            [a - 0.5 * b * c + b * b * e / 12.0, b, c - 0.5 * b * e, e]))
    if f == "euclid":
        A, c = g.data
        axis = _rotation_log(A)
        rate = np.linalg.solve(_translation_factor(axis), c)
        return AlgebraElement(f, np.concatenate([axis, rate]))
    if f == "su2":
        w, x, y, z = g.data
        s = np.linalg.norm([x, y, z])
        th = 2.0 * np.arctan2(s, w)
        if th >= np.pi - DEFAULT.branch_guard:
            raise BranchCutError("rotation angle %.12g at the principal-branch cut" % th)
        if s < 1e-12:
            return AlgebraElement(f, 2.0 * np.array([x, y, z]))
        return AlgebraElement(f, (th / s) * np.array([x, y, z]))
    if f == "torus":
        lifted = np.mod(g.data + np.pi, 2 * np.pi) - np.pi
        return AlgebraElement(f, lifted)
    raise FamilyError(f)


def bracket(Z, W):
    _check_same(Z, W)
    f = Z.family
    if f == "heisenberg":
        _, be, ga = Z.coords
        _, be2, ga2 = W.coords
        return AlgebraElement(f, np.array([be * ga2 - be2 * ga, 0.0, 0.0]))
    if f == "bargmann":
        _, be, ga, ep = Z.coords
        _, be2, ga2, ep2 = W.coords
        return AlgebraElement(f, np.array(
            [be * ga2 - be2 * ga, 0.0, be * ep2 - be2 * ep, 0.0]))
    if f == "euclid":
        a1, r1 = Z.coords[:3], Z.coords[3:]
        a2, r2 = W.coords[:3], W.coords[3:]
        return AlgebraElement(f, np.concatenate(
            [np.cross(a1, a2), np.cross(a1, r2) - np.cross(a2, r1)]))
    if f == "su2":
        return AlgebraElement(f, np.cross(Z.coords, W.coords))
    if f == "torus":
        return AlgebraElement(f, np.zeros_like(Z.coords))
    raise FamilyError(f)


def commuting(Zs, tol=DEFAULT.commuting):
    """True iff all pairwise brackets vanish below tol."""
    for i in range(len(Zs)):
        for j in range(i + 1, len(Zs)):
            if np.linalg.norm(bracket(Zs[i], Zs[j]).coords) >= tol:
                return False
    return True


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


def pairing(w, Z):
    _check_same(w, Z)
    return float(pairing_coords(w.family, w.coords, Z.coords))


def adjoint(g, Z):
    """Ad(g) Z = g Z g^{-1} in the faithful representation."""
    _check_same(g, Z)
    f = g.family
    if f == "heisenberg":
        _, b, c = g.data
        al, be, ga = Z.coords
        return AlgebraElement(f, np.array([al + b * ga - c * be, be, ga]))
    if f == "bargmann":
        _, b, c, e = g.data
        al, be, ga, ep = Z.coords
        return AlgebraElement(f, np.array(
            [al + b * ga - c * be + 0.5 * b * b * ep, be, ga + b * ep - e * be, ep]))
    if f == "euclid":
        A, c = g.data
        ax, rate = Z.coords[:3], Z.coords[3:]
        Aax = A @ ax
        return AlgebraElement(f, np.concatenate([Aax, A @ rate + np.cross(c, Aax)]))
    if f == "su2":
        # U ((i/2) v.sigma) U^dag; with this chart U = exp((i/2) theta n.sigma)
        # rotates v by -theta about n.
        w, x, y, z = g.data
        n = np.array([x, y, z])
        v = Z.coords
        # quaternion sandwich q^{-1} (0,v) q gives the -theta rotation directly
        t = 2.0 * np.cross(n, v)
        return AlgebraElement(f, v - w * t + np.cross(n, t))
    if f == "torus":
        return AlgebraElement(f, Z.coords.copy())
    raise FamilyError(f)


def coadjoint(g, w):
    """Dual action fixed by <coadjoint(g) w, Z> = <w, adjoint(g^{-1}) Z>."""
    _check_same(g, w)
    f = g.family
    if f == "heisenberg":
        _, b, c = g.data
        M, p, q = w.coords
        return CoadjointVector(f, np.array([M, p + M * b, q + M * c]))
    if f == "bargmann":
        _, b, c, e = g.data
        M, p, q, E = w.coords
        return CoadjointVector(f, np.array(
            [M, p + M * b, q + M * (c - b * e) - p * e, E + p * b + 0.5 * M * b * b]))
    if f == "euclid":
        A, c = g.data
        L, P = w.coords[:3], w.coords[3:]
        AP = A @ P
        return CoadjointVector(f, np.concatenate([A @ L + np.cross(c, AP), AP]))
    if f == "su2":
        gi = inverse(g)
        # <Ad*(g)x, v> = x . Ad(g^{-1}) v; Ad(g^{-1}) is the transpose rotation
        R = np.column_stack([adjoint(gi, AlgebraElement(f, e)).coords
                             for e in np.eye(3)])
        return CoadjointVector(f, R.T @ w.coords)
    if f == "torus":
        return CoadjointVector(f, w.coords.copy())
    raise FamilyError(f)


# ---------------------------------------------------------------------------
# canonical JSON encodings

def to_json_dict(g):
    f = g.family
    if f == "heisenberg":
        a, b, c = g.data
        return {"family": f, "a": a, "b": b, "c": c}
    if f == "bargmann":
        a, b, c, e = g.data
        return {"family": f, "a": a, "b": b, "c": c, "e": e}
    if f == "euclid":
        A, c = g.data
        return {"family": f, "A": A.tolist(), "c": c.tolist()}
    if f == "su2":
        return {"family": f, "q": g.data.tolist()}
    if f == "torus":
        return {"family": f, "angles": g.data.tolist()}
    raise FamilyError(f)


def from_json_dict(d):
    f = d.get("family")
    if f == "heisenberg":
        return heisenberg(d["a"], d["b"], d["c"])
    if f == "bargmann":
        return bargmann(d["a"], d["b"], d["c"], d["e"])
    if f == "euclid":
        return euclid(np.array(d["A"], dtype=float), np.array(d["c"], dtype=float))
    if f == "su2":
        q = np.array(d["q"], dtype=float)
        return su2(*q)
    if f == "torus":
        return torus(d["angles"])
    raise FamilyError("unknown family %r" % (f,))


def dumps(g):
    return json.dumps(to_json_dict(g), sort_keys=True)


def loads(s):
    return from_json_dict(json.loads(s))


def random_elements(family, rng, count, scale=3.0, dim=1):
    """Seeded generic elements, drawn as one stack of `count`:
    uniform coordinates in [-scale, scale) on heisenberg and bargmann,
    uniform angles on a torus of dimension dim, and Gaussian quaternions
    normalized to su2 elements or to euclid rotation blocks (with uniform
    translations)."""
    if family in ("heisenberg", "bargmann"):
        return from_coords(family, rng.uniform(-scale, scale,
                                               (count, ALGEBRA_DIM[family])))
    if family == "torus":
        return from_coords(family, np.mod(
            rng.uniform(0, 2 * np.pi, (count, dim)), 2 * np.pi))
    if family not in ("su2", "euclid"):
        raise FamilyError(family)
    Q = rng.standard_normal((count, 4))
    Q /= np.sqrt(np.vecdot(Q, Q))[:, None]
    if family == "su2":
        return from_coords(family, Q)
    w, x, y, z = Q.T
    A = np.empty((count, 3, 3))
    A[:, 0, 0] = 1 - 2 * (y * y + z * z)
    A[:, 0, 1] = 2 * (x * y - w * z)
    A[:, 0, 2] = 2 * (x * z + w * y)
    A[:, 1, 0] = 2 * (x * y + w * z)
    A[:, 1, 1] = 1 - 2 * (x * x + z * z)
    A[:, 1, 2] = 2 * (y * z - w * x)
    A[:, 2, 0] = 2 * (x * z - w * y)
    A[:, 2, 1] = 2 * (y * z + w * x)
    A[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return from_coords(family, (A, rng.uniform(-scale, scale, (count, 3))))
