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

# Euclid rotation blocks are re-orthonormalized after this many composures.
RENORM_EVERY = 64


class FamilyError(ValueError):
    pass


class BranchCutError(ValueError):
    """log requested at (or numerically against) the angle-pi cut."""


class GroupElement:
    __slots__ = ("family", "data", "_age")

    def __init__(self, family, data, _age=0):
        if family not in FAMILIES:
            raise FamilyError("unknown family %r" % (family,))
        self.family = family
        self.data = data
        self._age = _age  # composures since last re-orthonormalization (euclid)

    def __repr__(self):
        return "GroupElement(%s, %s)" % (self.family, self.data)


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
    err = np.abs(A.T @ A - np.eye(3)).max()
    if err > 100 * tol or abs(np.linalg.det(A) - 1.0) > 100 * tol:
        raise ValueError("rotation block is not special orthogonal (defect %.3g)" % err)


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
    q = np.array([w, x, y, z], dtype=float)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-6:
        raise ValueError("quaternion norm %.6g too far from 1" % n)
    return GroupElement("su2", q / n)


def torus(angles):
    return GroupElement("torus", np.mod(np.asarray(angles, dtype=float), 2 * np.pi))


def identity(family, dim=1):
    if family == "heisenberg":
        return heisenberg(0.0, 0.0, 0.0)
    if family == "bargmann":
        return bargmann(0.0, 0.0, 0.0, 0.0)
    if family == "euclid":
        return GroupElement("euclid", (np.eye(3), np.zeros(3)))
    if family == "su2":
        return GroupElement("su2", np.array([1.0, 0.0, 0.0, 0.0]))
    if family == "torus":
        return GroupElement("torus", np.zeros(dim))
    raise FamilyError("unknown family %r" % (family,))


def algebra(family, coords):
    return AlgebraElement(family, coords)


def covector(family, coords):
    return CoadjointVector(family, coords)


def _orthonormalize(A):
    # nearest rotation (polar factor)
    u, _, vt = np.linalg.svd(A)
    R = u @ vt
    if np.linalg.det(R) < 0:
        u[:, -1] = -u[:, -1]
        R = u @ vt
    return R


def _quat_mul(p, q):
    w1, v1 = p[0], p[1:]
    w2, v2 = q[0], q[1:]
    w = w1 * w2 - v1 @ v2
    v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
    return np.concatenate(([w], v))


def compose(g, h):
    """Product g*h (matrix product in the family's faithful representation)."""
    _check_same(g, h)
    f = g.family
    if f == "heisenberg":
        a, b, c = g.data
        a2, b2, c2 = h.data
        return GroupElement(f, np.array([a + a2 + b * c2, b + b2, c + c2]))
    if f == "bargmann":
        a, b, c, e = g.data
        a2, b2, c2, e2 = h.data
        return GroupElement(f, np.array(
            [a + a2 + b * c2 + 0.5 * b * b * e2, b + b2, c + c2 + b * e2, e + e2]))
    if f == "euclid":
        A, c = g.data
        A2, c2 = h.data
        R = A @ A2
        age = max(g._age, h._age) + 1
        if age >= RENORM_EVERY:
            R = _orthonormalize(R)
            age = 0
        return GroupElement(f, (R, A @ c2 + c), _age=age)
    if f == "su2":
        q = _quat_mul(g.data, h.data)
        return GroupElement(f, q / np.linalg.norm(q))
    if f == "torus":
        return GroupElement(f, np.mod(g.data + h.data, 2 * np.pi))
    raise FamilyError(f)


def inverse(g):
    f = g.family
    if f == "heisenberg":
        a, b, c = g.data
        return GroupElement(f, np.array([-a + b * c, -b, -c]))
    if f == "bargmann":
        a, b, c, e = g.data
        return GroupElement(f, np.array(
            [-a + b * c - 0.5 * b * b * e, -b, -c + b * e, -e]))
    if f == "euclid":
        A, c = g.data
        return GroupElement(f, (A.T.copy(), -(A.T @ c)), _age=g._age)
    if f == "su2":
        w, x, y, z = g.data
        return GroupElement(f, np.array([w, -x, -y, -z]))
    if f == "torus":
        return GroupElement(f, np.mod(-g.data, 2 * np.pi))
    raise FamilyError(f)


def _hat(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _rodrigues(axis):
    th = np.linalg.norm(axis)
    J = _hat(axis)
    if th < 1e-8:
        # series keeps full accuracy through the removable singularity
        return np.eye(3) + J + 0.5 * (J @ J)
    return np.eye(3) + (np.sin(th) / th) * J + ((1 - np.cos(th)) / th ** 2) * (J @ J)


def _translation_factor(axis):
    """V with exp(axis, rate) = (rodrigues(axis), V rate)."""
    th = np.linalg.norm(axis)
    J = _hat(axis)
    if th < 1e-8:
        return np.eye(3) + 0.5 * J + (J @ J) / 6.0
    return (np.eye(3) + ((1 - np.cos(th)) / th ** 2) * J
            + ((th - np.sin(th)) / th ** 3) * (J @ J))


def exp(Z):
    f = Z.family
    if f == "heisenberg":
        al, be, ga = Z.coords
        return GroupElement(f, np.array([al + 0.5 * be * ga, be, ga]))
    if f == "bargmann":
        al, be, ga, ep = Z.coords
        return GroupElement(f, np.array(
            [al + 0.5 * be * ga + be * be * ep / 6.0, be, ga + 0.5 * be * ep, ep]))
    if f == "euclid":
        axis, rate = Z.coords[:3], Z.coords[3:]
        return GroupElement(f, (_rodrigues(axis), _translation_factor(axis) @ rate))
    if f == "su2":
        v = Z.coords
        th = np.linalg.norm(v)
        if th < 1e-12:
            half = 0.5 * v  # sin(t/2)/t -> 1/2
        else:
            half = (np.sin(0.5 * th) / th) * v
        return GroupElement(f, np.concatenate(([np.cos(0.5 * th)], half)))
    if f == "torus":
        return GroupElement(f, np.mod(Z.coords, 2 * np.pi))
    raise FamilyError(f)


def _rotation_log(A, guard=DEFAULT.branch_guard):
    cos_th = 0.5 * (np.trace(A) - 1.0)
    cos_th = min(1.0, max(-1.0, cos_th))
    th = np.arccos(cos_th)
    if th >= np.pi - guard:
        raise BranchCutError("rotation angle %.12g at the principal-branch cut" % th)
    if th < 1e-8:
        w = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
        return 0.5 * w  # sin th ~ th
    w = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
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


def _cross(a, b):
    """a x b for 3-vectors: np.cross costs microseconds of argument
    handling per call, and commuting() brackets every pair of every tuple."""
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


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
            [_cross(a1, a2), _cross(a1, r2) - _cross(a2, r1)]))
    if f == "su2":
        return AlgebraElement(f, _cross(Z.coords, W.coords))
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


def pairing(w, Z):
    _check_same(w, Z)
    f = w.family
    if f == "heisenberg":
        M, p, q = w.coords
        al, be, ga = Z.coords
        return p * ga - q * be - M * al
    if f == "bargmann":
        M, p, q, E = w.coords
        al, be, ga, ep = Z.coords
        return p * ga - q * be - E * ep - M * al
    if f == "euclid":
        return float(w.coords[:3] @ Z.coords[:3] + w.coords[3:] @ Z.coords[3:])
    if f in ("su2", "torus"):
        return float(w.coords @ Z.coords)
    raise FamilyError(f)


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
    """Seeded generic elements, one list per call."""
    out = []
    for _ in range(count):
        if family == "heisenberg":
            out.append(heisenberg(*rng.uniform(-scale, scale, 3)))
        elif family == "bargmann":
            out.append(bargmann(*rng.uniform(-scale, scale, 4)))
        elif family == "euclid":
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            A = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
            out.append(euclid(A, rng.uniform(-scale, scale, 3)))
        elif family == "su2":
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            out.append(su2(*q))
        elif family == "torus":
            out.append(torus(rng.uniform(0, 2 * np.pi, dim)))
        else:
            raise FamilyError(family)
    return out
