"""Bounded-term convex-combination membership oracles.

``conv_n(Y)`` is the set of combinations ``t_1 y_1 + ... + t_n y_n`` with
nonnegative coefficients summing to one; ``conv_2(X, Y)`` the segments
``t x + (1-t) y``.  Membership is decided exactly: a probe outside the
hull is rejected by a checked Farkas certificate (``linalg.farkas``), the
others by ``linalg.solve_nonneg``; every positive answer carries a
certificate that is re-verified by plain arithmetic before it is
returned.  ``hull_contains`` decides membership in the full hull, with no
bound on the terms, by the Farkas test alone.
"""

from dataclasses import dataclass

from ascolim import linalg
from ascolim.errors import CertificateError, InputError
from ascolim.geometry import as_point, combine, vsub
from ascolim.rats import RAT


class FinitePointSet:
    """Non-empty finite list of exact points in a common ambient space."""

    def __init__(self, points):
        pts = [as_point(p) for p in points]
        if not pts:
            raise InputError("empty point set")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise InputError("points of mixed ambient dimension")
        self.points = pts
        self.dim = dim

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class ConvexCertificate:
    """Witness ``x == sum(c * p)`` with ``c >= 0`` summing to one."""

    points: tuple
    coefficients: tuple

    def verify(self, x):
        if any(c < 0 for c in self.coefficients):
            return False
        if sum(self.coefficients) != 1:
            return False
        return combine(self.points, self.coefficients) == tuple(x)


@dataclass(frozen=True)
class SegmentCertificate:
    """Witness ``p == t*x + (1-t)*y`` with ``t`` in [0, 1]."""

    x: tuple
    y: tuple
    t: object

    def verify(self, p):
        if not 0 <= self.t <= 1:
            return False
        got = tuple(self.t * a + (1 - self.t) * b
                    for a, b in zip(self.x, self.y))
        return got == tuple(p)


def _checked(cert, x):
    """``cert`` if it verifies at ``x``; a ``CertificateError`` otherwise."""
    if not cert.verify(x):
        raise CertificateError(f"{cert!r} does not verify at {x!r}")
    return cert


def _lifted(pts):
    """Columns ``(y, 1)`` of the points: the convex-combination system."""
    dim = len(pts[0])
    return [[y[d] for y in pts] for d in range(dim)] + [[RAT(1)] * len(pts)]


def conv_n_contains(point_set, n, x):
    """Is ``x`` a convex combination of at most ``n`` points of the set?

    Returns ``(verdict, certificate)``; the certificate is ``None`` on a
    negative verdict and otherwise lists the points of the smallest
    support found with their positive coefficients.  A probe outside the
    hull is rejected by a checked Farkas certificate, the others by one
    exact feasibility search over the supports of at most ``n`` points.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"n must be an integer of at least 1, got {n!r}")
    if not isinstance(point_set, FinitePointSet):
        point_set = FinitePointSet(point_set)
    x = as_point(x)
    if len(x) != point_set.dim:
        raise InputError("probe point of wrong dimension")
    pts = point_set.points
    lifted, rhs = _lifted(pts), list(x) + [RAT(1)]
    if linalg.farkas(lifted, rhs) is not None:
        return False, None
    sol = linalg.solve_nonneg(lifted, rhs, max_support=n)
    if sol is None:
        return False, None
    support = [j for j, v in enumerate(sol) if v]
    cert = ConvexCertificate(tuple(pts[j] for j in support),
                             tuple(sol[j] for j in support))
    return True, _checked(cert, x)


def conv2_pair_contains(set_x, set_y, p):
    """Is ``p`` on a segment between ``set_x`` and ``set_y``?

    Exact; returns ``(verdict, SegmentCertificate | None)``.
    """
    if not isinstance(set_x, FinitePointSet):
        set_x = FinitePointSet(set_x)
    if not isinstance(set_y, FinitePointSet):
        set_y = FinitePointSet(set_y)
    if set_x.dim != set_y.dim:
        raise InputError("sets of mixed ambient dimension")
    p = as_point(p)
    if len(p) != set_x.dim:
        raise InputError("probe point of wrong dimension")
    for x in set_x.points:
        for y in set_y.points:
            t = _segment_parameter(x, y, p)
            if t is not None:
                return True, _checked(SegmentCertificate(x, y, t), p)
    return False, None


def _segment_parameter(x, y, p):
    """Exact ``t`` in [0,1] with ``p = t*x + (1-t)*y``, or ``None``."""
    diff = vsub(x, y)
    t = None
    for d, dd in enumerate(diff):
        if dd != 0:
            t = (p[d] - y[d]) / dd
            break
    if t is None:  # x == y
        return RAT(0) if tuple(p) == tuple(y) else None
    if not 0 <= t <= 1:
        return None
    for d in range(len(p)):
        if t * x[d] + (1 - t) * y[d] != p[d]:
            return None
    return t


def conv2_with_convn_contains(point_set, n, p):
    """Membership of ``p`` in ``conv_2(X, conv_n(X))``, decided exactly.

    Searches, for each ``x`` in ``X``, the ray ``{p + s*(p - x) : s >= 0}``
    for a point of ``conv_n(X)`` (the segment endpoint ``q``), including
    the degenerate ``t = 1`` case ``p = x``.  The ``s = 0`` end of every
    ray is ``p`` itself, so ``p in conv_n(X)`` is tested once; each ray
    then only searches supports with ``s > 0``.  A probe outside
    ``conv(X)``, which holds the set, is rejected first by a checked Farkas
    certificate.  Returns the verdict plus a witness ``(x, t, q)`` with
    ``p == t*x + (1-t)*q`` when positive.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"n must be an integer of at least 1, got {n!r}")
    if not isinstance(point_set, FinitePointSet):
        point_set = FinitePointSet(point_set)
    p = as_point(p)
    if len(p) != point_set.dim:
        raise InputError("probe point of wrong dimension")
    pts = point_set.points
    for x in pts:
        if tuple(x) == tuple(p):
            return True, (x, RAT(1), x)
    lifted, rhs = _lifted(pts), list(p) + [RAT(1)]
    if linalg.farkas(lifted, rhs) is not None:
        return False, None
    if linalg.solve_nonneg(lifted, rhs, max_support=n) is not None:
        return True, (pts[0], RAT(0), p)
    for x in pts:
        # p + s*(p - x) = sum(mu_i y_i), mu >= 0, sum mu = 1, s > 0
        direction = vsub(p, x)
        mat = [[-dd] + row for dd, row in zip(direction, lifted)]
        mat.append([RAT(0)] + lifted[-1])
        sol = linalg.solve_nonneg(mat, rhs, max_support=n + 1,
                                  require=(0,))
        if sol is None:
            continue
        s, mu = sol[0], sol[1:]
        q = combine(pts, mu)
        t = s / (1 + s)
        if any(t * x[d] + (1 - t) * q[d] != p[d] for d in range(len(p))):
            raise CertificateError(
                f"witness {(x, t, q)!r} does not verify at {p!r}")
        return True, (x, t, q)
    return False, None


# -- full-hull membership ---------------------------------------------------


def hull_contains(point_set, x):
    """Is ``x`` in the convex hull of the set, with no bound on the terms?

    ``x`` is a convex combination of the points exactly when the lifted
    system ``[(y, 1)] mu = (x, 1)`` has a solution ``mu >= 0``, which
    ``linalg.farkas`` decides; a negative verdict is proved by its integer
    certificate, checked before it is returned.
    """
    if not isinstance(point_set, FinitePointSet):
        point_set = FinitePointSet(point_set)
    x = as_point(x)
    if len(x) != point_set.dim:
        raise InputError("probe point of wrong dimension")
    return linalg.farkas(_lifted(point_set.points), list(x) + [RAT(1)]) is None
