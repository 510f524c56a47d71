"""Shape-predicate algebra over R^D.

Primitives (balls, halfspaces, affine subspaces, the complement of a
codimension-two coordinate plane, full space) combine through finite
intersections, unions, complements and translations.  Membership of a
rational point is decided exactly; each node reports convexity and
openness.  On top of plain membership the module offers partial symbolic
reasoning: ``region_subset`` answers ``A ⊆ B`` for the primitive pairs
chart surgery needs (``None`` means "unknown, sample-check"), and
``contains_hull`` decides containment of a point set's convex hull (a
segment, a simplex) exactly for convex nodes and for the plane
complement.
"""

from dataclasses import dataclass

from ascolim import linalg
from ascolim.errors import InputError
from ascolim.geometry import as_point, dot, sqdist, vadd, vsub
from ascolim.rats import RAT, scale_common, to_rat


def _check_dim(x, dim, kind):
    """``InputError`` unless the point ``x`` has ``dim`` coordinates."""
    if len(x) != dim:
        raise InputError(f"point dimension {len(x)} != {kind} dimension {dim}")


class Region:
    dim = None
    is_convex = False
    is_open = False

    def contains(self, x):
        raise NotImplementedError

    def contains_hull(self, points):
        """Exact containment of ``conv(points)`` where decidable.

        Convex regions decide by the vertices alone; the plane complement
        decides by a separating direction or an exact feasibility test.
        ``None`` means sample.
        """
        if self.is_convex:
            return all(self.contains(p) for p in points)
        return None

    def translate(self, shift):
        return Translate(self, shift)


@dataclass(frozen=True)
class FullSpace(Region):
    dim: int
    is_convex = True
    is_open = True

    def contains(self, x):
        return len(x) == self.dim

    def translate(self, shift):
        return self


class _Ball(Region):
    is_convex = True

    def __init__(self, center, radius):
        self.center = as_point(center)
        self.radius = to_rat(radius)
        if self.radius <= 0:
            raise InputError("ball radius must be positive")
        self.dim = len(self.center)

    def __repr__(self):
        return f"{type(self).__name__}({self.center}, {self.radius})"

    def translate(self, shift):
        return type(self)(vadd(self.center, as_point(shift)), self.radius)


class OpenBall(_Ball):
    is_open = True

    def contains(self, x):
        _check_dim(x, self.dim, "ball")
        return sqdist(x, self.center) < self.radius ** 2


class ClosedBall(_Ball):
    is_open = False

    def contains(self, x):
        _check_dim(x, self.dim, "ball")
        return sqdist(x, self.center) <= self.radius ** 2


class HalfSpace(Region):
    """``{x : normal . x > offset}`` (strict) or ``>=`` (non-strict)."""

    is_convex = True

    def __init__(self, normal, offset, strict=True):
        self.normal = as_point(normal)
        self.offset = to_rat(offset)
        self.strict = strict
        self.dim = len(self.normal)
        # the normals of chart surgery have few nonzero entries
        self._terms = tuple((i, c) for i, c in enumerate(self.normal)
                            if c != 0)
        if not self._terms:
            raise InputError("zero normal")

    @property
    def is_open(self):
        return self.strict

    def contains(self, x):
        _check_dim(x, self.dim, "halfspace")
        v = sum(c * x[i] for i, c in self._terms)
        return v > self.offset if self.strict else v >= self.offset

    def translate(self, shift):
        return HalfSpace(self.normal,
                         self.offset + dot(self.normal, as_point(shift)),
                         self.strict)

    def __repr__(self):
        op = ">" if self.strict else ">="
        return f"HalfSpace({self.normal} . x {op} {self.offset})"


class AffineSubspace(Region):
    """``{base + span(directions)}``; membership by exact solve."""

    is_convex = True
    is_open = False

    def __init__(self, base, directions):
        self.base = as_point(base)
        self.directions = [as_point(d) for d in directions]
        self.dim = len(self.base)
        for d in self.directions:
            if len(d) != self.dim:
                raise InputError(f"direction dimension {len(d)} != base "
                                 f"dimension {self.dim}")

    def contains(self, x):
        _check_dim(x, self.dim, "subspace")
        if not self.directions:
            return tuple(x) == tuple(self.base)
        mat = [[d[i] for d in self.directions] for i in range(self.dim)]
        return linalg.solve(mat, list(vsub(x, self.base))) is not None


class CoordinatePlaneComplement(Region):
    """R^D minus the codimension-two plane ``{x_i = x_j = 0}``."""

    is_convex = False
    is_open = True

    def __init__(self, dim, i, j):
        if not (0 <= i < dim and 0 <= j < dim and i != j):
            raise InputError("bad coordinate pair")
        self.dim = dim
        self.i, self.j = i, j

    def contains(self, x):
        return x[self.i] != 0 or x[self.j] != 0

    def contains_hull(self, points):
        """Does ``conv(points)`` avoid the plane?  By Farkas' lemma it does
        exactly when some ``y`` has ``y.q_k > 0`` for the projection
        ``q_k`` of every point to the coordinates ``(i, j)``.  The sum
        ``y = sum(q_k)`` is tried first, on the projections scaled once to
        integers; the inequality is strict, so a point on the plane never
        passes it.  When it fails, ``linalg.solve_nonneg`` decides whether
        a convex combination of the ``q_k`` is the origin."""
        pts = list(points)
        qi, qj = [p[self.i] for p in pts], [p[self.j] for p in pts]
        ints, _ = scale_common(qi + qj)
        ni, nj = ints[:len(pts)], ints[len(pts):]
        yi, yj = sum(ni), sum(nj)
        if all(yi * a + yj * b > 0 for a, b in zip(ni, nj)):
            return True
        rows = [qi, qj, [RAT(1)] * len(pts)]
        rhs = [RAT(0), RAT(0), RAT(1)]
        return linalg.solve_nonneg(rows, rhs) is None

    def translate(self, shift):
        s = as_point(shift)
        if s[self.i] == 0 and s[self.j] == 0:
            return self
        return Translate(self, s)

    def __repr__(self):
        return f"CoordinatePlaneComplement(dim={self.dim}, " \
               f"i={self.i}, j={self.j})"


class Translate(Region):
    """Generic shifted region (primitives override with closed forms)."""

    def __init__(self, region, shift):
        self.region = region
        self.shift = as_point(shift)
        self.dim = region.dim

    @property
    def is_convex(self):
        return self.region.is_convex

    @property
    def is_open(self):
        return self.region.is_open

    def contains(self, x):
        return self.region.contains(vsub(x, self.shift))

    def contains_hull(self, points):
        return self.region.contains_hull([vsub(p, self.shift)
                                          for p in points])


class Intersection(Region):
    def __init__(self, parts):
        self.parts = [p for p in parts]
        if not self.parts:
            raise InputError("empty intersection; use FullSpace")
        self.dim = self.parts[0].dim

    @property
    def is_convex(self):
        return all(p.is_convex for p in self.parts)

    @property
    def is_open(self):
        return all(p.is_open for p in self.parts)

    def contains(self, x):
        return all(p.contains(x) for p in self.parts)

    def contains_hull(self, points):
        got = [part.contains_hull(points) for part in self.parts]
        if all(g is True for g in got):
            return True
        if any(g is False for g in got):
            return False
        return None

    def translate(self, shift):
        return Intersection([p.translate(shift) for p in self.parts])

    def __repr__(self):
        return f"Intersection({self.parts!r})"


class Union(Region):
    def __init__(self, parts):
        self.parts = [p for p in parts]
        if not self.parts:
            raise InputError("empty union")
        self.dim = self.parts[0].dim

    @property
    def is_open(self):
        return all(p.is_open for p in self.parts)

    def contains(self, x):
        return any(p.contains(x) for p in self.parts)

    def contains_hull(self, points):
        if any(part.contains_hull(points) for part in self.parts):
            return True
        if any(not self.contains(v) for v in points):
            return False
        return None

    def translate(self, shift):
        return Union([p.translate(shift) for p in self.parts])


class Complement(Region):
    def __init__(self, region):
        self.region = region
        self.dim = region.dim

    @property
    def is_open(self):
        return not self.region.is_open

    def contains(self, x):
        return not self.region.contains(x)


def region_subset(inner, outer):
    """Symbolic ``inner ⊆ outer``; ``None`` when no rule applies."""
    if isinstance(outer, FullSpace):
        return True
    if isinstance(inner, Translate):
        shifted = _push_translate(inner)
        if shifted is not None:
            return region_subset(shifted, outer)
    if isinstance(outer, Translate):
        shifted = _push_translate(outer)
        if shifted is not None:
            return region_subset(inner, shifted)
    if isinstance(outer, Intersection):
        got = [region_subset(inner, p) for p in outer.parts]
        if all(g is True for g in got):
            return True
        if any(g is False for g in got):
            return False
        return None
    if isinstance(inner, Union):
        got = [region_subset(p, outer) for p in inner.parts]
        if all(g is True for g in got):
            return True
        if any(g is False for g in got):
            return False
        return None
    if isinstance(inner, Intersection):
        if any(region_subset(p, outer) is True for p in inner.parts):
            return True
        return None
    if isinstance(outer, Union):
        if any(region_subset(inner, p) is True for p in outer.parts):
            return True
        return None
    if isinstance(inner, _Ball):
        return _ball_subset(inner, outer)
    if isinstance(inner, HalfSpace) and isinstance(outer, HalfSpace):
        return _halfspace_subset(inner, outer)
    return None


def _push_translate(node):
    moved = node.region.translate(node.shift)
    if not isinstance(moved, Translate):
        return moved
    return None


def _ball_subset(ball, outer):
    r, c = ball.radius, ball.center
    inner_open = ball.is_open
    if isinstance(outer, _Ball):
        # |c1 - c2| + r1 <= r2, compared on squares
        gap = outer.radius - r
        if gap < 0:
            return False
        d_sq = sqdist(c, outer.center)
        if d_sq > gap * gap:
            return False
        if d_sq == gap * gap:
            # touching: an open inner ball fits; a closed one needs a
            # closed outer
            return inner_open or not outer.is_open
        return True
    if isinstance(outer, HalfSpace):
        margin = dot(outer.normal, c) - outer.offset
        if margin < 0:
            return False
        nn = dot(outer.normal, outer.normal)
        lhs = margin * margin
        rhs = r * r * nn
        if lhs > rhs:
            return True
        if lhs == rhs:
            return inner_open or not outer.strict
        return False
    if isinstance(outer, CoordinatePlaneComplement):
        ci, cj = c[outer.i], c[outer.j]
        d_sq = ci * ci + cj * cj
        if d_sq > r * r:
            return True
        if d_sq == r * r:
            return inner_open
        return False
    return None


def _halfspace_subset(a, b):
    # {na . x > oa} ⊆ {nb . x > ob} iff nb = s*na with s > 0 and ob <= s*oa
    ratio = None
    for x, y in zip(a.normal, b.normal):
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return None
        r = y / x
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    if ratio is None or ratio <= 0:
        return None
    if b.offset < ratio * a.offset:
        return True
    # at a shared boundary only a closed inner in an open outer fails
    return b.offset == ratio * a.offset and (a.strict or not b.strict)


def conv2_subset(inner, outer):
    """Symbolic ``conv_2(inner) ⊆ outer``.

    For convex ``inner`` the segment hull is ``inner`` itself, reducing to
    ``region_subset``.  Returns ``None`` when not certifiable.
    """
    if inner.is_convex:
        return region_subset(inner, outer)
    return None
