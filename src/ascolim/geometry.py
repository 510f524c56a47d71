"""Scalars, points and affine simplices.

Every scalar is an exact rational (``int`` or ``Fraction``), and a point
is a plain tuple of scalars.  ``as_point`` builds
one from outside coordinates and raises ``InputError`` on a float or any
other inexact value; query methods take exact points and use them as
given.  A simplex stores its vertices in construction order and owns a
cached exact solver for barycentric coordinates.
"""

from dataclasses import dataclass
from itertools import combinations

from ascolim import linalg
from ascolim._kernels import matvec_q, max_pairwise_sqdist_q
from ascolim.errors import InputError
from ascolim.rats import RAT, scale_common, to_rat


def as_point(coords):
    """Tuple point of exact rationals; ``InputError`` on any other entry."""
    return tuple(to_rat(c) for c in coords)


def vadd(p, q):
    return tuple(a + b for a, b in zip(p, q))


def vsub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def vscale(t, p):
    return tuple(t * a for a in p)


def dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def sqdist(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def combine(points, coeffs):
    """Linear combination ``sum(c * p)`` of points."""
    dim = len(points[0])
    acc = [0] * dim
    for c, p in zip(coeffs, points):
        for i, a in enumerate(p):
            acc[i] += c * a
    return tuple(acc)


def mean(points):
    """Exact mean of points: the integer numerators over one common
    denominator are summed, giving one ``Fraction`` per coordinate."""
    dim = len(points[0])
    nums, den = scale_common([c for p in points for c in p])
    return tuple(RAT(sum(nums[d::dim]), den * len(points))
                 for d in range(dim))


@dataclass(frozen=True)
class Outside:
    """Verdict of a failed barycentric membership query.

    ``reason`` is ``"negative_coefficient"`` (point in the affine hull but
    outside the simplex; ``index``/``value`` name the violating
    coefficient) or ``"off_affine_hull"``.
    """

    reason: str
    index: int = -1
    value: object = None

    def __bool__(self):
        return False


class Simplex:
    """Geometric simplex ``conv{v_1, ..., v_r}``; rank r = vertex count.

    Vertices keep construction order.  Identity for complex membership is
    the unordered vertex set (``key``).  Affine independence is checked
    exactly.
    """

    __slots__ = ("vertices", "rank", "dim", "key", "_solver",
                 "_contains_cache")

    def __init__(self, vertices):
        vs = tuple(as_point(v) for v in vertices)
        if not vs:
            raise InputError("a simplex needs at least one vertex")
        dim = len(vs[0])
        if any(len(v) != dim for v in vs):
            raise InputError("vertices of mixed ambient dimension")
        self.vertices = vs
        self.rank = len(vs)
        self.dim = dim
        self.key = frozenset(vs)
        self._solver = None
        self._contains_cache = None
        if len(self.key) != self.rank:
            raise InputError("repeated vertex")
        if not self._independent():
            raise InputError("vertices are affinely dependent")

    @classmethod
    def trusted(cls, vertices, key=None):
        """Construct without the independence check.

        Only for vertex sets that are independent by construction: subsets
        of a valid simplex's vertices, barycenter chains of a subdivision,
        staircase lifts.  ``key``, when given, must equal the frozenset of
        the vertices; it spares hashing them again.
        """
        obj = cls.__new__(cls)
        vs = tuple(map(tuple, vertices))
        obj.vertices = vs
        obj.rank = len(vs)
        obj.dim = len(vs[0])
        obj.key = frozenset(vs) if key is None else key
        obj._solver = None
        obj._contains_cache = None
        return obj

    def _independent(self):
        if self.rank == 1:
            return True
        edges = [vsub(v, self.vertices[0]) for v in self.vertices[1:]]
        return linalg.rank(edges) == self.rank - 1

    def __eq__(self, other):
        return isinstance(other, Simplex) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Simplex({list(self.vertices)!r})"

    def barycenter(self):
        """The exact mean of the vertices (see ``mean``)."""
        return mean(self.vertices)

    def faces(self):
        """All proper nonempty faces, as simplices."""
        out = []
        for k in range(1, self.rank):
            for idx in combinations(range(self.rank), k):
                out.append(Simplex.trusted([self.vertices[i] for i in idx]))
        return out

    def facets(self):
        """Faces of rank r-1 (the boundary pieces)."""
        return [Simplex.trusted(self.vertices[:i] + self.vertices[i + 1:])
                for i in range(self.rank)]

    # -- barycentric machinery ------------------------------------------

    def _exact_solver(self):
        """Cached ``(inv_rows, det, null_rows)``: integer rows from one
        ``fraction_free`` elimination of ``[A | I]``, where ``A`` is the
        (D+1) x r matrix of ``sum(s_i * v_i) = x, sum(s_i) = 1`` scaled to
        integers by one factor, which ``inv_rows`` carries.  If ``b`` is
        an integer row with ``(x, 1) = b / den``, ``x`` is on the affine
        hull iff ``b`` is orthogonal to every null row, and then
        ``s = inv_rows @ b / (det * den)``.
        """
        if self._solver is None:
            r, n = self.rank, self.dim + 1
            nums, factor = scale_common(
                [c for v in self.vertices for c in (*v, 1)])
            m = [[*nums[d::n], *(int(d == k) for k in range(n))]
                 for d in range(n)]
            _, det = linalg.fraction_free(m, r)
            inv_rows = tuple(tuple(factor * v for v in row[r:])
                             for row in m[:r])
            null_rows = tuple(tuple(row[r:]) for row in m[r:])
            self._solver = (inv_rows, det, null_rows)
        return self._solver

    def barycentric(self, x):
        """Coefficients of ``x`` in this simplex, or an ``Outside`` verdict;
        ``(x, 1)`` is scaled to integers once for ``_exact_solver``'s rows.
        """
        x = tuple(x)
        if len(x) != self.dim:
            raise InputError(
                f"point dimension {len(x)} != simplex dimension {self.dim}")
        inv_rows, det, null_rows = self._exact_solver()
        rhs, den = scale_common(x + (1,))
        for row in null_rows:
            if sum(a * b for a, b in zip(row, rhs)):
                return Outside("off_affine_hull")
        nums, den = matvec_q(inv_rows, det, rhs, den)
        coords = tuple(RAT(n, den) for n in nums)
        for i, s in enumerate(coords):
            if s < 0:
                return Outside("negative_coefficient", i, s)
        return coords

    def contains(self, x):
        """Membership of ``x``; the verdict at each point is memoized, in
        a memo made at the first call."""
        x = tuple(x)
        if self._contains_cache is None:
            self._contains_cache = {}
        got = self._contains_cache.get(x)
        if got is None:
            got = not isinstance(self.barycentric(x), Outside)
            self._contains_cache[x] = got
        return got


# -- spec-level operations ----------------------------------------------


def diameter_sq(simplex):
    """Exact squared euclidean diameter (max pairwise vertex distance)."""
    if simplex.rank == 1:
        return RAT(0)
    flat = [c for v in simplex.vertices for c in v]
    nums, den = scale_common(flat)
    dim = simplex.dim
    pts = [tuple(nums[i * dim:(i + 1) * dim]) for i in range(simplex.rank)]
    return RAT(max_pairwise_sqdist_q(pts), den * den)


def sqdist_point_simplex(x, simplex):
    """Exact squared euclidean distance from ``x`` to a rational simplex.

    Enumerates the faces, projects onto each affine hull by the normal
    equations, and keeps the feasible candidates; the true minimizer lies
    in the relative interior of some face.
    """
    x = as_point(x)
    best = None
    for k in range(1, simplex.rank + 1):
        for idx in combinations(range(simplex.rank), k):
            verts = [simplex.vertices[i] for i in idx]
            base = verts[0]
            edges = [vsub(v, base) for v in verts[1:]]
            if edges:
                gram = [[dot(a, b) for b in edges] for a in edges]
                rhs = [dot(e, vsub(x, base)) for e in edges]
                res = linalg.solve(gram, rhs)
                if res is None or res[1]:
                    continue
                coeff = res[0]
                if any(c < 0 for c in coeff) or sum(coeff) > 1:
                    continue
                proj = base
                for c, e in zip(coeff, edges):
                    proj = vadd(proj, vscale(c, e))
            else:
                proj = base
            d = sqdist(x, proj)
            if best is None or d < best:
                best = d
    return best


def affine_lipschitz_sq_bound(simplex, values):
    """Exact bound ``L^2`` for the affine map vertex_i -> values_i.

    Uses the Frobenius norm of the minimal-norm linear extension:
    ``trace((E^T E)^{-1} G^T G)`` with E the domain edge matrix and G the
    value edge matrix.  Dominates the squared operator norm.
    """
    if simplex.rank == 1:
        return RAT(0)
    base = simplex.vertices[0]
    vals = [tuple(v) for v in values]
    e_cols = [vsub(v, base) for v in simplex.vertices[1:]]
    g_cols = [vsub(v, vals[0]) for v in vals[1:]]
    k = len(e_cols)
    gram = [[dot(e_cols[i], e_cols[j]) for j in range(k)] for i in range(k)]
    gtg = [[dot(g_cols[i], g_cols[j]) for j in range(k)] for i in range(k)]
    inv = linalg.invert(gram)
    return sum(sum(inv[i][j] * gtg[j][i] for j in range(k))
               for i in range(k))
