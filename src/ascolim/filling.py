"""The boundary-filling operator.

Every interior point of a simplex decomposes as ``x = t*b + sum(t_j v_j)``
over a proper vertex subset (``b`` the barycenter), with ``t`` maximal so
that at least one residual coefficient vanishes.  Feeding this into the
two-branch segment formula extends any map on the boundary to the whole
simplex, linearly in the map, with values on segments between boundary
values; this is what licenses all chart-level homotopies downstream.
"""

from dataclasses import dataclass

from ascolim.errors import CertificateError, InputError
from ascolim.geometry import Outside, combine, vscale
from ascolim.plmaps import PLMap, as_evaluator
from ascolim.simplicial import SimplicialComplex, SubdividedComplex


@dataclass(frozen=True)
class ConeDecomposition:
    """``x = t*b + sum over J of t_j * v_j`` inside a fixed simplex."""

    t: object
    indices: tuple          # J, a proper subset of vertex positions
    coefficients: tuple     # t_j aligned with ``indices``

    def exit_weights(self):
        """Coordinates ``t_j / (1 - t)`` of the exit point in face ``J``."""
        if self.t == 1:
            raise InputError("pure cone tip has no boundary point")
        return tuple(c / (1 - self.t) for c in self.coefficients)

    def boundary_point(self, simplex):
        """The boundary point the cone ray exits through (``t < 1`` only)."""
        pts = [simplex.vertices[i] for i in self.indices]
        return combine(pts, self.exit_weights())

    def reconstruct(self, simplex):
        x = vscale(self.t, simplex.barycenter())
        for i, c in zip(self.indices, self.coefficients):
            x = tuple(a + c * b for a, b in zip(x, simplex.vertices[i]))
        return x


def cone_decomposition(simplex, x, coords=None):
    """Decompose ``x`` in ``simplex`` with maximal barycenter weight.

    ``t`` is ``r * min(s_i)`` over the barycentric coordinates ``coords``
    of ``x`` (solved for when the caller has none), so at least one
    residual coefficient vanishes and ``J`` is proper.  Any admissible
    proper superset of ``J`` yields the same filled value; this canonical
    choice keeps the decomposition deterministic.
    """
    if coords is None:
        coords = simplex.barycentric(x)
    if isinstance(coords, Outside):
        raise InputError(f"point {x!r} not in the simplex")
    r = simplex.rank
    t = r * min(coords)
    share = t / r
    idx = []
    coeff = []
    for i, s in enumerate(coords):
        res = s - share
        if res > 0:
            idx.append(i)
            coeff.append(res)
    cd = ConeDecomposition(t, tuple(idx), tuple(coeff))
    if cd.reconstruct(simplex) != tuple(x):
        raise CertificateError(f"cone decomposition of {x!r} does not "
                               f"reconstruct the point")
    return cd


def boundary_complex(simplex):
    """The complex of proper faces of a rank >= 2 simplex."""
    if simplex.rank < 2:
        raise InputError("a rank-1 simplex has empty boundary")
    return SimplicialComplex(simplex.facets())


def on_boundary(simplex, x):
    coords = simplex.barycentric(x)
    return not isinstance(coords, Outside) and any(s == 0 for s in coords)


class FilledMap:
    """Extension of a boundary map over the whole simplex.

    Evaluates the two-branch segment formula through the cone
    decomposition; ``value_with_certificate`` additionally returns the
    exact segment witness ``(t, anchor value, exit point, exit value)``
    showing the result lies between two boundary values.
    """

    def __init__(self, simplex, anchor, boundary_map):
        if simplex.rank < 2:
            raise InputError("filling needs a nonempty boundary")
        if not on_boundary(simplex, anchor):
            raise InputError("anchor must lie on the boundary")
        self.simplex = simplex
        self.anchor = tuple(anchor)
        self.boundary_map = as_evaluator(boundary_map)
        self._anchor_value = tuple(self.boundary_map(self.anchor))

    def value_with_certificate(self, x):
        cd = cone_decomposition(self.simplex, x)
        t = cd.t
        if t == 1:
            return self._anchor_value, (t, self._anchor_value, None, None)
        y = cd.boundary_point(self.simplex)
        gy = tuple(self.boundary_map(y))
        val = tuple(t * a + (1 - t) * b
                    for a, b in zip(self._anchor_value, gy))
        return val, (t, self._anchor_value, y, gy)

    def __call__(self, x):
        return self.value_with_certificate(x)[0]


def fill(simplex, anchor, boundary_map):
    """The filled evaluator over ``simplex``; restricts to the input on
    the boundary, is linear in the boundary map, and preserves constants."""
    return FilledMap(simplex, anchor, boundary_map)


def default_anchor(simplex):
    """Deterministic anchor: the first vertex (a boundary point, rank >= 2)."""
    if simplex.rank < 2:
        raise InputError("a rank-1 simplex has empty boundary")
    return simplex.vertices[0]


def bake_filled(filled, refine=1):
    """PL surrogate of a filled map on ``bsd^refine`` of its simplex."""
    tree = SubdividedComplex(SimplicialComplex([filled.simplex]))
    tree.refine(refine)
    values = {tuple(v): tuple(filled(v)) for v in tree.final.vertices()}
    return PLMap(tree.final, values), tree
