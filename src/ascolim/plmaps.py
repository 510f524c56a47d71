"""Piecewise-affine maps on carriers of complexes, and generic evaluators.

A ``PLMap`` stores one value per vertex of its domain complex and
evaluates by exact point location plus barycentric combination, so
composition stays exact; a caller that located a point hands that in.
The map has one value at each point, whichever simplex carries it, so its
values at non-vertex points are memoized.
``FuncMap`` wraps an arbitrary callable behind the same evaluation
interface: an evaluator takes one point and nothing else.
"""

from collections.abc import Mapping

from ascolim.errors import InputError
from ascolim.geometry import as_point, combine
from ascolim.simplicial import SimplicialComplex, SubdividedComplex


class PLMap:
    """Affine-on-each-simplex map determined by its vertex values.

    ``values`` maps each vertex of the domain to its value, or lists the
    values in the order of ``domain.vertices()``.
    """

    def __init__(self, domain, values):
        if isinstance(domain, SubdividedComplex):
            domain = domain.final
        if not isinstance(domain, SimplicialComplex):
            raise InputError("PLMap domain must be a complex")
        self.domain = domain
        vertices = domain.vertices()
        if isinstance(values, Mapping):
            values = [values[v] for v in vertices]
        self.values = dict(zip(vertices, map(as_point, values), strict=True))
        lengths = {len(v) for v in self.values.values()}
        if len(lengths) != 1:
            raise InputError("PL values of mixed target dimension")
        self.target_dim = lengths.pop()
        self._memo = {}

    def eval_located(self, simplex, coords):
        """Value at the point of ``simplex`` with barycentric ``coords``;
        ``simplex`` lies in one cell of the domain (a subdivision's does)."""
        return combine([self.at(v) for v in simplex.vertices], coords)

    def __call__(self, x):
        return self.at(tuple(x))

    def at(self, x, hit=None):
        """The value at the tuple point ``x``; ``hit``, a simplex holding
        ``x`` with its coordinates there, spares locating ``x``."""
        value = self.values.get(x)
        if value is None:
            value = self._memo.get(x)
        if value is None:
            hit = hit or self.domain.locate(x)
            if hit is None:
                raise InputError(f"point {x!r} outside the PL domain")
            value = self._memo[x] = self.eval_located(*hit)
        return value


class FuncMap:
    """A bare evaluator around a callable of one point."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        return self.fn(tuple(x))


def as_evaluator(obj):
    if isinstance(obj, (PLMap, FuncMap)):
        return obj
    if callable(obj):
        return FuncMap(obj)
    raise InputError(f"not an evaluator: {obj!r}")

