"""Finite geometric simplicial complexes.

A complex is a face-closed set of simplices in a common ambient space whose
pairwise intersections are common faces.  The module provides barycentric
subdivision (with the diameter-contraction guarantee, and the pieces of
each simplex for point location by descent), diameter-driven iterated
subdivision, staircase triangulation of prisms ``|Σ| x [0,1]``, and
carriers of subcomplexes.
"""

import math
import operator
from itertools import combinations, islice

from ascolim import linalg
from ascolim.errors import InputError, ResolutionExceededError
from ascolim.geometry import Outside, Simplex, diameter_sq, vsub
from ascolim.rats import RAT, scale_common, to_rat


class SimplicialComplex:
    """Face-closed finite set of simplices in a common ambient space.

    A complex is immutable after construction, so its top cells, its
    vertex list, its integer grid (see ``_Grid``) and the answer of
    ``locate`` at each point are computed once and kept.
    """

    __slots__ = ("simplices", "dim", "rank", "_tops", "_by_key",
                 "_vertices", "_located", "_grid")

    def __init__(self, simplices, close=True):
        gen = list(simplices)
        if not gen:
            raise InputError("empty complex")
        dim = gen[0].dim
        if any(s.dim != dim for s in gen):
            raise InputError("simplices of mixed ambient dimension")
        pool = {}
        for s in gen:
            pool[s.key] = s
        if close:
            stack = list(gen)
            while stack:
                s = stack.pop()
                if s.rank == 1:
                    continue
                for f in s.facets():
                    if f.key not in pool:
                        pool[f.key] = f
                        stack.append(f)
        self.simplices = frozenset(pool.values())
        self._by_key = pool
        self.dim = dim
        self.rank = max(s.rank for s in self.simplices)
        self._tops = None
        self._vertices = None
        self._located = {}
        self._grid = None

    def tops(self):
        """Simplices that are not a proper face of another member."""
        if self._tops is None:
            covered = set()
            tops = []
            for s in sorted(self.simplices, key=lambda t: -t.rank):
                if s.key in covered:
                    continue
                tops.append(s)
                for k in range(1, s.rank):
                    for idx in combinations(s.vertices, k):
                        covered.add(frozenset(idx))
            self._tops = sorted(tops, key=_top_order)
        return self._tops

    def vertices(self):
        """Sorted vertex list; a fresh list, so callers may mutate it."""
        if self._vertices is None:
            out = set()
            for s in self.simplices:
                out.update(s.vertices)
            self._vertices = sorted(out)
        return list(self._vertices)

    def __contains__(self, simplex):
        return simplex.key in self._by_key

    def __len__(self):
        return len(self.simplices)

    def contains_point(self, x):
        return self.locate(x) is not None

    def locate(self, x):
        """A top simplex containing ``x`` together with its coordinates.

        The first hit in ``tops()`` order; answers are memoized.
        """
        x = tuple(x)
        if x not in self._located:
            self._located[x] = _first_holding(self.tops(), x)
        return self._located[x]

    def skeleton(self, max_rank):
        """Subcomplex of all simplices of rank at most ``max_rank``."""
        kept = [s for s in self.simplices if s.rank <= max_rank]
        if not kept:
            raise InputError("empty skeleton")
        return SimplicialComplex(kept, close=False)

    def validate(self):
        """Exhaustive desk-scale check of the complex invariants.

        Face closure plus the pairwise common-face property; raises
        ``InputError`` with the offending pair otherwise.
        """
        keys = {s.key for s in self.simplices}
        for s in self.simplices:
            for f in s.facets() if s.rank > 1 else []:
                if f.key not in keys:
                    raise InputError(f"missing face {f!r} of {s!r}")
        tops = self.tops()
        for a, b in combinations(tops, 2):
            if not _intersection_is_common_face(a, b):
                raise InputError(
                    f"simplices {a!r} and {b!r} do not meet in a face")
        return True


def _top_order(simplex):
    return sorted(simplex.vertices)


def _first_holding(cells, x):
    """The first of ``cells`` holding ``x`` with its coordinates, or None."""
    for cell in cells:
        coords = cell.barycentric(x)
        if not isinstance(coords, Outside):
            return cell, coords
    return None


def _intersection_is_common_face(s1, s2):
    """Do ``s1`` and ``s2`` meet in their common face (or not at all)?
    Exactly when ``linalg.farkas`` proves empty the ``λ, μ >= 0`` with
    ``Σ λ_i v_i = Σ μ_j w_j``, ``Σ λ = Σ μ`` and weight 1 on the vertices
    of ``s1`` outside ``s2``: a common point off the common face."""
    rows = [[*v, 1, int(v not in s2.key)] for v in s1.vertices]
    rows += [[*(-c for c in w), -1, 0] for w in s2.vertices]
    mat = [list(col) for col in zip(*rows)]
    return linalg.farkas(mat, [0] * (s1.dim + 1) + [1]) is not None


# -- barycentric subdivision ----------------------------------------------


class _Grid:
    """A complex's vertices as integer rows over one denominator.

    ``rows[i] / den`` is vertex ``i``, and ``ids`` maps the key of each
    cell to the numbers of its vertices, in the cell's vertex order.  A
    subdivision's grid comes from the grid below it with no rescaling,
    and the next subdivision reads its centers from it.  ``edges`` is
    true when ``ids`` holds every edge of the complex, as a subdivision's
    grid does (every chain is a cell); a complex made with
    ``close=False`` may lack some.
    """

    __slots__ = ("den", "rows", "ids", "edges")

    def __init__(self, den, rows, ids, edges=False):
        self.den = den
        self.rows = rows
        self.ids = ids
        self.edges = edges

    @classmethod
    def of(cls, complex_):
        """The grid of any complex, from its simplices scaled once."""
        cells, dim = list(complex_.simplices), complex_.dim
        nums, den = scale_common(
            [c for s in cells for v in s.vertices for c in v])
        seen = [nums[i:i + dim] for i in range(0, len(nums), dim)]
        rows = list(dict.fromkeys(seen))
        number = dict(zip(rows, range(len(rows))))
        numbers = iter([number[row] for row in seen])
        return cls(den, rows, {s.key: tuple(islice(numbers, s.rank))
                               for s in cells})

    def mesh_sq(self):
        """The largest squared length of an edge, which is the largest
        squared diameter of a cell."""
        rows, best = self.rows, 0
        for ids in self.ids.values():
            if len(ids) == 2:
                edge = list(map(operator.sub, rows[ids[0]], rows[ids[1]]))
                best = max(best, sum(map(operator.mul, edge, edge)))
        return RAT(best, self.den ** 2)


def _chains(faces, marks):
    """All chains of a face poset, grouped by their largest face.

    ``faces`` lists the vertex ids of each face, in ascending rank, and
    ``marks[p]`` is a one-element set for face ``p``.  Returns, for each
    face, its chains as pairs of a tuple of face positions ordered by
    inclusion and the union of their marks.  A chain's union is its
    prefix's joined with the last face's mark, so no mark is hashed
    again.  A face's proper faces are the subsets of its vertex ids, and
    their chains are extended in the order of ``faces``.
    """
    position, ending = {}, []
    for p, face in enumerate(faces):
        face = tuple(sorted(face))
        subs = sorted(position[sub] for k in range(1, len(face))
                      for sub in combinations(face, k))
        mark = marks[p]
        ending.append([((p,), mark)] + [(ch + (p,), key | mark)
                                        for q in subs for ch, key in ending[q]])
        position[face] = p
    return ending


def bsd_with_parents(complex_):
    """Barycentric subdivision plus the pieces of each input simplex.

    Returns ``(subdivided, pieces)`` where ``pieces`` maps the key of each
    input simplex to the cells of its own rank that subdivide it: its
    maximal chains, which start at a vertex and go up one rank at a time.
    A cell's vertices are its chain's centers in chain order.

    Each center is an integer sum of rows of the input's grid (read from
    the complex the first time); the subdivision's grid numbers it by
    its simplex's place in ``pieces``.  The tops are the pieces of the
    input's tops, so no cover scan finds them, and ``_top_order`` orders
    them on integers: by the ranks of their centers' rows, sorted once.
    """
    grid = complex_._grid
    if grid is None:
        grid = complex_._grid = _Grid.of(complex_)
    faces = sorted(complex_.simplices, key=operator.attrgetter("rank"))
    scale = math.lcm(*range(1, complex_.rank + 1))
    rows, centers = [], []
    for face in faces:
        ids = grid.ids[face.key]
        sums = tuple(map(sum, zip(*[grid.rows[i] for i in ids])))
        rows.append(tuple(s * (scale // len(ids)) for s in sums))
        den = grid.den * len(ids)
        centers.append(tuple(RAT(s, den) for s in sums))
    order = sorted(range(len(rows)), key=rows.__getitem__)
    number = [0] * len(order)
    for n, p in enumerate(order):
        number[p] = n
    top_keys = {top.key for top in complex_.tops()}
    chains = _chains([grid.ids[face.key] for face in faces],
                     [frozenset([center]) for center in centers])
    pieces, cells, ids, tops = {}, [], {}, []
    for face, face_chains in zip(faces, chains):
        own = []
        for chain, cell_key in face_chains:
            cell = Simplex.trusted([centers[p] for p in chain], cell_key)
            cells.append(cell)
            ids[cell_key] = chain
            if len(chain) == face.rank:
                own.append(cell)
                if face.key in top_keys:
                    tops.append((sorted(number[p] for p in chain), cell))
        pieces[face.key] = tuple(own)
    del chains  # freed before the complex is made, at the peak
    sub = SimplicialComplex(cells, close=False)
    sub._tops = [cell for _, cell in sorted(tops, key=lambda t: t[0])]
    sub._vertices = [centers[p] for p in order]
    sub._grid = _Grid(grid.den * scale, rows, ids, edges=True)
    return sub, pieces


def barycentric_subdivide(complex_):
    """The barycentric subdivision ``bsd(Σ)``; a refinement of ``Σ``."""
    return bsd_with_parents(complex_)[0]


def max_diameter_sq(complex_):
    """The largest squared diameter of a simplex of the complex: read
    from the integer rows of its edges when its grid holds every edge,
    else by ``diameter_sq`` of each top."""
    grid = complex_._grid
    if grid is not None and grid.edges:
        return grid.mesh_sq()
    return max(diameter_sq(s) for s in complex_.tops())


def _subdivision_cap(rank, d0, delta_sq):
    """A-priori count of ``bsd`` steps that bring the squared mesh ``d0``
    below ``delta_sq``, from the ``(r-1)/r`` contraction of each step;
    0 when the mesh is already below it.  The logarithm of the exact
    ratio is taken of its integer numerator and denominator, so it
    cannot underflow or overflow."""
    if d0 < delta_sq:
        return 0
    q = to_rat(delta_sq) / d0
    ratio = ((rank - 1) / rank) ** 2
    return math.ceil((math.log(q.numerator) - math.log(q.denominator))
                     / math.log(ratio)) + 2


class SubdividedComplex:
    """A complex with its iterated-subdivision history.

    Keeps every level, the pieces of each simplex per level for point
    location by descent, and per vertex its "origin": the vertex set of
    the minimal base simplex whose relative interior carries it.  A vertex
    lies in a base simplex exactly when its origin is the key of a face of
    it, so constraint and root queries become lookups of origin sets.
    """

    def __init__(self, base):
        self.levels = [base]
        self.pieces = []  # pieces[i]: simplex key of level i -> its pieces
        self.origins = {tuple(v): frozenset([tuple(v)])
                        for v in base.vertices()}
        self._meshes = [None]  # squared mesh of each level, once computed
        self._final_origins = None  # by vertex id of a subdivided final

    @property
    def base(self):
        return self.levels[0]

    @property
    def final(self):
        return self.levels[-1]

    @property
    def depth(self):
        return len(self.levels) - 1

    def refine(self, steps=1):
        """Subdivide ``steps`` times.  A center's origin is its simplex's
        key on the base level and, later, the origin of the simplex's last
        vertex, which in chain order holds the others'; it is read by
        vertex id, and the center's id is its simplex's place in the
        pieces.  The entry of ``origins`` is made from the key of the
        center's vertex cell: ``dict.fromkeys`` of a set reuses the hash
        the set stores, so no center is hashed for it."""
        for _ in range(steps):
            current = self.levels[-1]
            nxt, pieces = bsd_with_parents(current)
            known, ids = self._final_origins, current._grid.ids
            by_id = [key if known is None else known[ids[key][-1]]
                     for key in pieces]
            for key, chain in nxt._grid.ids.items():
                if len(chain) == 1:
                    self.origins.update(dict.fromkeys(key, by_id[chain[0]]))
            self._final_origins = by_id
            self.levels.append(nxt)
            self.pieces.append(pieces)
            self._meshes.append(None)
        return self

    def mesh_sq(self):
        """The final level's squared mesh (``max_diameter_sq``), computed
        once."""
        if self._meshes[-1] is None:
            self._meshes[-1] = max_diameter_sq(self.final)
        return self._meshes[-1]

    def refine_until(self, delta):
        """Refine until every simplex has diameter below ``delta``.

        Returns the number of steps taken.  The loop is capped by the
        a-priori bound from the per-step ``(r-1)/r`` diameter contraction.
        """
        if delta <= 0:
            raise InputError("delta must be positive")
        delta_sq = delta * delta
        r = self.final.rank
        if r == 1:
            return 0
        mesh = self.mesh_sq()
        cap = _subdivision_cap(r, mesh, delta_sq)
        m = 0
        while mesh >= delta_sq:
            if m >= cap:
                raise ResolutionExceededError(
                    f"subdivision bound {cap} reached without "
                    f"diameter < {delta}")
            self.refine()
            m += 1
            mesh = self.mesh_sq()
        return m

    def root(self, simplex):
        """Minimal base simplex carrying ``simplex``: the one spanned by
        the union of its vertices' origin sets."""
        return self.base._by_key[frozenset().union(
            *(self.origins[v] for v in simplex.vertices))]

    def locate_final(self, x, start=None):
        """A final cell holding ``x`` with its coordinates, or None.

        Starts at ``start``, a base simplex holding ``x`` and the
        coordinates of ``x`` in it, taken as given, else at the base top
        ``base.locate`` finds.  It descends through the pieces of one cell
        per level, which cover it, to a final cell of the start's rank.
        """
        x = tuple(x)
        hit = self.base.locate(x) if start is None else start
        if hit is None:
            return None
        for pieces in self.pieces:
            hit = _first_holding(pieces[hit[0].key], x)
        return hit


# -- carriers --------------------------------------------------------------


class SubcomplexCarrier:
    """A union of member simplices, stored by its selecting subset.

    The carrier invariant ``E = union of the member simplices it
    contains`` is maintained by expanding the selection to every member
    simplex contained in it (decided exactly via vertex containment).
    """

    def __init__(self, parent, selected=()):
        self.parent = parent
        chosen = {}
        for s in selected:
            if s not in parent:
                raise InputError(f"{s!r} is not a member of the parent complex")
            chosen[s.key] = s
            for f in s.faces():
                chosen[f.key] = f
        # expand: any member simplex whose vertices all lie in a selected one
        if chosen:
            tops = [s for s in chosen.values()]
            for s in parent.simplices:
                if s.key in chosen:
                    continue
                if any(all(t.contains(v) for v in s.vertices) for t in tops):
                    chosen[s.key] = s
        self.selected = frozenset(chosen.values())

    def is_empty(self):
        return not self.selected

    def contains_simplex(self, simplex):
        """Is ``simplex`` (not necessarily a member) inside the carrier?"""
        return any(all(t.contains(v) for v in simplex.vertices)
                   for t in self.selected)

    def contains_point(self, x):
        return any(s.contains(x) for s in self.tops())

    def tops(self):
        keys = {s.key for s in self.selected}
        return [s for s in self.selected
                if not any(s.key < t for t in keys if t != s.key)]


# -- prisms ---------------------------------------------------------------


def _lift(v, t):
    return tuple(v) + (RAT(t),)


def _staircase(simplex, lo=0, hi=1):
    """Kuhn staircase cells of ``simplex x [lo, hi]`` under the global
    lexicographic vertex order."""
    vs = sorted(simplex.vertices)
    cells = []
    for j in range(len(vs)):
        verts = [_lift(v, lo) for v in vs[:j + 1]] + \
                [_lift(v, hi) for v in vs[j:]]
        cells.append(Simplex.trusted(verts))
    return cells


def triangulate_prism(complex_, levels=1, aligned=()):
    """Triangulate ``|Σ| x [0,1]`` consistently across shared faces.

    Stacks ``levels`` prisms: level ``l`` is the staircase triangulation
    of each top prism over ``[l/levels, (l+1)/levels]`` under the global
    lexicographic vertex order, so the cells over a shared face agree,
    neighbouring levels meet in a copy of ``|Σ|``, and ``C x [0,1]`` is a
    union of cells for every aligned carrier ``C``.  The two end copies
    of ``|Σ|`` are faces of the staircase cells, added by face closure.
    """
    for car in aligned:
        if car.parent is not complex_:
            raise InputError("aligned carrier of a different complex")
    cells = []
    for l in range(levels):
        for top in complex_.tops():
            cells.extend(_staircase(top, RAT(l, levels), RAT(l + 1, levels)))
    return SimplicialComplex(cells)


def prism_end_carrier(prism, base, t):
    """Carrier of ``|base| x {t}`` inside a prism triangulation."""
    sel = [Simplex([_lift(v, t) for v in s.vertices]) for s in base.tops()]
    return SubcomplexCarrier(prism, sel)


# -- exact refinement volumes ----------------------------------------------


def relative_volumes(parent, pieces):
    """Volumes of full-rank ``pieces`` relative to ``parent`` (sums to 1).

    Pieces must have the same rank as ``parent`` and live in its affine
    hull.  One row reduction of the parent's edges picks ``r - 1``
    coordinates on which they are independent; projecting onto them is
    injective on the hull, so a volume ratio is the ratio of the absolute
    determinants of the projected edges, an exact rational.  Both
    determinants are taken by fraction-free elimination of integer rows.
    The other coordinates of a hull point follow from the picked ones;
    each piece vertex is checked against them exactly.
    """
    r, dim = parent.rank, parent.dim
    base = parent.vertices[0]
    edges = [vsub(v, base) for v in parent.vertices[1:]]
    reduced, sel = linalg.row_reduce(edges)
    # a point x is in the hull iff, for each (d, den, nums, offset) below,
    # den * x[d] == offset + sum(nums[k] * x[sel[k]])
    hull_rows = []
    for d in range(dim):
        if d not in sel:
            coeffs = [row[d] for row in reduced]
            offset = base[d] - sum(c * base[s] for c, s in zip(coeffs, sel))
            nums, den = scale_common(coeffs + [offset])
            hull_rows.append((d, den, nums[:-1], nums[-1]))
    nums, den = scale_common([e[s] for e in edges for s in sel])
    parent_det = linalg.abs_det(nums, r - 1)
    parent_den = den ** (r - 1)
    out = []
    for piece in pieces:
        if piece.rank != r:
            raise InputError("piece of different rank")
        if piece.dim != dim:
            raise InputError("piece not in the parent affine hull")
        nums, den = scale_common([c for v in piece.vertices for c in v])
        pts = [nums[i * dim:(i + 1) * dim] for i in range(r)]
        for x in pts:
            for d, row_den, coeffs, offset in hull_rows:
                if row_den * x[d] - sum(c * x[s] for c, s in
                                        zip(coeffs, sel)) != offset * den:
                    raise InputError("piece not in the parent affine hull")
        det = linalg.abs_det(
            [x[s] - pts[0][s] for x in pts[1:] for s in sel], r - 1)
        out.append(RAT(det * parent_den, parent_det * den ** (r - 1)))
    return out
