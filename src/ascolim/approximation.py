"""The approximation-homotopy engine.

Given a map on a finite complex, a compact-open neighbourhood (a finite
intersection of "image of K inside W" constraints), a frozen carrier, and
a filtered-space model, the engine runs the rank induction: normalize
constraints to per-cell form by refinement, give every maximal cell a
chart core holding its image, recurse on the skeleton, and assemble the
three-branch homotopy (affine contraction on the first half, filled
boundary extension on the second, frozen values on the carrier).  The
models are open subsets of R^D whose charts are the identity, so a chart
is known by its core region and every value is computed in model
coordinates.  A separate pass pushes the finitely many anchor values that
miss the step union onto nearby rational step points before re-running
the homotopy, yielding maps supported in one finite step together with
exact support certificates.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import lcm

from ascolim.errors import (AbsorptionError, ChartCoverError, InputError,
                            ResolutionExceededError)
from ascolim.filling import cone_decomposition
from ascolim.filtered_spaces import (CompactSample, identity_chart,
                                     quarter_core, shrink_chart)
from ascolim.geometry import (Outside, Simplex, affine_lipschitz_sq_bound,
                              combine, mean, sqdist, sqdist_point_simplex)
from ascolim.plmaps import FuncMap, PLMap, as_evaluator
from ascolim.rats import RAT, scale_common, to_rat
from ascolim.regions import (ClosedBall, CoordinatePlaneComplement,
                             FullSpace, HalfSpace, Intersection, OpenBall,
                             Region, Translate, region_subset)
from ascolim.simplicial import SubdividedComplex, relative_volumes


#: dyadic halvings tried for chart radii and for the anchor push radius
BISECTION_DEPTH = 40
#: radius of the first ball tried around a chart centre
MAX_CHART_RADIUS = RAT(1)
#: denominator of the rational step points pushed anchor values land on
ROUNDING_DENOMINATOR = 2 ** 40


@dataclass
class EngineConfig:
    """Deterministic knobs; equal configs give identical engines."""

    max_subdivision: int = 6
    bake_level: int = 1
    t_grid: int = 50
    probe_per_cell: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.t_grid < 1:
            raise InputError(f"t_grid must be positive, got {self.t_grid}")
        for name in ("bake_level", "max_subdivision"):
            value = getattr(self, name)
            if value < 0:
                raise InputError(
                    f"{name} must not be negative, got {value}")


@dataclass(frozen=True)
class Constraint:
    """One ``image of subset inside region`` requirement.

    ``subset`` is ``"all"`` (the whole carrier), a ``Simplex`` of the
    domain, or a ``CompactSample`` of domain points.
    """

    subset: object
    region: Region

    def __post_init__(self):
        if not isinstance(self.subset, (Simplex, CompactSample)) \
                and self.subset != "all":
            raise InputError(
                "a constraint subset is 'all', a Simplex or a "
                f"CompactSample, got {self.subset!r}")

    def meets_simplex(self, simplex):
        """Does the subset meet a subdivision cell?

        Exact for subdivision-derived cells: such a cell touches a base
        face precisely when one of its vertices lies in it.
        """
        if self.subset == "all":
            return True
        if isinstance(self.subset, CompactSample):
            return any(not isinstance(simplex.barycentric(p), Outside)
                       for p in self.subset.points)
        return any(self.subset.contains(v) for v in simplex.vertices)

    def domain_contains(self, x):
        if self.subset == "all":
            return True
        if isinstance(self.subset, CompactSample):
            return tuple(x) in {tuple(p) for p in self.subset.points}
        return self.subset.contains(x)

    def domain_sqdist(self, x):
        """Exact squared distance from ``x`` to the subset (None: whole)."""
        if self.subset == "all":
            return None
        if isinstance(self.subset, CompactSample):
            return min(sqdist(x, p) for p in self.subset.points)
        return sqdist_point_simplex(x, self.subset)


class NeighborhoodSpec:
    """Finite intersection of compact-open constraints."""

    def __init__(self, constraints):
        self.constraints = list(constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def check_map(self, complex_, evaluator, *, _table=None):
        """Membership of a map, constraint by constraint.

        Cell images are checked exactly, by hull containment where the
        region algebra decides or by a vertex image outside; any other
        cell is ``"undecided"`` and fails.  Returns ``(ok, details)``.
        ``_table`` is private to ``_certify_grid``.
        """
        fn = as_evaluator(evaluator)
        details = []
        ok = True
        for i, con in enumerate(self.constraints):
            verdict, mode = _check_constraint(complex_, fn, con, i, _table)
            details.append({"constraint": i, "ok": verdict, "mode": mode})
            ok = ok and verdict
        return ok, details


def _map_values(fn, cell):
    return [tuple(fn(v)) for v in cell.vertices]


def _is_pl(fn):
    """Hull checks are sound only for maps affine on each checked cell;
    in this package that means PLMaps evaluated on (refinements of) their
    own domain."""
    return isinstance(fn, PLMap)


def _image_inside(region, fn, cell, hull_ok, values=None):
    """Does ``fn`` map the simplex ``cell`` into ``region``?

    ``values`` are the vertex images when the caller has them; otherwise
    ``fn`` gives them.  The exact hull verdict when ``hull_ok`` and the
    region algebra decides; else False when a vertex image leaves the
    region, and None (undecided) otherwise.
    """
    if values is None:
        values = _map_values(fn, cell)
    got = region.contains_hull(values) if hull_ok else None
    if got is None and not all(region.contains(v) for v in values):
        return False
    return got


def _check_constraint(complex_, fn, con, index, table):
    """Membership in one ``image of K inside W`` constraint, the one at
    ``index`` in its spec; the first cell not inside decides the mode.

    Only the image of K matters, so the cell-image check runs over the
    cells ``_subset_cells`` gives.  ``table`` is None or ``(column, at,
    reused, subsets)`` from ``_certify_grid``: ``fn`` is then the PL map
    of the grid through the vertex values ``column``, and ``at`` holds the
    column indices of each grid top's vertices, so a top's values are read
    from the column and its decided verdict is reused where those values
    are the same objects.  Other cells are evaluated through ``fn`` and
    their verdicts are never reused.  ``subsets`` keeps each constraint's
    cells for the next slice.
    """
    if isinstance(con.subset, CompactSample):
        return all(con.region.contains(fn(p))
                   for p in con.subset.points), "exact"
    column, at, reused, subsets = table or (None, {}, {}, {})
    if index not in subsets:
        subsets[index] = _subset_cells(complex_, con.subset)
    cells, affine = subsets[index]
    hull_ok = affine and (table is not None or _is_pl(fn))
    for cell in cells:
        indices = at.get(id(cell))
        values = None if indices is None else [column[i] for i in indices]
        key = None if values is None else (index, id(cell),
                                           tuple(map(id, values)))
        ok = reused.get(key)
        if ok is None:
            ok = _image_inside(con.region, fn, cell, hull_ok, values)
            if ok is not None and key is not None:
                reused[key] = ok
        if not ok:
            return False, "exact" if ok is False else "undecided"
    return True, "exact"


def _subset_cells(complex_, subset):
    """The cells a constraint subset K, ``"all"`` or a ``Simplex``, is
    checked on, and whether a PL map on the complex is affine on each of
    them.

    ``"all"`` is checked on the tops.  A simplex on the simplices of the
    complex of K's rank inside K, when they cover K (relative volumes
    summing to 1): a K the complex refines is checked piece by piece.
    Otherwise on K itself, on which the map is affine when one top of the
    complex holds all of K's vertices (a vertex, a K inside one cell); on
    any other K the map may bend, so only a vertex image outside the
    region decides.
    """
    if subset == "all":
        return complex_.tops(), True
    pieces = sorted((s for s in complex_.simplices
                     if s.rank == subset.rank
                     and all(subset.contains(v) for v in s.vertices)),
                    key=lambda s: sorted(s.vertices))
    if pieces and sum(relative_volumes(subset, pieces)) == 1:
        return pieces, True
    return [subset], any(all(top.contains(v) for v in subset.vertices)
                         for top in complex_.tops())


def _random_weights(rng, k):
    w = [RAT(rng.randint(0, 8)) for _ in range(k)]
    if sum(w) == 0:
        w[0] = RAT(1)
    tot = sum(w)
    return [x / tot for x in w]


# -- chart provision ---------------------------------------------------------


class ChartProvider:
    """Chart cores around points of the model.

    Every chart of a model is the identity on its open carrier, so a chart
    is known by its core region and the engine computes in model
    coordinates.  Prefers maximal convex cores: when the target
    neighbourhood splits into convex parts and coordinate-plane
    complements, the core is the convex intersection of those parts with
    one separating halfspace per removed plane (the convex-image regime).
    Otherwise falls back to ball cores found by bisection, with the
    quarter-core pass for the inner core.
    """

    def __init__(self, model):
        self.model = model

    def chart_at(self, q, target):
        q = tuple(q)
        parts = _flatten_region(Intersection([target, self.model.carrier]))
        if parts is not None:
            convex, planes = parts
            pieces = list(convex)
            usable = True
            for pc in planes:
                hs = _separating_halfspace(pc, q)
                if hs is None:
                    usable = False
                    break
                pieces.append(hs)
            if usable:
                core = Intersection(pieces) if pieces \
                    else FullSpace(self.model.ambient_dim)
                if core.contains(q):
                    return core
        return self._ball_core(q, target)

    def _ball_core(self, q, target):
        rho = MAX_CHART_RADIUS
        base_core = None
        for _ in range(BISECTION_DEPTH):
            ball = OpenBall(q, rho)
            if region_subset(ball, self.model.carrier) is True:
                base_core = ball
                break
            rho = rho / 2
        if base_core is None:
            raise ChartCoverError(
                f"no ball around {q!r} certifies inside the carrier")
        base = identity_chart(self.model, base_core)
        shrunk = shrink_chart(base, q, target, max_radius=MAX_CHART_RADIUS,
                              depth=BISECTION_DEPTH)
        return quarter_core(shrunk, q, max_radius=MAX_CHART_RADIUS,
                            depth=BISECTION_DEPTH)


def _flatten_region(region):
    """Split into (convex parts, plane complements); None if impossible.
    Keeps first occurrences: one plane complement per removed plane, and
    no node twice (``taken`` holds each node, so no id in it is reused)."""
    convex = []
    planes = {}
    taken = {}
    stack = [region]
    while stack:
        node = stack.pop()
        if id(node) in taken:
            continue
        taken[id(node)] = node
        if isinstance(node, Intersection):
            stack.extend(node.parts)
        elif isinstance(node, CoordinatePlaneComplement):
            planes.setdefault((node.i, node.j), node)
        elif isinstance(node, Translate):
            pushed = node.region.translate(node.shift)
            if isinstance(pushed, Translate):
                return None
            stack.append(pushed)
        elif isinstance(node, FullSpace):
            continue
        elif node.is_convex:
            convex.append(node)
        else:
            return None
    return convex, list(planes.values())


def _separating_halfspace(plane_complement, q):
    """Halfspace containing ``q`` and avoiding the removed plane."""
    i, j = plane_complement.i, plane_complement.j
    qi, qj = q[i], q[j]
    norm_sq = qi * qi + qj * qj
    if norm_sq == 0:
        return None
    normal = [RAT(0)] * plane_complement.dim
    normal[i], normal[j] = qi, qj
    return HalfSpace(tuple(normal), norm_sq / 2)


# -- the engine ---------------------------------------------------------------


class ThetaEngine:
    """One level of the rank induction over a subdivided complex."""

    def __init__(self, tree, rank, spec, charts, anchors, frozen_keys,
                 sub_engine, anchor_points, p_spec, model, config):
        self.tree = tree
        self.rank = rank
        self.spec = spec              # normalized input spec at this level
        self.charts = charts          # final top key -> chart core region
        self.anchors = anchors        # final top key -> anchor vertex
        self.frozen_keys = frozen_keys
        self.sub = sub_engine
        self.S = anchor_points
        self.P = p_spec
        self.model = model
        self.config = config

    @cached_property
    def grid(self):
        """``bsd^bake_level`` of the final complex, as its subdivision:
        every time slice and the endpoint are baked on its final."""
        return SubdividedComplex(self.tree.final).refine(
            self.config.bake_level)

    def theta(self, session, x, ks, den, start=None):
        """Values of the homotopy at ``x`` for the bound map, one per time
        ``k/den`` of the integer tuple ``ks``, from one descent: the
        location of ``x``, its cone decomposition, ``gamma(x)``,
        ``gamma(y)`` and the anchor value serve every time.  The times
        ``t <= 1/2`` get the blend; the others go to the sub-engine as the
        integers ``2k - den``, over the same ``den``, so the denominator
        never changes down the rank induction.  A repeated value is one
        object, computed once (a rank-1 engine, a frozen top, ``t <= 1/2``
        on the skeleton, the fill of each sub-engine value).

        ``start`` is a base simplex holding ``x`` and the coordinates of
        ``x`` in it, as an outer engine found them: a lower-rank final top,
        the positive-coordinate face of a top, or a cone exit face.  With
        none, a grid vertex starts at its root, which gives ``gamma``."""
        gamma = session.gamma
        if self.rank == 1:
            return (tuple(gamma(x)),) * len(ks)
        if start is None:
            face = self.grid.origins.get(x)
            start = face and self.tree.rooted(x, self.tree.origin_of(face))
            if start and _is_pl(gamma) and start[0] in gamma.domain:
                gamma.at(x, start)
        hit = self.tree.locate_final(x, start)
        if hit is None:
            raise InputError(f"point {x!r} outside the engine domain")
        top, coords = hit
        if top.rank == self.rank and all(c > 0 for c in coords):
            if top.key in self.frozen_keys:
                return (tuple(gamma(x)),) * len(ks)
            return self._interior(session, top, x, coords, ks, den)
        if top.rank == self.rank:
            # on the skeleton: both branch definitions agree there
            face = Simplex.trusted(
                [v for v, c in zip(top.vertices, coords) if c > 0])
            hit = (face, tuple(c for c in coords if c > 0))
        return _by_half(ks, den, lambda ws: (tuple(gamma(x)),) * len(ws),
                        lambda ws: self.sub.theta(session, x, ws, den, hit))

    def _interior(self, session, top, x, coords, ks, den):
        """Values at ``x`` inside a free top, with barycentric ``coords``,
        at the times ``k/den``: the blend of ``gamma`` into its filled
        boundary extension, then the filled extensions of the sub-engine's
        slices.  The cone weight ``cd.t`` enters ``_lerps`` as its own
        numerator over its own denominator.

        The anchor is a vertex of every finer complex, where every slice
        keeps ``gamma``'s value (property (h)), so one ``gamma(anchor)``
        per top serves both.  Only the sub-engine gets the exit face and
        weights, since ``gamma`` is defined on the base complex.
        """
        cd = cone_decomposition(top, x, coords)
        key = ("anchor", top.key)
        if key not in session.cache:
            session.cache[key] = tuple(session.gamma(self.anchors[top.key]))
        anchor_val = session.cache[key]
        y = None if cd.t == 1 else cd.boundary_point(top)
        cone = (cd.t.numerator,), cd.t.denominator

        def early(ws):
            filled = anchor_val if y is None else _lerps(
                *cone, anchor_val, tuple(session.gamma(y)))[0]
            return _lerps([den - w for w in ws], den,
                          tuple(session.gamma(x)), filled)

        def late(ws):
            if y is None:
                return (anchor_val,) * len(ws)
            face = Simplex.trusted([top.vertices[i] for i in cd.indices])
            subs = self.sub.theta(session, y, ws, den,
                                  (face, cd.exit_weights()))
            filled = {id(v): v for v in subs}
            filled = {k: _lerps(*cone, anchor_val, v)[0]
                      for k, v in filled.items()}
            return tuple(filled[id(v)] for v in subs)

        return _by_half(ks, den, early, late)


def _by_half(ks, den, early, late):
    """One value per time ``k/den`` of ``ks``, in order: ``early`` gives
    the values of the times ``2k <= den`` from the tuple of their ``2k``,
    ``late`` those of the others from the tuple of their ``2k - den``;
    both are times over the same ``den``.  Neither runs on an empty
    tuple."""
    lo = tuple(2 * k for k in ks if 2 * k <= den)
    hi = tuple(2 * k - den for k in ks if 2 * k > den)
    lo, hi = iter(early(lo) if lo else ()), iter(late(hi) if hi else ())
    return tuple(next(lo) if 2 * k <= den else next(hi) for k in ks)


def _lerps(ws, den, a, b):
    """``(w*a + (den - w)*b) / den`` per integer weight ``w`` of ``ws``,
    with ``0 <= w <= den``.  Each coordinate is put over one denominator
    once, so a value's coordinate is one ``Fraction(base + w*step, D)``,
    or ``b``'s own where ``a`` and ``b`` agree (``step == 0``).  The
    value at ``w == den`` is the object ``a``, at ``w == 0`` the object
    ``b``, and a repeated weight gives one object; when ``a == b`` every
    value is ``a``."""
    if a == b:
        return (a,) * len(ws)
    bases, steps, dens = [], [], []
    for p, q in zip(a, b):
        m = lcm(p.denominator, q.denominator)
        base = q.numerator * (m // q.denominator)
        bases.append(base * den)
        steps.append(p.numerator * (m // p.denominator) - base)
        dens.append(m * den)
    made = {den: a, 0: b}
    for w in ws:
        if w not in made:
            made[w] = tuple(
                RAT(base + w * step, D) if step else q
                for q, base, step, D in zip(b, bases, steps, dens))
    return tuple(made[w] for w in ws)


class BoundTheta:
    """The engine bound to one input map, with a per-map value cache.

    ``values(x, ts)`` is one descent for the tuple of times ``ts``, and
    ``self(x, t)`` its case of one time.  Each value combines map values
    with weights set by ``x`` and ``t`` alone, so the engine is linear in
    its map: for an anchor push ``g_t = (1 - t)*gamma0 + t*g_1``, exactly
    ``theta[g_t](x, t) = (1 - t)*theta[gamma0](x, t) + t*theta[g_1](x, t)``.
    """

    def __init__(self, engine, gamma):
        self.engine = engine
        self.gamma = as_evaluator(gamma)
        self.cache = {}

    def values(self, x, ts):
        ts = tuple(map(to_rat, ts))
        ks, den = scale_common(ts)
        for t, k in zip(ts, ks):
            if not 0 <= k <= den:
                raise InputError(f"time {t} outside [0, 1]")
        return self.engine.theta(self, tuple(x), ks, den)

    def __call__(self, x, t):
        return self.values(x, (t,))[0]

    def final_map(self):
        return FuncMap(lambda x: self(x, 1))


def bake_on(complex_, column):
    """PLMap through the vertex values ``column`` of a fixed complex, in
    the order of ``complex_.vertices()``."""
    return PLMap(complex_, column)


def _certify_grid(engine, rows, ts):
    """Check the time slices ``ts`` against the engine's spec; ``rows``
    holds the values at the times ``ts`` per grid vertex, in ``vertices()``
    order.  Slice ``k`` is the PL map of the grid through column ``k``,
    checked in full; one ``{"t", "ok", "details"}`` report per slice.  A
    grid top's vertex values are read from the column by the indices found
    here once, so the slice's ``PLMap`` is baked only when a constraint
    needs a value the column does not hold (a ``CompactSample`` point, a
    cell other than a grid top).  A decided verdict on a constraint and a
    grid top is reused in a later slice whose values at the top's vertices
    are the very same objects (``rows`` holds them, so no id is reused):
    the verdict is a function of those values.  Undecided verdicts and
    those of cells other than grid tops are not reused.  A face
    constraint's cells are found once for all slices.
    """
    grid = engine.grid.final
    order = {v: i for i, v in enumerate(grid.vertices())}
    at = {id(top): [order[v] for v in top.vertices] for top in grid.tops()}
    reused, subsets = {}, {}
    reports = []
    for k, t in enumerate(ts):
        column = [row[k] for row in rows]
        ok, details = engine.spec.check_map(
            grid, _baked_when_called(grid, column),
            _table=(column, at, reused, subsets))
        reports.append({"t": str(t), "ok": ok, "details": details})
    return reports


def _baked_when_called(grid, column):
    """The PL map of ``grid`` through ``column``, baked at its first
    call."""
    baked = []

    def fn(x):
        if not baked:
            baked.append(bake_on(grid, column))
        return baked[0](x)

    return fn


# -- engine construction ------------------------------------------------------


def _constraints_by_face(base, spec):
    """``(by_face, scanned)``: each face key of a constraint subset that is
    a simplex of ``base`` -> those constraints' indices; the other ones."""
    by_face = {}
    scanned = []
    for i, con in enumerate(spec):
        if isinstance(con.subset, Simplex) and con.subset in base:
            for face in [con.subset] + con.subset.faces():
                by_face.setdefault(face.key, []).append(i)
        else:
            scanned.append(i)
    return by_face, scanned


def _cell_regions_for(tree, spec, index, ambient_dim):
    """Per final top, the regions of the constraints it binds in spec
    order; the origin sets of its vertices look up the indexed ones.

    A top ``T`` of rank at least 2 binds an indexed constraint ``K`` (a
    member simplex of the base) when at least two of its vertices lie in
    ``K``.  The final complex subdivides the base, so those vertices span
    ``T ∩ K``: ``T`` binds ``K`` when ``T ∩ K`` is at least an edge.
    Rank-1 tops, ``"all"``, ``CompactSample`` subsets and non-member
    simplices bind every constraint they meet.

    This is sound.  Take a face ``f ⊆ K`` of rank at least 2: every top
    containing ``f`` meets ``K`` in at least ``f``, so it binds ``K`` and
    its chart core lies in ``W_K``; the sub-engine's constraints keep
    ``f`` inside the intersection of those cores.  Where ``K`` meets the
    complex in a vertex ``v`` and nothing more, the homotopy keeps
    ``gamma0(v)`` for all times (property (h)), and the input check
    ``NeighborhoodSpec.check_map`` already puts that value in ``W_K``.
    """
    by_face, scanned = index
    out = {}
    for cell in tree.final.tops():
        hits = {i for i in scanned if spec.constraints[i].meets_simplex(cell)}
        inside = Counter(i for v in cell.vertices
                         for i in by_face.get(tree.origins[v], ()))
        hits.update(i for i, n in inside.items() if n >= min(cell.rank, 2))
        regs = [spec.constraints[i].region for i in sorted(hits)]
        if not regs:
            out[cell.key] = FullSpace(ambient_dim)
        else:
            out[cell.key] = regs[0] if len(regs) == 1 \
                else Intersection(regs)
    return out


def _first_violation(tree, gamma0, cell_regions):
    """The first final top whose image is not inside its region, and its
    verdict (False, or None: undecided); else ``(None, True)``."""
    for cell in tree.final.tops():
        region = cell_regions[cell.key]
        inside = isinstance(region, FullSpace) \
            or _image_inside(region, gamma0, cell, True)
        if not inside:
            return cell, inside
    return None, True


def _charts_fit(tree, gamma0, cell_regions, provider):
    """Chart cores per maximal cell that hold the cell image.

    Candidate centres per cell: the image barycenter, then the vertex
    images; ties break by least squared distance between the core centre
    and the barycenter image.  Returns ``(cores, None)``, or ``(None,
    cell)`` for the first cell with no admissible chart at this level.
    Every core ``chart_at`` returns is convex, so its hull test decides
    by the vertex images alone; ``gamma0`` is affine on the cell, so that
    verdict holds for the whole image.
    """
    charts = {}
    for cell in tree.final.tops():
        region = cell_regions[cell.key]
        values = _map_values(gamma0, cell)
        bary_img = mean(values)
        best = None
        for q in [bary_img] + values:
            try:
                core = provider.chart_at(q, region)
            except (ChartCoverError, ResolutionExceededError, InputError):
                continue
            if core.contains_hull(values) is True:
                center = getattr(core, "center", None)
                if center is None:
                    center = getattr(getattr(core, "parts", [None])[0],
                                     "center", q)
                dist = sqdist(center, bary_img)
                if best is None or dist < best[0]:
                    best = (dist, core)
                if dist == 0:
                    break  # no later candidate is strictly closer
        if best is None:
            return None, cell
        charts[cell.key] = best[1]
    return charts, None


def _point_text(p):
    return "(" + ", ".join(str(c) for c in p) + ")"


def _violation_text(complex_, fn, spec, details):
    """Names the first failing constraint of ``details`` and the first
    vertex (or sample point) of its subset whose image leaves its region;
    for an undecided constraint, its first cell whose image the region
    algebra cannot place."""
    failed = next(d for d in details if not d["ok"])
    i = failed["constraint"]
    con = spec.constraints[i]
    text = f"base map violates the neighbourhood spec: constraint {i}"
    if failed["mode"] == "undecided":
        cells, affine = _subset_cells(complex_, con.subset)
        cell = next(c for c in cells
                    if _image_inside(con.region, fn, c, affine) is None)
        return (f"{text} is undecided on the cell "
                f"[{', '.join(map(_point_text, cell.vertices))}]")
    kind, points = "vertex", complex_.vertices()
    if isinstance(con.subset, CompactSample):
        kind, points = "sample point", con.subset.points
    elif con.subset != "all":
        points = [v for v in con.subset.vertices + tuple(points)
                  if con.subset.contains(v)]
    bad = next((p for p in points if not con.region.contains(fn(p))), None)
    if bad is None:
        return f"{text} leaves its region inside its subset"
    return (f"{text} maps the {kind} {_point_text(bad)} of its subset to "
            f"{_point_text(fn(bad))}, outside its region")


def build_engine(tree, gamma0, spec, frozen, model, config):
    """Recursive engine construction.

    ``frozen`` holds the keys of the base simplices inside the frozen
    carrier; a top is frozen when its root is one of them.  The refinement
    level is the least one passing both the constraint-normalization and
    the chart-fit pass, mirroring the Lebesgue-number step at the
    certified level.  ``gamma0`` is a ``PLMap`` on the base.  When no
    level up to ``max_subdivision`` passes, ``ChartCoverError`` names the
    last level, the pass that failed or was undecided there and its first
    such cell with the cell's vertex images.
    """
    rank = tree.final.rank
    if rank == 1:
        return ThetaEngine(
            tree=tree, rank=1, spec=spec, charts={}, anchors={},
            frozen_keys=frozenset(), sub_engine=None,
            anchor_points=sorted(tree.final.vertices()),
            p_spec=spec, model=model, config=config)

    index = _constraints_by_face(tree.base, spec)
    provider = ChartProvider(model)
    for level in range(config.max_subdivision + 1):
        if level:
            tree.refine()
        for v in tree.final.vertices():  # gamma0 is affine on each cell
            gamma0.at(v, tree.rooted(v, tree.origins[v]))
        cell_regions = _cell_regions_for(tree, spec, index, model.ambient_dim)
        failed = "constraint"
        bad, inside = _first_violation(tree, gamma0, cell_regions)
        if bad is None:
            failed = "chart-fit"
            charts, bad = _charts_fit(tree, gamma0, cell_regions, provider)
            if charts is not None:
                break
    else:
        cell = ", ".join(_point_text(v) for v in bad.vertices)
        images = ", ".join(_point_text(v) for v in _map_values(gamma0, bad))
        raise ChartCoverError(
            "no refinement level admits a certified chart cover within "
            f"{config.max_subdivision} subdivisions: at level {level} the "
            f"{failed} pass {'is undecided' if inside is None else 'fails'}"
            f" on the cell [{cell}] with vertex images [{images}]")

    final = tree.final
    tops = final.tops()
    frozen_keys = frozenset(cell.key for cell in tops
                            if cell.rank == rank
                            and tree.root(cell).key in frozen)

    # per skeleton simplex, intersect the inner cores of containing tops
    skeleton = final.skeleton(rank - 1)
    core_by_face = {}
    for T in tops:
        core = charts[T.key]
        for k in range(1, T.rank + 1):
            for idx in combinations(T.vertices, k):
                core_by_face.setdefault(frozenset(idx), []).append(core)
    z_constraints = []
    for sx in sorted(skeleton.simplices, key=lambda s: sorted(s.vertices)):
        cores = core_by_face.get(sx.key)
        if not cores:
            continue
        region = cores[0] if len(cores) == 1 else Intersection(cores)
        z_constraints.append(Constraint(subset=sx, region=region))
    sub_spec = NeighborhoodSpec(z_constraints)
    skeleton_frozen = {sx.key for sx in skeleton.simplices
                       if tree.root(sx).key in frozen}
    sub_engine = build_engine(SubdividedComplex(skeleton), gamma0, sub_spec,
                              skeleton_frozen, model, config)

    anchors = {T.key: min(T.vertices) for T in tops if T.rank == rank}

    p_constraints = list(sub_engine.P) + [
        Constraint(subset=T, region=charts[T.key]) for T in tops]
    p_spec = NeighborhoodSpec(p_constraints)

    return ThetaEngine(
        tree=tree, rank=rank, spec=spec, charts=charts, anchors=anchors,
        frozen_keys=frozen_keys, sub_engine=sub_engine,
        anchor_points=list(sub_engine.S), p_spec=p_spec,
        model=model, config=config)


def simultaneous_approximation(complex_, gamma0, spec, relative, model,
                               config=None):
    """The full engine: returns ``(S, P, engine)``.

    ``gamma0`` is a ``PLMap`` on ``complex_``, so every membership verdict
    on it is exact or undecided.  ``relative`` is a carrier of the input
    complex (or ``None``); its cells are frozen pointwise for all times.
    Bind the engine to a map with ``BoundTheta`` to evaluate the homotopy.
    """
    config = config or EngineConfig()
    if not isinstance(gamma0, PLMap):
        raise InputError(f"the engine's input map must be a PLMap, got "
                         f"{type(gamma0).__name__}")
    tree = SubdividedComplex(complex_)

    ok, details = spec.check_map(tree.final, gamma0)
    if not ok:
        raise InputError(_violation_text(tree.final, gamma0, spec, details))

    frozen = set() if relative is None else {
        s.key for s in complex_.simplices if relative.contains_simplex(s)}
    engine = build_engine(tree, gamma0, spec, frozen, model, config)
    return engine.S, engine.P, engine


# -- individual approximations ------------------------------------------------


@dataclass
class HomotopyRecord:
    """Outcome of an individual approximation run.

    ``start_map`` is the map the engine homotoped: the input map, or its
    ``t = 1`` anchor push when anchor values were pushed.
    """

    homotopy: object            # callable (x, t)
    start_map: object           # evaluator of the homotoped map
    eta: object                 # endpoint evaluator
    eta_baked: object           # PLMap surrogate of the endpoint
    beta: object                # absorbing step index
    relative: object
    spec: object
    grid_reports: list = field(default_factory=list)
    pushed_points: list = field(default_factory=list)
    engine: object = None

    @property
    def grid_ok(self):
        return all(r["ok"] for r in self.grid_reports)


def _relative_sqdist(relative, x):
    """Squared distance from ``x`` to the frozen carrier (None if empty)."""
    if relative is None or relative.is_empty():
        return None
    return min(sqdist_point_simplex(x, s) for s in relative.tops())


def _push_targets(engine, gamma0, model):
    """Chart core and rounded step-union target, per anchor value off the
    union."""
    filt = model.filtration
    provider = ChartProvider(model)
    moved = []
    for x in (tuple(p) for p in engine.S):
        gx = tuple(gamma0(x))
        if model.in_m_infinity(gx):
            continue
        # with the input spec: a constraint met at x alone binds no top
        regions = [con.region for con in (*engine.P, *engine.spec)
                   if con.domain_contains(x)]
        target = Intersection(regions) if regions \
            else FullSpace(model.ambient_dim)
        core = provider.chart_at(gx, target)
        den = ROUNDING_DENOMINATOR
        projected = filt.project(gx, filt.top)
        v_x = tuple(RAT(round(c * den), den) for c in projected)
        ok = core.contains(v_x) and model.carrier.contains(v_x) \
            and filt.subspace_contains(filt.top, v_x)
        if not ok:
            raise ResolutionExceededError(
                f"no admissible step-union target near {gx!r}")
        moved.append((x, gx, core, v_x))
    return moved


def _epsilon_for(moved, engine, gamma0, relative):
    """Dyadic push radius satisfying every exact disjointness and image
    condition; raises when the bisection depth is exhausted."""
    bounds = [_push_bounds(x, engine, gamma0, relative)
              for (x, _, _, _) in moved]
    eps = RAT(1)
    for _ in range(BISECTION_DEPTH):
        if _epsilon_ok(eps, moved, bounds):
            return eps
        eps = eps / 2
    raise ResolutionExceededError("no admissible push radius")


def _push_bounds(x, engine, gamma0, relative):
    """The radius-free part of the push test at the anchor ``x``: the
    least failing squared radius (None: none), set by the other anchors,
    the frozen carrier and the subsets of ``P`` without ``x``, and the
    Lipschitz factor of each base top holding ``x``'s origin face."""
    gaps = [sqdist(x, y) / 4 for y in map(tuple, engine.S) if y != x]
    gaps.append(_relative_sqdist(relative, x))
    gaps += [con.domain_sqdist(x) for con in engine.P
             if not con.domain_contains(x)]
    origin = _origin_face(engine, x)
    factors = [_sqrt_upper(affine_lipschitz_sq_bound(
                   cell, _map_values(gamma0, cell)))
               for cell in engine.tree.base.tops() if origin <= cell.key]
    return min((g for g in gaps if g is not None), default=None), factors


def _origin_face(engine, x):
    """The key of the minimal base simplex holding ``x``, a vertex of the
    tree of ``engine`` or of a sub-engine, whose base is a skeleton of
    the final complex above it."""
    origin = engine.tree.origins.get(x)
    if origin is None:
        origin = engine.tree.origin_of(_origin_face(engine.sub, x))
    return origin


def _epsilon_ok(eps, moved, bounds):
    """Does the push radius ``eps`` keep each pushed anchor ``x`` clear of
    the other anchors, the frozen carrier and the subsets of ``P`` it is
    not in, and its image in its core?  ``bounds`` holds ``_push_bounds``
    per anchor.  Near ``x`` a base top with Lipschitz bound ``L`` maps
    into the closed ball of radius ``eps * L`` around ``gamma0(x)``;
    ``_sqrt_upper`` rounds ``L`` up, so ``region_subset`` certifies a ball
    holding that one.  ``L = 0`` (a constant top) leaves the point test
    ``gamma0(x) in core``.
    """
    eps_sq = eps * eps
    for (_, gx, core, _), (gap, factors) in zip(moved, bounds):
        if gap is not None and gap <= eps_sq:
            return False
        for factor in factors:
            r = eps * factor
            if r == 0:
                inside = core.contains(gx)
            else:
                inside = region_subset(ClosedBall(gx, r), core) is True
            if not inside:
                return False
    return True


def _sqrt_upper(value):
    """A rational upper bound on sqrt(value)."""
    if value == 0:
        return RAT(0)
    hi = RAT(1)
    while hi * hi < value:
        hi = hi * 2
    lo = RAT(0)
    for _ in range(40):
        mid = (lo + hi) / 2
        if mid * mid < value:
            lo = mid
        else:
            hi = mid
    return hi


def _make_push_map(gamma0, centers, eps):
    """The pushed map ``g_1``: each centre's value moves to its step point
    ``v_x``, radially in the squared distance within ``eps`` of it."""
    eps_sq = eps * eps

    def g_1(z):
        z = tuple(z)
        gz = tuple(gamma0(z))
        for (x, _, _, v_x) in centers:
            d_sq = sqdist(z, x)
            if d_sq <= eps_sq:
                q = d_sq / eps_sq
                return tuple((1 - q) * v + q * g for v, g in zip(v_x, gz))
        return gz

    return g_1


def individual_approximation(complex_, gamma0, spec, relative, model,
                             alpha, config=None):
    """Homotope the map into one finite step, relative to the carrier.

    Runs the simultaneous engine, pushes the finitely many anchor values
    missing the step union onto nearby rational step points (radially in
    the squared distance, so every slice stays exact on rational inputs),
    composes the homotopies, and certifies the result: exact support index
    via the baked endpoint, spec membership along the declared time grid.
    """
    config = config or EngineConfig()
    gamma0 = as_evaluator(gamma0)
    filt = model.filtration

    if relative is not None and not relative.is_empty():
        for s in relative.tops():
            for v in s.vertices:
                value = tuple(gamma0(v))
                if not filt.subspace_contains(alpha, value) \
                        or not model.carrier.contains(value):
                    raise InputError(
                        "frozen carrier image leaves the base step")

    _, _, engine = simultaneous_approximation(complex_, gamma0, spec,
                                              relative, model, config)
    moved = _push_targets(engine, gamma0, model)

    start = BoundTheta(engine, gamma0)
    if not moved:
        start_map, end, values = gamma0, start, start.values
    else:
        eps = _epsilon_for(moved, engine, gamma0, relative)
        start_map = FuncMap(_make_push_map(gamma0, moved, eps))
        end = BoundTheta(engine, start_map)

        def values(x, ts):
            # the linear identity of BoundTheta, for the pushed map
            ks, den = scale_common(tuple(map(to_rat, ts)))
            return tuple(_lerps((den - k,), den, a, b)[0] for k, a, b
                         in zip(ks, start.values(x, ts), end.values(x, ts)))

    ts = tuple(RAT(k, config.t_grid) for k in range(config.t_grid + 1))
    rows = [values(v, ts) for v in engine.grid.final.vertices()]
    eta_baked = bake_on(engine.grid.final, [row[-1] for row in rows])
    beta, escaped = filt.absorbing_step(eta_baked.values.values(),
                                        at_least=alpha)
    if escaped is not None:
        raise AbsorptionError("endpoint escapes every step",
                              witness=escaped)
    grid_reports = _certify_grid(engine, rows, ts)

    return HomotopyRecord(
        homotopy=lambda x, t: values(x, (t,))[0],
        start_map=start_map,
        eta=end.final_map(),
        eta_baked=eta_baked,
        beta=beta,
        relative=relative,
        spec=spec,
        grid_reports=grid_reports,
        pushed_points=[(x, v_x) for (x, _, _, v_x) in moved],
        engine=engine,
    )


# -- property verification ----------------------------------------------------


@dataclass
class SamplingPlan:
    points_per_cell: int = 2
    t_points: int = 10
    seed: int = 0


def verify_theta_properties(engine, gamma, plan=None, constant_cells=None):
    """Checkable forms of the engine guarantees, as a per-item report.

    Exact identities (start slice, frozen anchors and carrier, constant
    cells) are asserted on exact data at sampled points; membership along
    the time grid and the support certificates go through baked PL
    surrogates; the finite-dependency claim is a twin-input experiment.
    """
    plan = plan or SamplingPlan()
    rng = random.Random(plan.seed)
    gamma = as_evaluator(gamma)
    session = BoundTheta(engine, gamma)
    report = {}

    def points(cell):
        return [combine(cell.vertices, _random_weights(rng, cell.rank))
                for _ in range(plan.points_per_cell)]

    def keeps(x, y):
        return all(v == y for v in session.values(x, t_grid))

    cells = engine.tree.final.tops()
    samples = [x for cell in cells for x in points(cell)]
    t_grid = tuple(RAT(k, plan.t_points) for k in range(plan.t_points + 1))

    ends = {x: session.values(x, (RAT(0), RAT(1))) for x in samples}
    report["a"] = all(ends[x][0] == tuple(gamma(x)) for x in samples)
    report["e"] = report["a"] and all(
        ends[x][1] == session(x, 1) for x in samples)

    report["h"] = all(keeps(x, tuple(gamma(x))) for x in engine.S)
    by_key = {cell.key: cell for cell in cells}
    frozen = [x for key in engine.frozen_keys for x in points(by_key[key])]
    report["relative"] = all(keeps(x, tuple(gamma(x))) for x in frozen)
    if constant_cells:
        report["g"] = all(keeps(x, tuple(gamma(cell.vertices[0])))
                          for cell in constant_cells for x in points(cell))

    rows = [session.values(v, t_grid) for v in engine.grid.final.vertices()]
    grid = _certify_grid(engine, rows, t_grid)
    report["b"] = all(r["ok"] for r in grid)
    report["b_details"] = [{"t": r["t"], "ok": r["ok"]} for r in grid]

    twin = _twin_input(engine, gamma)
    if twin is not None:
        twin_session = BoundTheta(engine, twin)
        report["c"] = all(ends[x][1] == twin_session(x, 1)
                          for x in samples)
    else:
        report["c"] = None

    eta_baked = bake_on(engine.grid.final, [row[-1] for row in rows])
    beta, escaped = engine.model.filtration.absorbing_step(
        eta_baked.values.values())
    report["d"] = {"beta": beta, "escaped": escaped}
    report["f"] = report["d"]
    return report


def _twin_input(engine, gamma):
    """A map agreeing with ``gamma`` on S and the frozen carrier but
    perturbed inside one open top cell; None when no room exists."""
    if engine.rank == 1:
        return None
    s_set = {tuple(p) for p in engine.S}
    target_cell = next(
        (c for c in engine.tree.final.tops()
         if c.rank == engine.rank and c.key not in engine.frozen_keys),
        None)
    if target_cell is None:
        return None

    def perturbed(z):
        z = tuple(z)
        base = tuple(gamma(z))
        if z in s_set:
            return base
        coords = target_cell.barycentric(z)
        if isinstance(coords, Outside) or any(c == 0 for c in coords):
            return base
        weight = RAT(1, 100)
        for c in coords:
            weight = weight * c
        return tuple(b + (weight if i == 0 else 0)
                     for i, b in enumerate(base))

    return perturbed
