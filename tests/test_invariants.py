"""Winding and component oracles, and the end-to-end experiments."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascolim import approximation, geometry, linalg, rats, simplicial
from ascolim.approximation import (BoundTheta, Constraint, EngineConfig,
                                   NeighborhoodSpec, ThetaEngine, bake_on,
                                   simultaneous_approximation)
from ascolim.errors import ChartCoverError, InputError
from ascolim.filtered_spaces import (AffineMap, FilteredSpaceModel,
                                     Filtration)
from ascolim.geometry import Simplex, combine
from ascolim.invariants import (ComponentModel, LoopModel, _carrier_axis,
                                component_union_check, cyclic_vertex_order,
                                injectivity_leg, loop_as_pl, pi0_report,
                                pi1_directlimit_experiment,
                                palais_experiment, polygon_domain,
                                surjectivity_leg, winding_number)
from ascolim.regions import (CoordinatePlaneComplement, Intersection,
                             OpenBall, Union)
from ascolim.simplicial import (SimplicialComplex, SubdividedComplex,
                                bsd_with_parents, relative_volumes)

F = Fraction

FAST = EngineConfig(max_subdivision=4, bake_level=1, t_grid=4,
                    probe_per_cell=1)


def unit_square_loop(dim=2, axis=(0, 1), reps=1, reverse=False):
    base = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    pts = base * reps
    if reverse:
        pts = [pts[0]] + list(reversed(pts[1:]))
    return LoopModel([tuple(F(c) for c in p) + (F(0),) * (dim - 2)
                      for p in pts], axis=axis)


def test_winding_of_unit_square():
    assert winding_number(unit_square_loop()) == 1


def test_winding_double_reversed_loop():
    # hand count: the doubled loop crosses a generic ray twice per pass;
    # reversing the traversal flips both signs
    assert winding_number(unit_square_loop(reps=2)) == 2
    assert winding_number(unit_square_loop(reps=2, reverse=True)) == -2


def test_winding_of_distant_loop_is_zero():
    loop = LoopModel([(5, 5), (6, 5), (6, 6), (5, 6)])
    assert winding_number(loop) == 0


def test_loop_on_plane_rejected():
    with pytest.raises(InputError):
        LoopModel([(0, 0, 1), (1, 0, 0), (0, 1, 0)], axis=(0, 1))


def test_polygon_domain_is_a_cycle():
    cx, pts = polygon_domain(8)
    assert len(pts) == 8
    order = cyclic_vertex_order(cx, start=pts[0])
    assert len(order) == 8 and order[0] == tuple(pts[0])


def plane_model(dim, chain):
    filt = Filtration(dim, chain)
    return FilteredSpaceModel(filt, CoordinatePlaneComplement(dim, 0, 1))


def perturbed_winding_three():
    """A winding-3 loop in the (0,1) plane with a perturbation into the
    trailing coordinates of R^8, and the model of a chain stopping at the
    first four coordinates."""
    model = plane_model(8, [(k, range(k)) for k in (2, 3, 4)])
    base = unit_square_loop(dim=8, reps=3)
    verts = [list(v) for v in base.vertices]
    for d, amount in ((5, F(1, 8)), (6, F(-1, 16)), (7, F(1, 32))):
        verts[2][d] = amount
        verts[6][d] = -amount
    probe = LoopModel([tuple(v) for v in verts], axis=(0, 1),
                      label="w3-perturbed")
    return model, probe


def test_surjectivity_leg_projects_perturbed_loop():
    model, probe = perturbed_winding_three()
    leg = surjectivity_leg(model, probe, FAST)
    assert leg["winding_before"] == 3
    assert leg["winding_after"] == 3
    assert leg["winding_preserved"]
    assert leg["pushed"] == 2
    assert leg["beta"] == 2  # values project back into the plane step
    assert leg["grid_ok"]


def test_push_radius_of_the_perturbed_loop(monkeypatch):
    # the two perturbed corners are pushed onto the plane step; the push
    # radius is the first dyadic one whose Lipschitz balls around their
    # images fit inside their cores (pinned: a change to the ball test
    # that moved it would change every pushed endpoint).  The base tops
    # holding an anchor come from its origin face, so the search makes no
    # barycentric solve (25 when it scanned the base tops)
    model, probe = perturbed_winding_three()
    cx, gamma, base = loop_as_pl(probe)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    _, _, engine = simultaneous_approximation(cx, gamma, spec, base, model,
                                              FAST)
    moved = approximation._push_targets(engine, gamma, model)
    assert len(moved) == 2
    calls = {"barycentric": 0}
    _count_calls(monkeypatch, calls, Simplex, "barycentric")
    eps = approximation._epsilon_for(moved, engine, gamma, base)
    assert eps == F(1, 8)
    assert calls["barycentric"] == 0
    bounds = [approximation._push_bounds(x, engine, gamma, base)
              for (x, _, _, _) in moved]
    assert not approximation._epsilon_ok(2 * eps, moved, bounds)


@pytest.fixture(scope="module")
def leg_records():
    """The records of a surjectivity leg with pushed anchors and of one
    with none, on their own engines."""
    model, probe = perturbed_winding_three()
    pushed = surjectivity_leg(model, probe, FAST)["record"]
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    plain = surjectivity_leg(model, unit_square_loop(dim=4), FAST)["record"]
    assert pushed.pushed_points and not plain.pushed_points
    return pushed, plain


@pytest.mark.parametrize("t", [F(-1, 2), F(3, 2), 5])
def test_homotopy_rejects_times_outside_the_unit_interval(leg_records, t):
    # the blend extrapolated past gamma at t = -1/2, and the times
    # t = 3/2 and t = 5 gave the t = 1 value
    for record in leg_records:
        top = record.engine.tree.final.tops()[0]
        x = top.barycenter()
        assert record.homotopy(x, 1) == tuple(record.eta(x))
        with pytest.raises(InputError, match="outside"):
            record.homotopy(x, t)
        with pytest.raises(InputError, match="outside"):
            BoundTheta(record.engine, record.start_map).values(x, (0, t))


def test_surjectivity_leg_frozen_probe_is_noop():
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    probe = unit_square_loop(dim=4)
    leg = surjectivity_leg(model, probe, FAST)
    assert leg["pushed"] == 0
    assert leg["winding_preserved"]
    assert leg["beta"] == 1


CORNERS = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
ODD_EIGHTHS = st.sampled_from([F(k, 8) for k in (-7, -5, -3, -1, 1, 3, 5, 7)])


def square_loop(winding, offsets):
    """The square's corners traversed ``|winding|`` times, backwards for a
    negative winding, or there and back for winding 0, in R^4; every
    vertex but the basepoint gets the ``offsets`` in coordinates 2-3."""
    if winding == 0:
        pts = CORNERS + CORNERS[2:0:-1]
    else:
        pts = CORNERS * abs(winding)
        if winding < 0:
            pts = [pts[0]] + pts[:0:-1]
    offsets = [(F(0), F(0))] + list(offsets)
    return LoopModel([(F(a), F(b)) + off
                      for (a, b), off in zip(pts, offsets)], axis=(0, 1))


@pytest.mark.parametrize("winding", range(-2, 4))
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(offsets=st.lists(st.tuples(ODD_EIGHTHS, ODD_EIGHTHS), min_size=11,
                        max_size=11))
def test_surjectivity_leg_keeps_the_winding(winding, offsets):
    # coordinate 3 is off every step, so each vertex but the basepoint is
    # an anchor value pushed onto a step point
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2})])
    probe = square_loop(winding, offsets)
    leg = surjectivity_leg(model, probe, FAST)
    assert leg["winding_before"] == winding
    assert leg["winding_after"] == leg["winding_before"]
    assert leg["pushed"] == len(probe.vertices) - 1
    assert leg["beta"] == 2 and leg["grid_ok"]


def test_injectivity_leg_two_square_shapes(monkeypatch):
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    sigma = unit_square_loop(dim=4)
    # same basepoint and winding, different shape (stretched corners)
    tau = LoopModel([(1, 1, 0, 0), (-2, 2, 0, 0), (-2, -2, 0, 0),
                     (2, -2, 0, 0)], axis=(0, 1))
    # machine-independent budget: a grid or tree vertex is located by one
    # solve in its root and descends by its sorted coordinates, and a PL
    # input map takes its value there (6,938 solves and 888 complex
    # locates when each start scanned the base tops, each level tried its
    # pieces in turn and each new vertex image was located by a scan)
    calls = {"barycentric": 0, "locate": 0}
    _count_calls(monkeypatch, calls, Simplex, "barycentric")
    _count_calls(monkeypatch, calls, SimplicialComplex, "locate")
    leg = injectivity_leg(model, sigma, tau, FAST, u_levels=3)
    assert leg["winding"] == 1
    assert leg["endpoints_frozen"]
    assert leg["grid_ok"]
    assert leg["beta"] == 1
    assert 0 < calls["barycentric"] <= 775
    assert calls["locate"] == 0


def two_square_pair():
    """The plane model and the square pair of the two-square leg."""
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    tau = LoopModel([(1, 1, 0, 0), (-2, 2, 0, 0), (-2, -2, 0, 0),
                     (2, -2, 0, 0)], axis=(0, 1))
    return model, unit_square_loop(dim=4), tau


def test_injectivity_leg_exact_operation_count(monkeypatch):
    # machine-independent budget on the two-square pair at u_levels=1:
    # constraints are found through the origin sets of a cell's vertices
    # (961,662 Fraction hashes when every cell was tested against every
    # constraint), a sub-engine starts at the face and coordinates its
    # outer engine found (857 matrix inversions and 7,431 barycentric
    # solves when it solved for them again), and a top binds a core only
    # where it meets that face in at least an edge, so the rank-2
    # sub-engine does not refine (640 tops, 138,105 hashes, 513
    # inversions and 7,087 solves when a shared vertex bound it).  The
    # grid check evaluates each grid vertex once for every slice and
    # reuses the hull verdicts of tops whose values did not change: 328
    # theta calls, 110 cone decompositions and 1,176 plane-complement hull
    # tests (1,384, 474 and 1,504 with one engine descent and one hull
    # test per slice).  Each hull test is decided by the separating
    # direction sum(q_k), so no solve_nonneg runs (1,176 when each one
    # did); the grid tops' values are read from the table, not looked up
    # by coordinate tuple (38,148 hashes when they were); and the times
    # are integers over one denominator, so the only int * Fraction
    # products are the cone weights, one per cone decomposition (4,126
    # when the times were Fractions).  Each barycentric solver is one
    # fraction-free elimination, so row reductions are left only to the
    # rank checks of new simplices (159 row reductions and 73 inversions
    # when each solver inverted its rows in Fractions).  Points are
    # located with no scan (1,297 solves and 320 complex locates when
    # they were scanned and tried piece by piece)
    model, sigma, tau = two_square_pair()
    calls = {"__hash__": 0, "__rmul__": 0, "fraction_free": 0,
             "row_reduce": 0, "solve_nonneg": 0, "barycentric": 0,
             "theta": 0, "cone_decomposition": 0, "contains_hull": 0,
             "locate": 0}
    _count_calls(monkeypatch, calls, Fraction, "__hash__")
    _count_calls(monkeypatch, calls, Fraction, "__rmul__")
    _count_calls(monkeypatch, calls, linalg, "fraction_free")
    _count_calls(monkeypatch, calls, linalg, "row_reduce")
    _count_calls(monkeypatch, calls, linalg, "solve_nonneg")
    _count_calls(monkeypatch, calls, Simplex, "barycentric")
    _count_calls(monkeypatch, calls, ThetaEngine, "theta")
    _count_calls(monkeypatch, calls, approximation, "cone_decomposition")
    _count_calls(monkeypatch, calls, CoordinatePlaneComplement,
                 "contains_hull")
    _count_calls(monkeypatch, calls, SimplicialComplex, "locate")
    leg = injectivity_leg(model, sigma, tau, FAST, u_levels=1)
    assert leg["endpoints_frozen"] and leg["grid_ok"] and leg["beta"] == 1
    assert 0 < calls["__hash__"] <= 26_000
    assert 0 < calls["__rmul__"] <= 110
    assert 0 < calls["fraction_free"] <= 100
    assert 0 < calls["row_reduce"] <= 20
    assert calls["solve_nonneg"] == 0
    assert 0 < calls["barycentric"] <= 295
    assert calls["locate"] == 0
    assert 0 < calls["theta"] <= 340
    assert 0 < calls["cone_decomposition"] <= 120
    assert 0 < calls["contains_hull"] <= 1_200
    assert len(leg["record"].engine.sub.tree.final.tops()) == 80


def test_engine_frozen_keys_follow_the_roots_to_the_carrier():
    model, sigma, tau = two_square_pair()
    record = injectivity_leg(model, sigma, tau, FAST, u_levels=1)["record"]
    trees = []
    frozen = []
    engine = record.engine
    for _ in range(2):  # the engine and its sub-engine
        trees.append(engine.tree)
        frozen.append(0)
        for top in engine.tree.final.tops():
            if top.rank < engine.rank:
                continue
            root = top
            for tree in reversed(trees):
                root = tree.root(root)
            inside = record.relative.contains_simplex(root)
            assert (top.key in engine.frozen_keys) == inside
            frozen[-1] += inside
        engine = engine.sub
    # the carrier holds edges only: prism tops are free, edges of the
    # frozen column and of both end loops are frozen in the sub-engine
    assert frozen[0] == 0 and frozen[1] > 0


def _per_time_reference(record, gamma0, n):
    """The grid check as it was before the table: for each time ``t`` an
    engine bound to ``g_t = (1 - t)*gamma0 + t*g_1`` (``g_1`` the start
    map; ``g_t`` is the old push map, or ``gamma0`` when nothing was
    pushed), evaluated at ``t`` vertex by vertex, baked and checked."""
    engine = record.engine
    grid = engine.grid.final
    columns, reports = [], []
    for k in range(n + 1):
        t = F(k, n)

        def g_t(z, t=t):
            return tuple((1 - t) * a + t * b
                         for a, b in zip(gamma0(z), record.start_map(z)))

        session = BoundTheta(engine, g_t)
        column = [session(v, t) for v in grid.vertices()]
        ok, details = engine.spec.check_map(grid, bake_on(grid, column))
        columns.append(column)
        reports.append({"t": str(t), "ok": ok, "details": details})
    return columns, reports


@pytest.mark.parametrize("case", ["pushed-loop", "two-square-prism"])
def test_grid_table_equals_per_time_evaluation(case):
    # every value of the homotopy at every grid vertex and slice, the
    # endpoint bake and the slice reports equal the per-time path, on a
    # leg with pushed anchors (the only check of the push identity, since
    # no golden file pushes) and on the two-square prism pair; eight
    # slices, so that the rank-3 prism engine has distinct late values
    config = EngineConfig(max_subdivision=4, bake_level=1, t_grid=8,
                          probe_per_cell=1)
    if case == "pushed-loop":
        model = plane_model(8, [(k, range(k)) for k in (2, 3, 4)])
        verts = [list(v) for v in unit_square_loop(dim=8, reps=3).vertices]
        for d, amount in ((5, F(1, 8)), (6, F(-1, 16)), (7, F(1, 32))):
            verts[2][d] = amount
            verts[6][d] = -amount
        probe = LoopModel([tuple(v) for v in verts], axis=(0, 1))
        leg = surjectivity_leg(model, probe, config)
        assert leg["pushed"] == 2
        gamma0 = loop_as_pl(probe)[1]
    else:
        model, sigma, tau = two_square_pair()
        leg = injectivity_leg(model, sigma, tau, config, u_levels=1)
        gamma0 = leg["record"].start_map
    record = leg["record"]
    n = config.t_grid
    columns, reports = _per_time_reference(record, gamma0, n)
    assert record.grid_reports == reports
    assert record.grid_ok
    grid = record.engine.grid.final
    assert record.eta_baked.values == dict(zip(grid.vertices(), columns[-1]))
    ts = tuple(F(k, n) for k in range(n + 1))
    start = BoundTheta(record.engine, gamma0)
    end = BoundTheta(record.engine, record.start_map)
    for i, v in enumerate(grid.vertices()):
        row = [column[i] for column in columns]
        assert [record.homotopy(v, t) for t in ts] == row
    # one descent for every time equals one per time, for each of the two
    # bound maps, at the grid vertices and at a seeded point inside each
    # final top (no grid vertex has a cone exit point to fill from)
    rng = random.Random(3)
    points = list(grid.vertices())
    for top in record.engine.tree.final.tops():
        w = [F(rng.randint(1, 9)) for _ in range(top.rank)]
        points.append(combine(top.vertices, [c / sum(w) for c in w]))
    for x in points:
        assert start.values(x, ts) == tuple(start(x, t) for t in ts)
        assert end.values(x, ts) == tuple(end(x, t) for t in ts)


def test_injectivity_leg_rejects_unequal_winding():
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    sigma = unit_square_loop(dim=4)
    tau = unit_square_loop(dim=4, reps=2)
    with pytest.raises(InputError):
        injectivity_leg(model, sigma, tau, FAST)


def test_pi1_experiments_reject_a_carrier_with_two_planes():
    # (R^2 - 0) x (R^2 - 0) x R^4 has pi_1 = Z^2, which one winding number
    # cannot read: the square around x_0 = x_1 = 0 at x_2 = 2, read on the
    # axis (2, 3), has winding 0 and the experiment reported Z^1
    filt = Filtration(8, [(2, {0, 1, 2, 3}), (4, set(range(6)))])
    planes = [CoordinatePlaneComplement(8, 0, 1),
              CoordinatePlaneComplement(8, 2, 3)]
    model = FilteredSpaceModel(filt, Intersection(planes))
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    probe = LoopModel([(F(a), F(b), F(2)) + (F(0),) * 5 for a, b in square],
                      axis=(2, 3))
    with pytest.raises(InputError, match="coordinate planes"):
        pi1_directlimit_experiment(model, [probe], None, FAST)
    with pytest.raises(InputError, match="coordinate planes"):
        injectivity_leg(model, probe, probe, FAST)
    twice = FilteredSpaceModel(filt, Intersection([planes[0], planes[0]]))
    assert _carrier_axis(twice) == (0, 1)
    with pytest.raises(InputError, match="coordinate planes"):
        _carrier_axis(FilteredSpaceModel(filt, OpenBall((F(0),) * 8, 1)))


def _count_calls(monkeypatch, calls, owner, name):
    """Wrap ``owner.name`` so that each call adds one to ``calls[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_surjectivity_leg_exact_solve_count(monkeypatch):
    # machine-independent budget on the README's square model with default
    # settings: the engine reuses the coordinates point location found, so
    # it needs 157 exact barycentric solves (2029 when it solved again for
    # the branch and the cone decomposition); one engine descent per grid
    # vertex serves all 51 slices, so the engine is evaluated 36 times and
    # the PL map makes 36 complex locates (1560 and 1260 with one descent
    # per slice, 1860 with one anchor evaluation per slice); values are
    # computed in model coordinates, with no affine chart map applied.  A
    # grid vertex is located in its root, so no complex is scanned (157
    # solves and 36 locates when each one scanned the base tops)
    model = plane_model(8, [(2, {0, 1}), (4, {0, 1, 2, 3})])
    probe = unit_square_loop(dim=8, reps=3)
    calls = {"barycentric": 0, "locate": 0, "theta": 0, "__call__": 0}
    _count_calls(monkeypatch, calls, Simplex, "barycentric")
    _count_calls(monkeypatch, calls, SimplicialComplex, "locate")
    _count_calls(monkeypatch, calls, ThetaEngine, "theta")
    _count_calls(monkeypatch, calls, AffineMap, "__call__")
    leg = surjectivity_leg(model, probe)
    assert leg["winding_before"] == leg["winding_after"] == 3
    assert leg["beta"] == 2 and leg["grid_ok"]
    assert 0 < calls["barycentric"] <= 24
    assert calls["locate"] == 0
    assert 0 < calls["theta"] <= 40
    assert calls["__call__"] == 0


def test_chart_cover_error_names_level_pass_and_cell():
    # a triangle loop about the removed plane: at level 0 no convex core
    # around its long edges' images holds them; one subdivision suffices
    model = plane_model(8, [(2, {0, 1}), (4, {0, 1, 2, 3})])
    probe = LoopModel([tuple(F(c) for c in p) + (F(0),) * 6
                       for p in [(1, 1), (-2, 1), (1, -2)]], axis=(0, 1))
    coarse = EngineConfig(max_subdivision=0, t_grid=4, probe_per_cell=1)
    with pytest.raises(ChartCoverError) as err:
        surjectivity_leg(model, probe, coarse)
    message = str(err.value)
    assert "within 0 subdivisions: at level 0 the chart-fit pass" in message
    # the first failing top of the polygon domain and its two images
    assert message.endswith(
        "fails on the cell [(1, 1), (-1, 1/3)] with vertex images "
        "[(1, 1, 0, 0, 0, 0, 0, 0), (-2, 1, 0, 0, 0, 0, 0, 0)]")
    fine = EngineConfig(max_subdivision=1, t_grid=4, probe_per_cell=1)
    leg = surjectivity_leg(model, probe, fine)
    assert leg["winding_before"] == leg["winding_after"] == 1


def test_injectivity_leg_triangle_pair_certifies():
    # equal-winding triangle loops in the criterion-6 model: a top that
    # meets an outer core's cell at one vertex does not bind that core,
    # so refinement stops (when it bound the core, no level up to 6
    # admitted a chart cover)
    model = plane_model(8, [(2, {0, 1}), (4, {0, 1, 2, 3})])
    config = EngineConfig(max_subdivision=6, bake_level=1, t_grid=50,
                          probe_per_cell=2)
    corners = [(1, 1), (-2, 1), (1, -2)]
    sigma = LoopModel([tuple(F(c) for c in p) + (F(0),) * 6
                       for p in corners], axis=(0, 1))
    lifted = [list(v) for v in sigma.vertices]
    lifted[1][2] = F(1, 2)
    tau = LoopModel([tuple(v) for v in lifted], axis=(0, 1))
    leg = injectivity_leg(model, sigma, tau, config, u_levels=1)
    assert leg["grid_ok"]
    assert leg["endpoints_frozen"]
    assert leg["beta"] == 4


def test_subdivision_build_hash_and_solve_count(monkeypatch):
    # machine-independent budget on one rank-5 simplex in R^6: the tops of
    # its subdivision come from the maximal chains, with no vertex hashing
    # (a cover scan makes 54,000 Fraction hashes), and relative volumes
    # take integer determinants, with no exact solve (480 by Gauss-Jordan)
    rng = random.Random(5)
    while True:
        try:
            sx = Simplex([tuple(F(rng.randint(-16, 16), rng.randint(1, 4))
                                for _ in range(6)) for _ in range(5)])
            break
        except InputError:
            continue
    sub = bsd_with_parents(SimplicialComplex([sx]))[0]
    calls = {"__hash__": 0, "solve": 0}
    _count_calls(monkeypatch, calls, Fraction, "__hash__")
    _count_calls(monkeypatch, calls, linalg, "solve")
    pieces = sub.tops()
    assert calls["__hash__"] == 0
    vols = relative_volumes(sx, pieces)
    assert len(pieces) == 120 and vols == [F(1, 120)] * 120
    assert calls["solve"] == 0


def test_subdivision_hashes_each_new_center_once(monkeypatch):
    # machine-independent budget: a cell's key is its chain prefix's key
    # joined with its new center, and tops are ordered by integer ranks
    # of the centers, so the subdivision of one rank-5 simplex in R^6
    # hashes each of its 31 centers once (keys built from vertex tuples
    # took 21,606 Fraction hashes), and three refinements of two
    # triangles make at most 1,804 (9,098 with tuple keys; 670 since
    # origins are read by vertex id and entered from the key sets)
    rng = random.Random(5)
    while True:
        try:
            sx = Simplex([tuple(F(rng.randint(-16, 16), rng.randint(1, 4))
                                for _ in range(6)) for _ in range(5)])
            break
        except InputError:
            continue
    cx = SimplicialComplex([sx])
    cx.tops()
    base = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                              Simplex([(2, 0), (0, 2), (2, 2)])])
    calls = {"__hash__": 0}
    _count_calls(monkeypatch, calls, Fraction, "__hash__")
    sub = bsd_with_parents(cx)[0]
    assert 0 < calls["__hash__"] <= 31 * 6
    assert len(sub.tops()) == 120
    calls["__hash__"] = 0
    tree = SubdividedComplex(base).refine(3)
    assert 0 < calls["__hash__"] <= 1_804
    assert len(tree.final.tops()) == 2 * 6 ** 3


def test_refine_until_takes_later_meshes_from_integer_rows(monkeypatch):
    # machine-independent budget on two triangles: refine_until measures
    # the start level on its two tops and every later level on the
    # integer rows its subdivision carries, so it rescales coordinates
    # once for the base grid and twice for the start tops (when every
    # level's mesh was taken top by top and every center by its own
    # mean, it made 518 diameter_sq and 810 scale_common calls)
    base = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                              Simplex([(2, 0), (0, 2), (2, 2)])])
    calls = {"diameter_sq": 0, "scale_common": 0}
    for owner in (geometry, simplicial):
        _count_calls(monkeypatch, calls, owner, "diameter_sq")
    for owner in (rats, geometry, simplicial):
        _count_calls(monkeypatch, calls, owner, "scale_common")
    tree = SubdividedComplex(base)
    levels = tree.refine_until(F(3, 5))
    assert levels == 3 and tree.mesh_sq() == F(233, 729)
    assert calls["diameter_sq"] == len(base.tops()) == 2
    assert 0 < calls["scale_common"] <= levels + 1


def test_pi1_experiment_report():
    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    probes = [unit_square_loop(dim=4)]
    sigma = unit_square_loop(dim=4)
    tau = LoopModel([(1, 1, 0, 0), (-2, 2, 0, 0), (-2, -2, 0, 0),
                     (2, -2, 0, 0)], axis=(0, 1))
    report = pi1_directlimit_experiment(model, probes, [(sigma, tau)],
                                        FAST)
    assert report["all_windings_preserved"]
    assert report["all_grids_ok"]
    assert report["group_colimit"]["group"] == "Z^1"
    assert report["psi_bijective_on_window"]


def two_ball_component_model():
    dim = 2
    filt = Filtration(dim, [(1, {0}), (2, {0, 1})])
    carrier = Union([OpenBall((F(-2), F(0)), 1), OpenBall((F(2), F(0)), 1)])
    model = FilteredSpaceModel(filt, carrier)
    nodes = [(F(-2), F(0)), (F(2), F(0)),
             (F(-2), F(1, 2)), (F(2), F(1, 2))]
    step_nodes = {1: [0, 1], 2: [0, 1, 2, 3]}
    step_edges = {1: [], 2: [(0, 2), (1, 3)]}
    return ComponentModel(model, nodes, step_nodes, step_edges,
                          ambient_edges=[])


def test_pi0_two_ball_model():
    cmodel = two_ball_component_model()
    cmodel.validate_edges()
    report = pi0_report(cmodel)
    assert report["step_counts"] == {"1": 2, "2": 2}
    assert report["colimit_classes"] == 2
    assert report["ambient_classes"] == 2
    assert report["bijective"]
    assert report["witnesses_verified"]


def test_pi0_merge_witnessed_at_higher_step():
    # a step-1 graph missing the connecting edge present at step 2
    dim = 2
    filt = Filtration(dim, [(1, {0}), (2, {0, 1})])
    carrier = OpenBall((F(0), F(0)), 4)
    model = FilteredSpaceModel(filt, carrier)
    nodes = [(F(-1), F(0)), (F(1), F(0)), (F(0), F(1))]
    cmodel = ComponentModel(model, nodes,
                            {1: [0, 1], 2: [0, 1, 2]},
                            {1: [], 2: [(0, 2), (1, 2)]},
                            ambient_edges=[])
    report = pi0_report(cmodel)
    assert report["step_counts"] == {"1": 2, "2": 1}
    assert report["colimit_classes"] == 1
    assert report["bijective"]


def test_pi0_single_convex_carrier():
    dim = 2
    filt = Filtration(dim, [(1, {0, 1})])
    model = FilteredSpaceModel(filt, OpenBall((F(0), F(0)), 4))
    nodes = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    cmodel = ComponentModel(model, nodes, {1: [0, 1, 2]},
                            {1: [(0, 1), (1, 2)]}, ambient_edges=[])
    report = pi0_report(cmodel)
    assert report["colimit_classes"] == 1 and report["bijective"]


def test_component_union_check_random_models():
    rng = random.Random(20)
    for _ in range(10):
        dim = 3
        filt = Filtration(dim, [(k, range(k)) for k in (1, 2, 3)])
        model = FilteredSpaceModel(filt, OpenBall((F(0),) * 3, 10))
        n = rng.randint(3, 7)
        nodes = []
        for k in range(n):
            level = rng.randint(1, 3)
            nodes.append(tuple(F(rng.randint(-3, 3))
                               if d < level else F(0)
                               for d in range(3)))
        step_nodes = {a: [i for i, p in enumerate(nodes)
                          if filt.subspace_contains(a, p)]
                      for a in (1, 2, 3)}
        all_edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    all_edges.append((i, j))
        step_edges = {a: [(i, j) for (i, j) in all_edges
                          if i in step_nodes[a] and j in step_nodes[a]]
                      for a in (1, 2, 3)}
        cmodel = ComponentModel(model, nodes, step_nodes, step_edges,
                                ambient_edges=[])
        for node in step_nodes[1]:
            got = component_union_check(cmodel, node)
            assert got["equal"], got


def test_palais_two_ball_and_plane_models():
    cmodel = two_ball_component_model()
    report = palais_experiment(cmodel.model, cmodel=cmodel)
    assert report["pi0"]["bijective"]

    model = plane_model(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    loops = [unit_square_loop(dim=4)]
    report = palais_experiment(model, loops=loops, config=FAST)
    assert report["pi1"]["all_windings_preserved"]
    assert report["pi1"]["psi_bijective_on_window"]


def test_undecided_edge_is_an_input_error():
    # two disjoint open unit balls: the segment between their centres
    # leaves the carrier, and the region algebra cannot decide it
    filt = Filtration(2, [(1, {0}), (2, {0, 1})])
    carrier = Union([OpenBall((F(-2), F(0)), 1), OpenBall((F(2), F(0)), 1)])
    model = FilteredSpaceModel(filt, carrier)
    nodes = [(F(-2), F(0)), (F(2), F(0))]
    cmodel = ComponentModel(model, nodes, {1: [0, 1], 2: [0, 1]},
                            {1: [(0, 1)], 2: [(0, 1)]}, ambient_edges=[])
    with pytest.raises(InputError, match=r"edge \(0, 1\) not certified "
                                         r"in step 1"):
        cmodel.validate_edges()
    with pytest.raises(InputError, match="not certified"):
        pi0_report(cmodel)
