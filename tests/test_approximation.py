"""The simultaneous/individual approximation engine on small models."""

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascolim import approximation
from ascolim.approximation import (BoundTheta, Constraint, EngineConfig,
                                   NeighborhoodSpec, SamplingPlan, _by_half,
                                   _cell_regions_for, _certify_grid,
                                   _constraints_by_face, _flatten_region,
                                   _lerps, bake_on,
                                   individual_approximation,
                                   simultaneous_approximation,
                                   verify_theta_properties)
from ascolim.errors import (ChartCoverError, InputError,
                            ResolutionExceededError)
from ascolim.filling import fill
from ascolim.filtered_spaces import (CompactSample, FilteredSpaceModel,
                                     Filtration)
from ascolim.geometry import Simplex, combine
from ascolim.plmaps import FuncMap, PLMap
from ascolim.regions import (CoordinatePlaneComplement, FullSpace,
                             HalfSpace, Intersection, OpenBall, Union)
from ascolim.simplicial import (SimplicialComplex, SubcomplexCarrier,
                                SubdividedComplex, barycentric_subdivide)

F = Fraction

CONFIG = EngineConfig(max_subdivision=4, bake_level=1, t_grid=6,
                      probe_per_cell=1)


def square_domain():
    """Boundary of a square: four edges, rank 2."""
    corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    edges = [Simplex([corners[i], corners[(i + 1) % 4]]) for i in range(4)]
    return SimplicialComplex(edges), corners


def plane_model(dim=4, top_coords=(0, 1), labels=None):
    """R^dim minus the (0,1) coordinate plane, chain over given labels."""
    if labels is None:
        labels = [(1, set(top_coords))]
    filt = Filtration(dim, labels)
    carrier = CoordinatePlaneComplement(dim, 0, 1)
    return FilteredSpaceModel(filt, carrier)


def loop_map(cx, corners, pert=None, dim=4):
    """PL loop into R^dim: planar square, optionally perturbed at one
    corner in the trailing coordinates."""
    values = {}
    for v in cx.vertices():
        val = [F(v[0]), F(v[1])] + [F(0)] * (dim - 2)
        if pert is not None and tuple(v) == pert[0]:
            for d, amount in pert[1].items():
                val[d] = amount
        values[tuple(v)] = tuple(val)
    return PLMap(cx, values)


def test_rank_one_base_case_is_evaluation():
    pts = SimplicialComplex([Simplex([(0, 0)]), Simplex([(3, 1)])])
    model = plane_model(dim=2)
    gamma = PLMap(pts, {(0, 0): (F(1), F(0)), (3, 1): (F(0), F(2))})
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    s_points, p_spec, engine = simultaneous_approximation(
        pts, gamma, spec, None, model, CONFIG)
    assert sorted(s_points) == sorted(pts.vertices())
    assert p_spec is spec
    session = BoundTheta(engine, gamma)
    for v in pts.vertices():
        for t in (0, F(1, 3), 1):
            assert session(v, t) == tuple(gamma(v))


def test_constant_map_stays_constant_through_all_branches():
    tri = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)])])
    model = FilteredSpaceModel(Filtration(3, [(1, {0, 1, 2})]),
                               FullSpace(3))
    y = (F(1), F(2), F(3))
    gamma = PLMap(tri, {tuple(v): y for v in tri.vertices()})
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    _, _, engine = simultaneous_approximation(tri, gamma, spec, None,
                                              model, CONFIG)
    session = BoundTheta(engine, gamma)
    rng = random.Random(1)
    for cell in engine.tree.final.tops():
        for _ in range(3):
            w = [F(rng.randint(0, 5)) for _ in range(cell.rank)]
            if sum(w) == 0:
                w[0] = F(1)
            x = combine(cell.vertices, [wi / sum(w) for wi in w])
            for t in (0, F(1, 4), F(1, 2), F(3, 4), 1):
                assert session(x, t) == y


def test_square_loop_engine_properties():
    cx, corners = square_domain()
    model = plane_model()
    gamma = loop_map(cx, corners)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    base = SubcomplexCarrier(cx, [Simplex([corners[0]])])
    _, p_spec, engine = simultaneous_approximation(cx, gamma, spec, base,
                                                   model, CONFIG)
    ok, details = p_spec.check_map(engine.tree.final, gamma)
    assert ok, details
    report = verify_theta_properties(engine, gamma,
                                     SamplingPlan(points_per_cell=2,
                                                  t_points=4))
    assert report["a"] is True
    assert report["h"] is True
    assert report["e"] is True
    assert report["b"] is True, report["b_details"]
    assert report["c"] is True
    assert report["relative"] is True
    assert report["d"]["beta"] == 1
    assert report["d"]["escaped"] is None


def test_half_time_slice_is_the_filled_map_on_each_top():
    # at t = 1/2 the affine contraction has reached the filled boundary
    # extension of the input map from each top's anchor vertex
    cx, corners = square_domain()
    loop = loop_map(cx, corners, pert=((1, 1), {2: F(1, 5), 3: F(-1, 7)}))
    tri = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)])])
    patch = PLMap(tri, {(0, 0): (F(1), F(0), F(0), F(0)),
                        (2, 0): (F(3), F(1), F(0), F(0)),
                        (0, 2): (F(1), F(2), F(1, 2), F(0))})
    model = plane_model()
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    rng = random.Random(3)
    for domain, gamma in ((cx, loop), (tri, patch)):
        _, _, engine = simultaneous_approximation(domain, gamma, spec, None,
                                                  model, CONFIG)
        session = BoundTheta(engine, gamma)
        tops = [c for c in engine.tree.final.tops()
                if c.rank == engine.rank and c.key not in engine.frozen_keys]
        assert tops
        for cell in tops:
            filled = fill(cell, engine.anchors[cell.key], gamma)
            for _ in range(2):
                w = [F(rng.randint(1, 5)) for _ in range(cell.rank)]
                x = combine(cell.vertices, [wi / sum(w) for wi in w])
                assert session(x, F(1, 2)) == filled(x)


def test_individual_approximation_freezes_and_projects():
    cx, corners = square_domain()
    model = plane_model()
    pert = ((1, 1), {2: F(1, 5), 3: F(-1, 7)})
    gamma = loop_map(cx, corners, pert=pert)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    basepoint = Simplex([corners[2]])
    relative = SubcomplexCarrier(cx, [basepoint])
    record = individual_approximation(cx, gamma, spec, relative, model,
                                      alpha=1, config=CONFIG)
    # one anchor value sat off the step union and was pushed
    assert len(record.pushed_points) >= 1
    assert record.beta == 1
    # endpoint is supported in the top step exactly
    filt = model.filtration
    for value in record.eta_baked.values.values():
        assert filt.subspace_contains(filt.top, value)
    # frozen basepoint: every homotopy time keeps the value
    bp = corners[2]
    want = tuple(gamma(bp))
    for t in (0, F(1, 3), F(2, 3), 1):
        assert record.homotopy(bp, t) == want
    # start slice is the input map
    rng = random.Random(3)
    for cell in record.engine.tree.final.tops():
        w = [F(rng.randint(0, 5)) for _ in range(cell.rank)]
        if sum(w) == 0:
            w[0] = F(1)
        x = combine(cell.vertices, [wi / sum(w) for wi in w])
        assert record.homotopy(x, 0) == tuple(gamma(x))
    assert record.grid_ok


def test_individual_approximation_fully_frozen_complex():
    # relative carrier = the whole complex: everything stays put
    cx, corners = square_domain()
    model = plane_model()
    gamma = loop_map(cx, corners)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    whole = SubcomplexCarrier(cx, cx.tops())
    record = individual_approximation(cx, gamma, spec, whole, model,
                                      alpha=1, config=CONFIG)
    assert record.beta == 1
    assert record.pushed_points == []
    rng = random.Random(6)
    for cell in record.engine.tree.final.tops():
        w = [F(rng.randint(0, 5)) for _ in range(cell.rank)]
        if sum(w) == 0:
            w[0] = F(1)
        x = combine(cell.vertices, [wi / sum(w) for wi in w])
        want = tuple(gamma(x))
        for t in (0, F(1, 2), 1):
            assert record.homotopy(x, t) == want


def test_individual_approximation_noop_when_already_in_step():
    cx, corners = square_domain()
    model = plane_model()
    gamma = loop_map(cx, corners)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    record = individual_approximation(cx, gamma, spec, None, model,
                                      alpha=1, config=CONFIG)
    assert record.pushed_points == []
    assert record.beta == 1
    assert record.grid_ok


def test_sphere_complex_runs_with_support_certificates():
    # degree >= 2 has no complete desk invariant; the engine still runs
    # on a sphere boundary complex and reports exact support certificates
    tet = Simplex([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    sphere = SimplicialComplex(tet.facets())
    assert sphere.rank == 3
    filt = Filtration(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(4, 0, 1))
    values = {tuple(v): (F(v[0]) + 1, F(v[1]) + 1, F(v[2]), F(0))
              for v in sphere.vertices()}
    gamma = PLMap(sphere, values)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    _, _, engine = simultaneous_approximation(sphere, gamma, spec, None,
                                              model, CONFIG)
    report = verify_theta_properties(engine, gamma,
                                     SamplingPlan(points_per_cell=1,
                                                  t_points=2))
    assert report["a"] and report["h"]
    assert report["d"]["beta"] == 2 and report["d"]["escaped"] is None


def test_engine_rejects_map_violating_spec():
    cx, corners = square_domain()
    model = plane_model()
    # collapse everything onto the removed plane
    bad = PLMap(cx, {tuple(v): (F(0), F(0), F(1), F(0))
                     for v in cx.vertices()})
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    with pytest.raises(InputError):
        simultaneous_approximation(cx, bad, spec, None, model, CONFIG)


def test_constraint_met_at_one_vertex_is_still_enforced():
    # a constraint on one vertex binds no top of the engine; the input
    # check rejects a map sending that vertex outside the region, and its
    # message names the constraint, the vertex and the image exactly
    cx, corners = square_domain()
    model = plane_model()
    gamma = loop_map(cx, corners)
    vertex = Simplex([(-1, -1)])
    carrier = Constraint("all", model.carrier)
    upper = HalfSpace((0, 1, 0, 0), F(1, 3))     # x_1 > 1/3
    spec = NeighborhoodSpec([carrier, Constraint(vertex, upper)])
    with pytest.raises(InputError) as err:
        simultaneous_approximation(cx, gamma, spec, None, model, CONFIG)
    assert str(err.value) == (
        "base map violates the neighbourhood spec: constraint 1 maps the "
        "vertex (-1, -1) of its subset to (-1, -1, 0, 0), outside its "
        "region")


def test_constraint_met_at_one_vertex_binds_no_top():
    # the image of the vertex lies inside: the engine certifies, refines
    # no more than without the constraint, and no top containing the
    # vertex takes its region
    cx, corners = square_domain()
    model = plane_model()
    gamma = loop_map(cx, corners)
    lower = HalfSpace((F(-1, 2), -1, 0, 0), F(1, 2))  # x_0 / 2 + x_1 < -1/2
    carrier = Constraint("all", model.carrier)
    spec = NeighborhoodSpec([carrier, Constraint(Simplex([(-1, -1)]),
                                                 lower)])
    _, _, engine = simultaneous_approximation(cx, gamma, spec, None, model,
                                              CONFIG)
    _, _, plain = simultaneous_approximation(
        cx, gamma, NeighborhoodSpec([carrier]), None, model, CONFIG)
    assert engine.tree.depth == plain.tree.depth
    regions = _cell_regions_for(engine.tree, spec,
                                _constraints_by_face(engine.tree.base, spec),
                                4)
    tops = [top for top in engine.tree.final.tops()
            if (F(-1), F(-1)) in top.vertices]
    assert len(tops) == 2
    for top in tops:
        assert regions[top.key] is model.carrier
    report = verify_theta_properties(engine, gamma,
                                     SamplingPlan(points_per_cell=1,
                                                  t_points=4))
    assert report["a"] and report["h"] and report["b"], report["b_details"]


def test_push_keeps_a_constraint_met_at_one_vertex():
    # the anchor push moves the image of the lifted corner onto the step
    # plane; a constraint on that corner alone binds no top, so the push
    # target takes it from the input spec: the push is refused when the
    # step point leaves its region, and certified when it stays inside
    cx, corners = square_domain()
    model = plane_model()
    gamma = loop_map(cx, corners, pert=((-1, -1), {2: F(1, 8)}))
    carrier = Constraint("all", model.carrier)
    corner = Simplex([(-1, -1)])
    lifted = HalfSpace((0, 0, 1, 0), F(1, 16))   # x_2 > 1/16
    spec = NeighborhoodSpec([carrier, Constraint(corner, lifted)])
    with pytest.raises(ResolutionExceededError):
        individual_approximation(cx, gamma, spec, None, model, 1, CONFIG)
    left = HalfSpace((-1, 0, 0, 0), F(1, 2))     # x_0 < -1/2
    spec = NeighborhoodSpec([carrier, Constraint(corner, left)])
    record = individual_approximation(cx, gamma, spec, None, model, 1,
                                      CONFIG)
    assert record.grid_ok and record.beta == 1
    assert record.pushed_points == [((-1, -1), (-1, -1, 0, 0))]


def test_ball_chart_fallback_engine():
    # a model whose carrier mixes a ball with the plane complement, so
    # the convex fast path cannot flatten it and the bisection path runs
    cx, corners = square_domain()
    from ascolim.regions import Intersection, Union
    dim = 4
    filt = Filtration(dim, [(1, {0, 1})])
    blob = Union([OpenBall((F(0),) * dim, 8), OpenBall((F(9),) * dim, 1)])
    carrier = Intersection([CoordinatePlaneComplement(dim, 0, 1), blob])
    model = FilteredSpaceModel(filt, carrier)
    gamma = loop_map(cx, corners)
    spec = NeighborhoodSpec([Constraint("all", carrier)])
    config = EngineConfig(max_subdivision=6, bake_level=1, t_grid=4,
                          probe_per_cell=1)
    _, _, engine = simultaneous_approximation(cx, gamma, spec, None,
                                              model, config)
    assert engine.tree.depth >= 1  # the bisected ball cores force refinement
    report = verify_theta_properties(engine, gamma,
                                     SamplingPlan(points_per_cell=1,
                                                  t_points=3))
    assert report["a"] and report["h"]
    assert report["d"]["beta"] == 1


@pytest.mark.parametrize("t_grid", [0, -1])
def test_engine_config_rejects_nonpositive_t_grid(t_grid):
    with pytest.raises(InputError):
        EngineConfig(t_grid=t_grid)


@pytest.mark.parametrize("field", ["bake_level", "max_subdivision"])
def test_engine_config_rejects_negative_levels(field):
    with pytest.raises(InputError):
        EngineConfig(**{field: -1})
    assert getattr(EngineConfig(**{field: 0}), field) == 0


def test_check_map_sample_and_single_vertex_constraints():
    cx, corners = square_domain()
    gamma = loop_map(cx, corners)
    upper = HalfSpace((0, 1, 0, 0), 0)          # x_1 > 0
    # a sample constraint decides pointwise and exactly
    ok = NeighborhoodSpec([Constraint(
        CompactSample(((1, 1), (-1, 1))), upper)])
    assert ok.check_map(cx, gamma) == (True, [
        {"constraint": 0, "ok": True, "mode": "exact"}])
    bad = NeighborhoodSpec([Constraint(
        CompactSample(((1, 1), (-1, -1))), upper)])
    assert bad.check_map(cx, gamma) == (False, [
        {"constraint": 0, "ok": False, "mode": "exact"}])
    # a vertex constraint is checked on the vertex of the complex it
    # names: its image (-1, -1, 0, 0) is below the plane x_1 = 0
    vertex = Simplex([(-1, -1)])
    assert NeighborhoodSpec([Constraint(vertex, upper)]).check_map(
        cx, gamma) == (False, [{"constraint": 0, "ok": False,
                                "mode": "exact"}])
    lower = HalfSpace((0, -1, 0, 0), 0)
    assert NeighborhoodSpec([Constraint(vertex, lower)]).check_map(
        cx, gamma)[0] is True


def test_face_constraint_on_a_refined_complex_checks_its_pieces():
    # the identity on bsd of a triangle, except that the midpoint of the
    # bottom edge goes to (1/2, -1): the map is not affine on that edge,
    # so its two pieces are hull-tested and the bent one fails
    tri = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)])])
    sub = barycentric_subdivide(tri)
    values = {v: tuple(F(c) for c in v) for v in sub.vertices()}
    values[(F(1, 2), F(0))] = (F(1, 2), F(-1))
    gamma = PLMap(sub, values)
    above = HalfSpace((0, 1), F(-1, 2))           # x_1 > -1/2
    edge = Simplex([(0, 0), (1, 0)])
    assert NeighborhoodSpec([Constraint(edge, above)]).check_map(
        sub, gamma) == (False, [{"constraint": 0, "ok": False,
                                 "mode": "exact"}])
    # an edge inside one top of the complex is affine there: the hull
    # test on its own vertices decides
    inner = Simplex([(F(1, 8), F(1, 8)), (F(1, 4), F(1, 8))])
    assert NeighborhoodSpec([Constraint(inner, above)]).check_map(
        sub, gamma) == (True, [{"constraint": 0, "ok": True,
                                "mode": "exact"}])
    # an edge across several tops and covered by none of the complex's
    # edges may bend anywhere: with its vertex images inside, it is
    # undecided, and fails
    across = Simplex([(F(1, 8), F(1, 8)), (F(3, 4), F(1, 8))])
    low = HalfSpace((0, 1), -2)                   # x_1 > -2
    assert NeighborhoodSpec([Constraint(across, low)]).check_map(
        sub, gamma) == (False, [{"constraint": 0, "ok": False,
                                 "mode": "undecided"}])
    # an edge whose first half is an edge of the complex and whose second
    # half runs inside two triangles: the first half alone does not cover
    # it, so it is checked whole, and the image of its vertex (2, 0)
    # leaves the region exactly
    fan = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)]),
                             Simplex([(1, 0), (1, 1), (3, 0)]),
                             Simplex([(1, 0), (1, -1), (3, 0)])])
    values = {v: tuple(F(c) for c in v) for v in fan.vertices()}
    values[(3, 0)] = (F(3), F(-4))
    longer = Simplex([(0, 0), (2, 0)])
    assert NeighborhoodSpec([Constraint(longer, above)]).check_map(
        fan, PLMap(fan, values)) == (False, [{"constraint": 0, "ok": False,
                                              "mode": "exact"}])


def test_undecided_failures_name_their_cell():
    # a union with a gap holds every vertex image of the triangle, but no
    # hull rule places the image: the input check names the constraint
    # and the cell.  The union of the closed upper and the open lower
    # half plane holds the image of the bottom edge, but not the image of
    # any top with an edge on it as one part: the constraint pass is
    # undecided at every level
    tri = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)])])
    model = FilteredSpaceModel(Filtration(2, [(1, {0, 1})]), FullSpace(2))
    config = EngineConfig(max_subdivision=1, t_grid=1)
    gap = Union([HalfSpace((-1, 0), F(-1, 4)), HalfSpace((1, 0), F(3, 4))])
    spec = NeighborhoodSpec([Constraint("all", FullSpace(2)),
                             Constraint("all", gap)])
    identity = PLMap(tri, {v: v for v in tri.vertices()})
    with pytest.raises(InputError) as err:
        simultaneous_approximation(tri, identity, spec, None, model, config)
    assert str(err.value) == (
        "base map violates the neighbourhood spec: constraint 1 is "
        "undecided on the cell [(0, 0), (1, 0), (0, 1)]")
    either = Union([HalfSpace((0, 1), 0, strict=False),
                    HalfSpace((0, -1), 0)])
    spec = NeighborhoodSpec([Constraint(Simplex([(0, 0), (1, 0)]), either)])
    flip = PLMap(tri, {v: (v[0], -v[1]) for v in tri.vertices()})
    with pytest.raises(ChartCoverError) as err:
        simultaneous_approximation(tri, flip, spec, None, model, config)
    assert str(err.value).endswith(
        "at level 1 the constraint pass is undecided on the cell "
        "[(0, 0), (1/2, 0), (1/3, 1/3)] with vertex images "
        "[(0, 0), (1/2, 0), (1/3, -1/3)]")


def test_engine_rejects_a_map_that_is_not_pl():
    # with no PL structure no hull test is sound, so every constrained
    # cell would be undecided
    cx, corners = square_domain()
    model = plane_model()
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    with pytest.raises(InputError, match="must be a PLMap, got FuncMap"):
        simultaneous_approximation(cx, FuncMap(loop_map(cx, corners)), spec,
                                   None, model, CONFIG)


def edge_constraint_patch():
    """A triangle patch with an edge constraint, which the grid refines
    into two pieces: ``(tri, patch, model, edge, right, spec)``."""
    tri = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)])])
    patch = PLMap(tri, {(0, 0): (F(1), F(0), F(0), F(0)),
                        (2, 0): (F(3), F(1), F(0), F(0)),
                        (0, 2): (F(1), F(2), F(1, 2), F(0))})
    model = plane_model()
    edge = Simplex([(0, 0), (2, 0)])
    right = HalfSpace((1, 0, 0, 0), F(1, 2))      # x_0 > 1/2
    spec = NeighborhoodSpec([Constraint("all", model.carrier),
                             Constraint(edge, right)])
    return tri, patch, model, edge, right, spec


def test_grid_check_hull_tests_the_pieces_of_an_edge_constraint(
        monkeypatch):
    # an edge constraint on a triangle patch: the grid refines the edge
    # into two pieces, and each slice hull-tests both pieces' images
    tri, patch, model, edge, right, spec = edge_constraint_patch()
    tested = []
    in_grid_check = []
    certify = approximation._certify_grid
    hull = HalfSpace.contains_hull

    def certify_counting(*args):
        in_grid_check.append(True)
        return certify(*args)

    def hull_counting(self, points):
        if in_grid_check and self is right:
            tested.append(frozenset(points))
        return hull(self, points)

    monkeypatch.setattr(approximation, "_certify_grid", certify_counting)
    monkeypatch.setattr(HalfSpace, "contains_hull", hull_counting)
    record = individual_approximation(tri, patch, spec, None, model,
                                      alpha=1, config=CONFIG)
    assert record.grid_ok
    assert all(r["details"][1] == {"constraint": 1, "ok": True,
                                   "mode": "exact"}
               for r in record.grid_reports)
    grid = record.engine.grid.final
    pieces = [s for s in grid.simplices
              if s.rank == 2 and all(edge.contains(v) for v in s.vertices)]
    assert len(pieces) == 2
    assert len(tested) == len(pieces) * len(record.grid_reports)
    assert set(tested[:2]) == {frozenset(tuple(patch(v)) for v in p.vertices)
                               for p in pieces}


def test_grid_check_finds_a_face_constraints_pieces_once(monkeypatch):
    # the grid and the edge do not change between slices, so the grid
    # check finds the edge's pieces (one relative_volumes call) once
    tri, patch, model, edge, right, spec = edge_constraint_patch()
    volumes = []
    grid_args = []
    certify = approximation._certify_grid
    relative_volumes = approximation.relative_volumes

    def certify_recording(*args):
        grid_args.append(args)
        volumes.clear()
        return certify(*args)

    def volumes_counting(*args):
        volumes.append(True)
        return relative_volumes(*args)

    monkeypatch.setattr(approximation, "_certify_grid", certify_recording)
    monkeypatch.setattr(approximation, "relative_volumes", volumes_counting)
    record = individual_approximation(tri, patch, spec, None, model,
                                      alpha=1, config=CONFIG)
    assert len(volumes) == 1
    [(engine, rows, ts)] = grid_args
    grid = engine.grid.final
    afresh = []
    for k, t in enumerate(ts):
        column = [row[k] for row in rows]
        ok, details = spec.check_map(grid, bake_on(grid, column))
        afresh.append({"t": str(t), "ok": ok, "details": details})
    assert record.grid_reports == afresh
    assert len(volumes) == 1 + len(ts) > 2


def test_constraint_rejects_other_subset_kinds():
    cx, corners = square_domain()
    carrier = SubcomplexCarrier(cx, [Simplex([corners[0]])])
    region = FullSpace(4)
    for subset in (carrier, "some", [corners[0]]):
        with pytest.raises(InputError):
            Constraint(subset, region)
    for subset in ("all", Simplex([corners[0]]),
                   CompactSample((corners[0],))):
        assert Constraint(subset, region).subset is subset


def test_property_check_reuses_the_grid_complex(monkeypatch):
    # the endpoint and every slice of both the record and the property
    # check are baked on one grid complex, refined once per engine
    cx, corners = square_domain()
    model = plane_model()
    pert = ((1, 1), {2: F(1, 5), 3: F(-1, 7)})
    gamma = loop_map(cx, corners, pert=pert)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    record = individual_approximation(cx, gamma, spec, None, model,
                                      alpha=1, config=CONFIG)
    calls = []
    original = SubdividedComplex.refine

    def counting(self, steps=1):
        calls.append(steps)
        return original(self, steps)

    monkeypatch.setattr(SubdividedComplex, "refine", counting)
    report = verify_theta_properties(record.engine, gamma,
                                     SamplingPlan(t_points=3))
    assert calls == []
    assert report["b"] is True
    assert record.engine.grid.final is record.eta_baked.domain


def test_cell_regions_through_origin_faces_keep_spec_order():
    # every kind of constraint subset, with "all" not first and more
    # constraints than a small set has slots: the regions found through
    # the vertices' origin sets are the very regions the binding rule
    # finds, in spec order.  A cell binds a member simplex when at least
    # two of its vertices lie in it (they meet in at least an edge), and
    # every other subset when it meets it
    base = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                              Simplex([(2, 0), (0, 2), (2, 2)])])
    tree = SubdividedComplex(base).refine(2)
    members = sorted(base.simplices, key=lambda s: sorted(s.vertices))
    subsets = members[:5] + ["all"] + members[5:] + [
        Simplex([(1, 0), (0, 1)]), CompactSample(((F(1, 2), F(1, 3)),))]
    spec = NeighborhoodSpec(
        Constraint(subset, OpenBall((F(0), F(0)), 10 + k))
        for k, subset in enumerate(subsets))
    regions = _cell_regions_for(
        tree, spec, _constraints_by_face(tree.base, spec), 2)

    def binds(con, cell):
        if cell.rank >= 2 and isinstance(con.subset, Simplex) \
                and con.subset in base:
            inside = sum(con.subset.contains(v) for v in cell.vertices)
            return inside >= 2
        return con.meets_simplex(cell)

    hit_counts = [0] * len(subsets)
    vertex_only = 0
    for cell in tree.final.tops():
        want = [c.region for c in spec if binds(c, cell)]
        got = regions[cell.key]
        got = got.parts if isinstance(got, Intersection) else [got]
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        for k, con in enumerate(spec):
            hit_counts[k] += con.region in got
            vertex_only += con.meets_simplex(cell) and not binds(con, cell)
    cells = len(tree.final.tops())
    assert vertex_only > 0  # a cell meeting a face at one vertex only
    assert hit_counts[5] == cells
    for k, subset in enumerate(subsets):
        if k == 5:
            continue
        if isinstance(subset, Simplex) and subset.rank == 1:
            assert hit_counts[k] == 0  # a vertex never binds
        else:
            assert 0 < hit_counts[k] < cells


def test_flatten_region_keeps_first_occurrences():
    # a shared part object is taken once and equal plane complements
    # collapse to the first one met, in the traversal order of the parent
    hs = HalfSpace((1, 0, 0, 0), 0)
    ball = OpenBall((F(0),) * 4, 1)
    first, second = (CoordinatePlaneComplement(4, 0, 1) for _ in range(2))
    inner = Intersection([hs, second])
    convex, planes = _flatten_region(
        Intersection([inner, ball, inner, first, hs]))
    assert len(convex) == 2 and convex[0] is hs and convex[1] is ball
    assert len(planes) == 1 and planes[0] is first


def test_grid_check_reuses_hull_verdicts_only_where_sound(monkeypatch):
    # an engine stand-in: a grid of two triangles and a spec over the same
    # tops.  Slice 1 repeats the value objects of slice 0; slice 2 moves
    # the vertex (1, 1) out of the region of constraint 1 and keeps the
    # other objects; slice 3 has values equal to slice 2 in new objects;
    # slice 4 repeats slice 0.  Constraint 2 is a union with a gap, which
    # the hull test cannot decide: it is undecided, fails, and is never
    # reused; constraint 3 is checked on its own subset, a vertex
    grid = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)]),
                              Simplex([(1, 0), (0, 1), (1, 1)])])
    spec = NeighborhoodSpec([
        Constraint("all", HalfSpace((1, 0), -10)),
        Constraint("all", HalfSpace((-1, 0), -5)),
        Constraint("all", Union([HalfSpace((-1, 0), F(-1, 4)),
                                 HalfSpace((1, 0), F(3, 4))])),
        Constraint(Simplex([(1, 1)]), HalfSpace((-1, 0), -5)),
    ])
    engine = SimpleNamespace(grid=SimpleNamespace(final=grid), spec=spec)
    start = {v: (F(v[0]), F(v[1])) for v in grid.vertices()}
    moved = dict(start)
    moved[(1, 1)] = (F(6), F(1))
    again = {v: tuple(F(c) for c in p) for v, p in moved.items()}
    slices = [start, start, moved, again, start]
    rows = [tuple(values[v] for values in slices) for v in grid.vertices()]
    ts = tuple(F(k, 4) for k in range(5))

    def hull_tests(check):
        calls = []
        for kind in (HalfSpace, Union):
            original = kind.contains_hull
            monkeypatch.setattr(kind, "contains_hull",
                                lambda self, pts, original=original:
                                calls.append(type(self))
                                or original(self, pts))
        out = check()
        monkeypatch.undo()
        return out, Counter(calls)

    reports, tests_here = hull_tests(
        lambda: _certify_grid(engine, rows, ts))

    def afresh():
        out = []
        for k, t in enumerate(ts):
            column = [row[k] for row in rows]
            ok, details = spec.check_map(grid, bake_on(grid, column))
            out.append({"t": str(t), "ok": ok, "details": details})
        return out

    want, tests_afresh = hull_tests(afresh)
    assert reports == want
    verdicts = [[d["ok"] for r in reports for d in r["details"]
                 if d["constraint"] == i] for i in range(4)]
    assert verdicts[0] == [True] * 5
    assert verdicts[1] == verdicts[3] == [True, True, False, False, True]
    assert verdicts[2] == [False] * 5
    assert {d["mode"] for r in reports for d in r["details"]
            if d["constraint"] == 2} == {"undecided"}
    assert tests_here[HalfSpace] < tests_afresh[HalfSpace]  # reused
    assert tests_here[Union] == tests_afresh[Union] == 5  # never reused


QUADRANT = Intersection([HalfSpace((1, 0), 0), HalfSpace((0, 1), 0)])
PUSH_BALL_CASES = [
    # core, centre, radius, verdict for the closed ball: inside, tangent
    # to the boundary, reaching past it
    (FullSpace(2), (1, 1), 100, True),
    (QUADRANT, (1, 1), F(1, 2), True),
    (QUADRANT, (1, 1), 1, False),
    (QUADRANT, (1, 1), 2, False),
    (OpenBall((F(1), F(0)), 2), (1, 1), F(1, 2), True),
    (OpenBall((F(1), F(0)), 2), (1, 1), 1, False),
    (OpenBall((F(1), F(0)), 2), (1, 1), 3, False),
    (HalfSpace((1, 0), 0), (1, 1), F(1, 2), True),
    (HalfSpace((1, 0), 0), (1, 1), 1, False),
    (HalfSpace((1, 0), 0, strict=False), (1, 1), 1, True),
    (HalfSpace((1, 0), 0, strict=False), (1, 1), 2, False),
    (CoordinatePlaneComplement(2, 0, 1), (1, 0), F(1, 2), True),
    (CoordinatePlaneComplement(2, 0, 1), (1, 0), 1, False),
    (CoordinatePlaneComplement(2, 0, 1), (1, 0), 2, False),
    # a map constant near the anchor: the point test alone
    (HalfSpace((1, 0), 1, strict=False), (1, 1), 0, True),
    (HalfSpace((1, 0), 1), (1, 1), 0, False),
    (CoordinatePlaneComplement(2, 0, 1), (1, 0), 0, True),
    (OpenBall((F(3), F(1)), 2), (1, 1), 0, False),
]


@pytest.mark.parametrize("core, center, radius, inside", PUSH_BALL_CASES)
def test_push_radius_decides_the_closed_ball_in_the_core(core, center,
                                                         radius, inside):
    # one pushed anchor x = 0 of a base segment whose map has slope 1
    # (Lipschitz bound exactly 1), or slope 0 for radius 0: at eps the
    # only condition left is the closed ball of radius eps around
    # gamma0(x) = center inside the core
    seg = Simplex([(0,), (1,)])
    gx = tuple(F(c) for c in center)
    far = (gx[0] + (1 if radius else 0), gx[1])
    gamma = PLMap(SimplicialComplex([seg]), {(0,): gx, (1,): far})
    engine = SimpleNamespace(
        S=[(0,)], P=NeighborhoodSpec([]),
        tree=SubdividedComplex(SimplicialComplex([seg])))
    moved = [((0,), gx, core, None)]
    bounds = [approximation._push_bounds((0,), engine, gamma, None)]
    eps = F(radius or 1)
    assert approximation._epsilon_ok(eps, moved, bounds) is inside


@st.composite
def integer_times(draw):
    """A denominator and a tuple of times ``k/den`` in ``[0, 1]``, with
    both ends and repeats likely."""
    den = draw(st.integers(1, 64))
    ks = draw(st.lists(st.one_of(st.sampled_from((0, den)),
                                 st.integers(0, den)), max_size=8))
    return tuple(ks), den


@st.composite
def point_pairs(draw):
    """Two points with rational coordinates, some of them shared."""
    scalar = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    a = draw(st.lists(scalar, min_size=1, max_size=5))
    b = [p if draw(st.booleans()) else draw(scalar) for p in a]
    return tuple(a), tuple(b)


@settings(derandomize=True, database=None, max_examples=200,
          deadline=None)
@given(integer_times(), point_pairs())
def test_lerps_equals_the_fraction_blend(times, points):
    # every coordinate is b + (k/den)*(a - b); the ends are the objects a
    # and b, and a repeated weight is one object
    ks, den = times
    a, b = points
    got = _lerps(ks, den, a, b)
    assert len(got) == len(ks)
    for k, value in zip(ks, got):
        assert value == tuple(q + F(k, den) * (p - q) for p, q in zip(a, b))
        if a == b:
            assert value is a
        elif k in (0, den):
            assert value is (a if k == den else b)
    for k, value in zip(ks, got):
        assert value is got[ks.index(k)]


@settings(derandomize=True, database=None, max_examples=200,
          deadline=None)
@given(integer_times())
def test_by_half_splits_as_the_fraction_rule(times):
    # t = k/den goes early with 2t when 2t <= 1, else late with 2t - 1;
    # both over den, in the order of ks, and no side runs on nothing
    ks, den = times
    calls = []

    def side(name):
        def run(ws):
            calls.append((name, ws))
            return tuple((name, F(w, den)) for w in ws)
        return run

    got = _by_half(ks, den, side("early"), side("late"))
    ts = [F(k, den) for k in ks]
    assert got == tuple(("early", 2 * t) if 2 * t <= 1 else
                        ("late", 2 * t - 1) for t in ts)
    assert all(ws and all(0 <= w <= den for w in ws) for _, ws in calls)
    assert len(calls) == len({name for name, _ in calls})
