"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line and enforces its runtime budget.
All expected values are exact (frozen from independent oracles inside the
tests) or verified against the stated invariants; tolerances are zero on
the rational backend throughout.
"""

import random
import time
from fractions import Fraction

from ascolim.approximation import (Constraint, EngineConfig,
                                   NeighborhoodSpec, SamplingPlan,
                                   simultaneous_approximation,
                                   verify_theta_properties)
from ascolim.convexity import (FinitePointSet, conv2_with_convn_contains,
                               conv_n_contains, hull_contains)
from ascolim.direct_limits import (Cone, DirectSystemOfSets, Poset,
                                   set_colimit, universal_map)
from ascolim.errors import InputError
from ascolim.filling import boundary_complex, default_anchor, fill
from ascolim.filtered_spaces import FilteredSpaceModel, Filtration
from ascolim.geometry import Simplex, combine, diameter_sq
from ascolim.invariants import (ComponentModel, LoopModel,
                                component_union_check, injectivity_leg,
                                palais_experiment, surjectivity_leg)
from ascolim.plmaps import PLMap
from ascolim.regions import (CoordinatePlaneComplement, OpenBall, Union)
from ascolim.simplicial import (SimplicialComplex, barycentric_subdivide,
                                max_diameter_sq, relative_volumes)

F = Fraction


def _status(name, ok, budget, elapsed):
    passed = ok and elapsed < budget
    line = f"{'PASS' if passed else 'FAIL'} {name} " \
           f"({elapsed:.1f}s of {budget}s budget)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _random_simplex(rng, rank, dim, den=4, span=16):
    while True:
        pts = [tuple(F(rng.randint(-span, span), den) for _ in range(dim))
               for _ in range(rank)]
        try:
            return Simplex(pts)
        except InputError:
            continue


def _normalized(w):
    if sum(w) == 0:
        w[0] = F(1)
    tot = sum(w)
    return [x / tot for x in w]


def _random_pl_boundary(simplex, rng, target_dim=3):
    bc = boundary_complex(simplex)
    values = {tuple(v): tuple(F(rng.randint(-12, 12), 4)
                              for _ in range(target_dim))
              for v in bc.vertices()}
    return PLMap(bc, values)


def test_criterion_1_filling_lemma_suite():
    budget, start = 10.0, time.perf_counter()
    rng = random.Random(101)
    boundary_checks = 0
    ok = True
    for _ in range(100):
        sx = _random_simplex(rng, rng.randint(2, 4), 6)
        gamma = _random_pl_boundary(sx, rng)
        anchor = default_anchor(sx)
        phi = fill(sx, anchor, gamma)
        # boundary agreement, exactly
        for _ in range(2):
            facet = sx.facets()[rng.randrange(sx.rank)]
            w = _normalized([F(rng.randint(0, 6))
                             for _ in range(facet.rank)])
            x = combine(facet.vertices, w)
            ok = ok and phi(x) == tuple(gamma(x))
            boundary_checks += 1
        # linearity at a sampled interior point, exactly
        g2 = _random_pl_boundary(sx, rng)
        combo = fill(sx, anchor,
                     lambda y, a=gamma, b=g2: tuple(
                         2 * p - q for p, q in zip(a(y), b(y))))
        f2 = fill(sx, anchor, g2)
        w = _normalized([F(rng.randint(0, 6)) for _ in range(sx.rank)])
        x = combine(sx.vertices, w)
        ok = ok and combo(x) == tuple(2 * p - q
                                      for p, q in zip(phi(x), f2(x)))
        # constant preservation, exactly
        y0 = tuple(gamma(anchor))
        const = fill(sx, anchor, lambda _z, v=y0: v)
        ok = ok and const(x) == y0
        # conv_2 containment certificate re-verifies
        val, (t, av, yb, gy) = phi.value_with_certificate(x)
        if t == 1:
            ok = ok and val == av
        else:
            ok = ok and 0 <= t <= 1
            ok = ok and val == tuple(t * a + (1 - t) * b
                                     for a, b in zip(av, gy))
            ok = ok and gy == tuple(gamma(yb))
    ok = ok and boundary_checks == 200
    _status("criterion 1 (filling lemma suite)", ok, budget,
            time.perf_counter() - start)


def test_criterion_2_subdivision_suite():
    budget, start = 30.0, time.perf_counter()
    rng = random.Random(202)
    ok = True
    for i in range(500):
        rank = rng.randint(2, 5)
        sx = _random_simplex(rng, rank, 6)
        cx = SimplicialComplex([sx])
        sub = barycentric_subdivide(cx)
        bound = F(rank - 1, rank) ** 2 * diameter_sq(sx)
        ok = ok and max_diameter_sq(sub) <= bound
        if i % 5 == 0:
            # refinement: exact volume sums and containment
            pieces = [s for s in sub.tops() if s.rank == rank]
            vols = relative_volumes(sx, pieces)
            ok = ok and sum(vols) == 1 and all(v > 0 for v in vols)
            for piece in pieces:
                ok = ok and all(sx.contains(v) for v in piece.vertices)
    # the triangle instance reproduces the max diameter sqrt(5)/3 exactly
    tri = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)])])
    ok = ok and max_diameter_sq(barycentric_subdivide(tri)) == F(5, 9)
    _status("criterion 2 (subdivision suite)", ok, budget,
            time.perf_counter() - start)


def test_criterion_3_convexity_suite():
    budget, start = 60.0, time.perf_counter()
    rng = random.Random(303)
    ok = True
    for _ in range(50):
        pts = FinitePointSet([tuple(F(rng.randint(-6, 6), 3)
                                    for _ in range(3))
                              for _ in range(rng.randint(2, 6))])
        n = rng.randint(1, 3)
        for _ in range(100):
            if rng.random() < 0.5:
                idx = [rng.randrange(len(pts.points))
                       for _ in range(n + 1)]
                w = _normalized([F(rng.randint(0, 4)) for _ in idx])
                probe = combine([pts.points[i] for i in idx], w)
            else:
                probe = tuple(F(rng.randint(-8, 8), 3) for _ in range(3))
            lhs = conv2_with_convn_contains(pts, n, probe)[0]
            rhs = conv_n_contains(pts, n + 1, probe)[0]
            ok = ok and lhs == rhs
    # Caratheodory saturation against the full-hull test (the Farkas gate)
    for _ in range(25):
        pts = FinitePointSet([tuple(F(rng.randint(-6, 6), 3)
                                    for _ in range(3))
                              for _ in range(rng.randint(1, 6))])
        sat = len(pts.points) * (pts.dim + 1)
        for _ in range(20):
            probe = tuple(F(rng.randint(-8, 8), 3) for _ in range(3))
            full = hull_contains(pts, probe)
            ok = ok and conv_n_contains(pts, pts.dim + 1, probe)[0] == full
            ok = ok and conv_n_contains(pts, sat, probe)[0] == full
    _status("criterion 3 (convexity suite)", ok, budget,
            time.perf_counter() - start)


def _random_chain_system(rng):
    if rng.random() < 0.3:
        # a non-chain directed poset: two legs under a common top
        poset = Poset(["l", "r", "t"], [("l", "t"), ("r", "t")])
        objects = {a: list(range(rng.randint(1, 6)))
                   for a in ("l", "r", "t")}
        bonding = {("t", a): {x: rng.randrange(len(objects["t"]))
                              for x in objects[a]} for a in ("l", "r")}
        return DirectSystemOfSets(poset, objects, bonding)
    n = rng.randint(1, 5)
    labels = list(range(n))
    poset = Poset.chain(labels)
    objects = {k: list(range(rng.randint(1, 6))) for k in labels}
    consecutive = {k: {x: rng.randrange(len(objects[k + 1]))
                       for x in objects[k]} for k in range(n - 1)}
    bonding = {}
    for a in labels:
        for b in labels:
            if a >= b:
                continue

            def chase(x, a=a, b=b):
                for k in range(a, b):
                    x = consecutive[k][x]
                return x

            bonding[(b, a)] = {x: chase(x) for x in objects[a]}
    return DirectSystemOfSets(poset, objects, bonding)


def _brute_force_classes(system):
    from itertools import product
    tagged = [(a, x) for a in system.poset.elements
              for x in system.objects[a]]
    related = set()
    for (a, x), (b, y) in product(tagged, repeat=2):
        for c in system.poset.upper_bounds(a, b):
            if system.map(c, a, x) == system.map(c, b, y):
                related.add(((a, x), (b, y)))
                break
    changed = True
    while changed:
        changed = False
        for p, q in list(related):
            for q2, r in list(related):
                if q == q2 and (p, r) not in related:
                    related.add((p, r))
                    changed = True
    classes, seen = [], set()
    for t in tagged:
        if t in seen:
            continue
        group = sorted({u for u in tagged if (t, u) in related} | {t},
                       key=repr)
        classes.append(group)
        seen.update(group)
    return sorted(classes, key=repr)


def test_criterion_4_colimit_suite():
    budget, start = 30.0, time.perf_counter()
    rng = random.Random(404)
    ok = True
    for _ in range(100):
        system = _random_chain_system(rng)
        colim = set_colimit(system)
        got = sorted((sorted(g, key=repr) for g in colim.classes), key=repr)
        ok = ok and got == _brute_force_classes(system)
        ok = ok and colim.verify_witnesses()
        # universal map: the equations pin the map uniquely
        maps = {a: {x: colim.class_of(a, x) for x in system.objects[a]}
                for a in system.poset.elements}
        cone = Cone(system, maps)
        values, report = universal_map(colim, cone)
        ok = ok and report.well_defined
        for i in range(len(colim.classes)):
            perturbed = list(values)
            perturbed[i] = ("!", perturbed[i])
            broken = any(
                perturbed[colim.class_of(a, x)] != cone.maps[a][x]
                for a in system.poset.elements for x in system.objects[a])
            ok = ok and broken
    _status("criterion 4 (colimit suite)", ok, budget,
            time.perf_counter() - start)


def _triangle_into_r6():
    filt = Filtration(6, [(2, {0, 1}), (4, {0, 1, 2, 3}),
                          (6, set(range(6)))])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(6, 0, 1))
    tri = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)])])
    values = {
        (F(0), F(0)): (F(2), F(0), F(0), F(0), F(0), F(0)),
        (F(2), F(0)): (F(2), F(1), F(1), F(0), F(0), F(0)),
        (F(0), F(2)): (F(1), F(2), F(0), F(1), F(0), F(0)),
    }
    gamma = PLMap(tri, values)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    return tri, gamma, spec, model


def _square_boundary_into_r8():
    filt = Filtration(8, [(2, {0, 1}), (4, {0, 1, 2, 3}),
                          (8, set(range(8)))])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(8, 0, 1))
    corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    cx = SimplicialComplex([Simplex([corners[i], corners[(i + 1) % 4]])
                            for i in range(4)])
    values = {}
    for v in cx.vertices():
        val = [F(v[0]), F(v[1])] + [F(0)] * 6
        if tuple(v) == (1, 1):
            val[4] = F(1, 4)
        values[tuple(v)] = tuple(val)
    gamma = PLMap(cx, values)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    return cx, gamma, spec, model


def test_criterion_5_theta_property_suite():
    budget, start = 300.0, time.perf_counter()
    config = EngineConfig(max_subdivision=6, bake_level=1, t_grid=50,
                          probe_per_cell=2)
    ok = True
    for build in (_triangle_into_r6, _square_boundary_into_r8):
        cx, gamma, spec, model = build()
        _, _, engine = simultaneous_approximation(cx, gamma, spec, None,
                                                  model, config)
        tops = len(engine.tree.final.tops())
        per_cell = max(1, -(-200 // tops))  # ceil: >= 200 twin samples
        plan = SamplingPlan(points_per_cell=per_cell, t_points=50)
        report = verify_theta_properties(engine, gamma, plan)
        ok = ok and report["a"] is True
        ok = ok and report["h"] is True
        ok = ok and report["e"] is True
        ok = ok and report["b"] is True
        ok = ok and report["c"] is True
        ok = ok and report["d"]["escaped"] is None
        ok = ok and report["d"]["beta"] is not None
        # (g): a constant map through the same engine pipeline
        y = tuple(gamma(cx.vertices()[0]))
        const_gamma = PLMap(cx, {tuple(v): y for v in cx.vertices()})
        _, _, const_engine = simultaneous_approximation(
            cx, const_gamma, spec, None, model, config)
        const_report = verify_theta_properties(
            const_engine, const_gamma,
            SamplingPlan(points_per_cell=2, t_points=10),
            constant_cells=const_engine.tree.final.tops())
        ok = ok and const_report["g"] is True
    _status("criterion 5 (theta property suite)", ok, budget,
            time.perf_counter() - start)


def test_criterion_6_pi1_direct_limit_experiment():
    budget, start = 600.0, time.perf_counter()
    config = EngineConfig(max_subdivision=6, bake_level=1, t_grid=50,
                          probe_per_cell=2)
    filt = Filtration(8, [(2, {0, 1}), (4, {0, 1, 2, 3})])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(8, 0, 1))
    base = [(1, 1), (-1, 1), (-1, -1), (1, -1)] * 3
    verts = [list(F(c) for c in p) + [F(0)] * 6 for p in base]
    # support through coordinates 1..8: perturb two vertices off E_4
    for d, amount in ((4, F(1, 8)), (5, F(-1, 16)), (6, F(1, 32)),
                      (7, F(-1, 64))):
        verts[2][d] = amount
        verts[7][d] = -amount
    probe = LoopModel([tuple(v) for v in verts], axis=(0, 1),
                      label="winding-3")
    leg = surjectivity_leg(model, probe, config)
    ok = leg["winding_before"] == 3
    ok = ok and leg["winding_after"] == 3
    ok = ok and leg["grid_ok"]
    ok = ok and leg["beta"] in (2, 4)  # a finite step; projection lands in E_2
    ok = ok and leg["beta"] == 2
    # injectivity: two equal-winding step loops joined through the prism
    sigma = LoopModel([(1, 1, 0, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0, 0, 0),
                       (-1, -1, 0, 0, 0, 0, 0, 0),
                       (1, -1, 0, 0, 0, 0, 0, 0)], axis=(0, 1))
    tau = LoopModel([(1, 1, 0, 0, 0, 0, 0, 0), (-2, 2, 0, 0, 0, 0, 0, 0),
                     (-2, -2, 0, 0, 0, 0, 0, 0),
                     (2, -2, 0, 0, 0, 0, 0, 0)], axis=(0, 1))
    pair = injectivity_leg(model, sigma, tau, config, u_levels=3)
    ok = ok and pair["endpoints_frozen"]
    ok = ok and pair["grid_ok"]
    ok = ok and pair["beta"] == 2
    _status("criterion 6 (pi1 direct-limit experiment)", ok, budget,
            time.perf_counter() - start)


def _two_ball_cmodel():
    filt = Filtration(2, [(1, {0}), (2, {0, 1})])
    carrier = Union([OpenBall((F(-2), F(0)), 1), OpenBall((F(2), F(0)), 1)])
    model = FilteredSpaceModel(filt, carrier, rho=F(2),
                               sample_box=((F(-3), F(-1)), (F(3), F(1))))
    nodes = [(F(-2), F(0)), (F(2), F(0)),
             (F(-2), F(1, 2)), (F(2), F(1, 2))]
    return ComponentModel(model, nodes,
                          {1: [0, 1], 2: [0, 1, 2, 3]},
                          {1: [], 2: [(0, 2), (1, 3)]},
                          ambient_edges=[])


def test_criterion_7_palais_experiment():
    budget, start = 600.0, time.perf_counter()
    config = EngineConfig(max_subdivision=6, bake_level=1, t_grid=25,
                          probe_per_cell=2)
    ok = True
    # two-ball model: degree zero both sides
    cmodel = _two_ball_cmodel()
    cmodel.validate_edges()
    report = palais_experiment(cmodel.model, cmodel=cmodel)
    ok = ok and report["pi0"]["bijective"]
    ok = ok and report["pi0"]["witnesses_verified"]
    # punctured plane times R^6: degree one both legs through the engine
    filt = Filtration(8, [(2, {0, 1}), (4, {0, 1, 2, 3}),
                          (8, set(range(8)))])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(8, 0, 1))
    loops = [
        LoopModel([(1, 1) + (0,) * 6, (-1, 1) + (0,) * 6,
                   (-1, -1) + (0,) * 6, (1, -1) + (0,) * 6], axis=(0, 1),
                  label="w1"),
        LoopModel([(1, 1) + (0,) * 6, (-1, 1) + (0,) * 6,
                   (-1, -1) + (0,) * 6, (1, -1) + (0,) * 6] * 2,
                  axis=(0, 1), label="w2"),
    ]
    sigma = loops[0]
    tau = LoopModel([(1, 1) + (0,) * 6, (-2, 2) + (0,) * 6,
                     (-2, -2) + (0,) * 6, (2, -2) + (0,) * 6], axis=(0, 1))
    report = palais_experiment(model, loops=loops, pairs=[(sigma, tau)],
                               config=config)
    ok = ok and report["pi1"]["all_windings_preserved"]
    ok = ok and report["pi1"]["all_grids_ok"]
    ok = ok and report["pi1"]["psi_bijective_on_window"]
    ok = ok and report["pi1"]["group_colimit"]["group"] == "Z^1"
    _status("criterion 7 (palais experiment)", ok, budget,
            time.perf_counter() - start)


def test_criterion_8_component_union():
    budget, start = 10.0, time.perf_counter()
    rng = random.Random(808)
    ok = True
    for _ in range(20):
        dim = rng.randint(2, 4)
        labels = list(range(1, dim + 1))
        filt = Filtration(dim, [(k, range(k)) for k in labels])
        model = FilteredSpaceModel(filt, OpenBall((F(0),) * dim, 10))
        n = rng.randint(3, 8)
        nodes = []
        for _k in range(n):
            level = rng.choice(labels)
            nodes.append(tuple(F(rng.randint(-3, 3)) if d < level else F(0)
                               for d in range(dim)))
        step_nodes = {a: [i for i, p in enumerate(nodes)
                          if filt.subspace_contains(a, p)]
                      for a in labels}
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
        step_edges = {a: [(i, j) for (i, j) in all_edges
                          if i in step_nodes[a] and j in step_nodes[a]]
                      for a in labels}
        cmodel = ComponentModel(model, nodes, step_nodes, step_edges,
                                ambient_edges=[])
        for node in range(n):
            got = component_union_check(cmodel, node)
            ok = ok and got["equal"]
    _status("criterion 8 (component union)", ok, budget,
            time.perf_counter() - start)
