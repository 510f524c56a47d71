"""Homotopy-invariant oracles and the end-to-end experiments.

Winding numbers (exact signed ray crossings of the projection to a
coordinate pair) are the complete degree-one invariant for carriers of
the form "euclidean space minus one codimension-two coordinate plane",
and path components of certified step graphs give the degree-zero data.
The experiments wire these oracles to the approximation engine: loops are
homotoped into finite steps with winding certified before and after, two
equal-winding step loops are joined by an annulus-interpolation homotopy
that the engine then pushes into a step, and the union-vs-ambient
comparisons run through witness-based colimits.
"""

import math
import random
from dataclasses import dataclass

from ascolim._kernels import winding_crossings_q
from ascolim.approximation import (Constraint, EngineConfig,
                                   NeighborhoodSpec,
                                   individual_approximation)
from ascolim.direct_limits import (Cone, DirectSystemOfAbelianGroups,
                                   DirectSystemOfSets, Poset,
                                   abelian_colimit, set_colimit,
                                   universal_map)
from ascolim.errors import InputError
from ascolim.geometry import Simplex, as_point
from ascolim.plmaps import PLMap
from ascolim.rats import RAT, scale_common, to_rat
from ascolim.simplicial import (SimplicialComplex, SubcomplexCarrier,
                                triangulate_prism)


@dataclass
class LoopModel:
    """PL closed curve given by its cyclic vertex list.

    The first vertex is the basepoint; ``axis`` names the coordinate pair
    whose plane is removed from the carrier.  A trailing repeat of the
    first vertex is stripped.
    """

    vertices: list
    axis: tuple = (0, 1)
    label: str = "loop"

    def __post_init__(self):
        pts = [as_point(v) for v in self.vertices]
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise InputError("a loop needs at least three distinct vertices")
        i, j = self.axis
        for p in pts:
            if p[i] == 0 and p[j] == 0:
                raise InputError(f"loop vertex {p!r} on the removed plane")
        self.vertices = pts

    @property
    def basepoint(self):
        return self.vertices[0]

    @property
    def dim(self):
        return len(self.vertices[0])


def winding_number(loop):
    """Exact winding of the loop's axis projection around the origin.

    Signed crossing count of a generic rational ray; the direction is
    perturbed until no vertex lies on the closed ray.
    """
    if isinstance(loop, LoopModel):
        pts = loop.vertices
        i, j = loop.axis
    else:
        pts, (i, j) = loop
    proj = [(p[i], p[j]) for p in pts]
    flat = [c for q in proj for c in q]
    nums, _den = scale_common([to_rat(c) for c in flat])
    xs = [nums[2 * k] for k in range(len(proj))]
    ys = [nums[2 * k + 1] for k in range(len(proj))]
    for k in range(4 * len(proj) + 4):
        try:
            return winding_crossings_q(xs, ys, 1 + k, k * k + k)
        except ValueError:
            continue
    raise InputError("could not find a generic ray direction")


def polygon_domain(n):
    """Boundary complex of a square traversed by ``n`` rational vertices.

    Returns ``(complex, ordered domain vertices)``; the first vertex is
    the basepoint corner ``(1, 1)``.
    """
    if n < 3:
        raise InputError("need at least three domain vertices")
    corners = [(RAT(1), RAT(1)), (RAT(-1), RAT(1)),
               (RAT(-1), RAT(-1)), (RAT(1), RAT(-1))]
    pts = []
    for k in range(n):
        t = RAT(8 * k, n)
        side = int(t // 2)
        frac = t - 2 * side
        a = corners[side % 4]
        b = corners[(side + 1) % 4]
        pts.append(tuple(ai + frac / 2 * (bi - ai)
                         for ai, bi in zip(a, b)))
    edges = [Simplex([pts[k], pts[(k + 1) % n]]) for k in range(n)]
    return SimplicialComplex(edges), pts


def loop_as_pl(loop):
    """The loop as a PL map on a polygon domain.

    Returns ``(domain complex, map, basepoint carrier)``.
    """
    cx, dom_pts = polygon_domain(len(loop.vertices))
    values = {tuple(d): v for d, v in zip(dom_pts, loop.vertices)}
    gamma = PLMap(cx, values)
    base = SubcomplexCarrier(cx, [Simplex([dom_pts[0]])])
    return cx, gamma, base


def cyclic_vertex_order(complex_, start=None):
    """Vertices of a single-cycle rank-2 complex in traversal order."""
    edges = [s for s in complex_.tops() if s.rank == 2]
    nbrs = {}
    for e in edges:
        a, b = e.vertices
        nbrs.setdefault(tuple(a), []).append(tuple(b))
        nbrs.setdefault(tuple(b), []).append(tuple(a))
    if any(len(v) != 2 for v in nbrs.values()):
        raise InputError("complex is not a single closed curve")
    first = tuple(start) if start is not None else min(nbrs)
    order = [first]
    prev = None
    while True:
        cur = order[-1]
        nxt = nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1]
        if nxt == first:
            break
        order.append(nxt)
        prev = cur
    return order


def loop_of_map(complex_, evaluator, axis, basepoint_dom=None):
    """The image loop of a PL map on a cycle domain, in traversal order.

    The traversal is oriented positively in the domain plane (our polygon
    domains encircle the origin), so image windings compare directly with
    the probe parametrization.
    """
    order = cyclic_vertex_order(complex_, start=basepoint_dom)
    if winding_number((order, (0, 1))) < 0:
        order = [order[0]] + list(reversed(order[1:]))
    return LoopModel([tuple(evaluator(v)) for v in order], axis=axis)


# -- component graphs ---------------------------------------------------------


class ComponentModel:
    """Nested sample graphs of the steps plus the ambient sample graph.

    Nodes are shared: each step names a subset of the global node list
    (monotone along the chain), edges per step connect nodes whose segment
    lies in the step (certified by the region algebra).  The
    ambient graph is the union of the step graphs plus optional extra
    edges certified in the carrier only.
    """

    def __init__(self, model, nodes, step_nodes, step_edges, ambient_edges):
        self.model = model
        self.nodes = [as_point(p) for p in nodes]
        self.step_nodes = {a: sorted(set(ix)) for a, ix in step_nodes.items()}
        self.step_edges = {a: sorted({tuple(sorted(e)) for e in edges})
                           for a, edges in step_edges.items()}
        self.ambient_edges = sorted({tuple(sorted(e))
                                     for e in ambient_edges})
        self.labels = model.filtration.labels
        prev = set()
        for a in self.labels:
            cur = set(self.step_nodes.get(a, []))
            if not cur >= prev:
                raise InputError("step node sets must be nested")
            prev = cur

    def validate_edges(self):
        """Certify each edge segment inside its carrier, exactly; an edge
        the region algebra cannot decide is an ``InputError`` naming the
        step and the edge, as one that leaves the carrier is."""
        filt, carrier = self.model.filtration, self.model.carrier
        for a in self.labels:
            for (i, j) in self.step_edges.get(a, []):
                p, q = self.nodes[i], self.nodes[j]
                if not (filt.subspace_contains(a, p)
                        and filt.subspace_contains(a, q)
                        and carrier.contains_hull([p, q]) is True):
                    raise InputError(f"edge {(i, j)} not certified "
                                     f"in step {a!r}")
        for (i, j) in self.ambient_edges:
            if carrier.contains_hull([self.nodes[i], self.nodes[j]]) \
                    is not True:
                raise InputError(f"ambient edge {(i, j)} not certified "
                                 f"in the carrier")

    def _components(self, node_ids, edges):
        parent = {i: i for i in node_ids}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for (i, j) in edges:
            if i in parent and j in parent:
                parent[find(i)] = find(j)
        comps = {}
        for i in node_ids:
            comps.setdefault(find(i), set()).add(i)
        return sorted((frozenset(c) for c in comps.values()), key=sorted)

    def step_components(self, a):
        return self._components(self.step_nodes.get(a, []),
                                self.step_edges.get(a, []))

    def ambient_components(self):
        all_edges = list(self.ambient_edges)
        for a in self.labels:
            all_edges.extend(self.step_edges.get(a, []))
        return self._components(range(len(self.nodes)), all_edges)


def pi0_report(cmodel):
    """Per-step components, their colimit, and the universal comparison.

    Builds the component direct system over the chain (bonding: a step
    component maps to the component of the next step containing it), runs
    the witness colimit, and compares with the ambient components through
    the universal map.  Every edge is certified first
    (``ComponentModel.validate_edges``).
    """
    cmodel.validate_edges()
    labels = cmodel.labels
    poset = Poset.chain(labels)
    comp = {a: cmodel.step_components(a) for a in labels}
    objects = {a: list(range(len(comp[a]))) for a in labels}

    bonding = {}
    for ai, a in enumerate(labels):
        for b in labels[ai + 1:]:
            bonding[(b, a)] = {
                ci: _component_index(comp[b], min(comp[a][ci]),
                                     f"step {b!r}") for ci in objects[a]}
    system = DirectSystemOfSets(poset, objects, bonding)
    colim = set_colimit(system)

    ambient = cmodel.ambient_components()
    cone = Cone(system,
                {a: {ci: _component_index(ambient, min(comp[a][ci]),
                                          "the ambient graph")
                     for ci in objects[a]} for a in labels},
                target=list(range(len(ambient))))
    values, report = universal_map(colim, cone)
    return {
        "step_counts": {str(a): len(comp[a]) for a in labels},
        "colimit_classes": len(colim.classes),
        "ambient_classes": len(ambient),
        "psi_values": values,
        "bijective": report.bijective,
        "well_defined": report.well_defined,
        "surjective": report.surjective,
        "injective": report.injective,
        "witnesses_verified": colim.verify_witnesses(),
    }


def _component_index(comps, node, where):
    """The place in ``comps`` of the component holding ``node``."""
    for ci, c in enumerate(comps):
        if node in c:
            return ci
    raise InputError(f"node {node} missing from {where}")


def component_union_check(cmodel, node):
    """Ambient component of a node vs the union of its step components."""
    ambient = cmodel.ambient_components()
    amb = next(c for c in ambient if node in c)
    union = set()
    for a in cmodel.labels:
        if node in cmodel.step_nodes.get(a, []):
            for c in cmodel.step_components(a):
                if node in c:
                    union |= c
    return {"ambient": sorted(amb), "union": sorted(union),
            "equal": set(amb) == union}


# -- the pi_1 experiments ------------------------------------------------------


def _carrier_axis(model):
    """The one ``(i, j)`` plane the carrier removes: with none or more,
    one winding number is not a complete invariant (``InputError``)."""
    from ascolim.regions import CoordinatePlaneComplement, Intersection
    axes = set()
    stack = [model.carrier]
    while stack:
        node = stack.pop()
        if isinstance(node, CoordinatePlaneComplement):
            axes.add((node.i, node.j))
        if isinstance(node, Intersection):
            stack.extend(node.parts)
    if len(axes) != 1:
        raise InputError("model carrier removes the coordinate planes "
                         f"{sorted(axes)}; the pi_1 experiments need one")
    return axes.pop()


def surjectivity_leg(model, probe, config=None):
    """Homotope a probe loop into a finite step, winding certified."""
    config = config or EngineConfig()
    axis = _carrier_axis(model)
    if probe.axis != axis:
        raise InputError("probe axis differs from the carrier axis")
    cx, gamma, base = loop_as_pl(probe)
    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    filt = model.filtration
    alpha = filt.least_index_supporting(probe.basepoint)
    if alpha is None:
        raise InputError("probe basepoint outside every step")
    record = individual_approximation(cx, gamma, spec, base, model,
                                      alpha=alpha, config=config)
    before = winding_number(probe)
    eta_loop = loop_of_map(record.eta_baked.domain, record.eta_baked, axis)
    after = winding_number(eta_loop)
    return {
        "label": probe.label,
        "winding_before": before,
        "winding_after": after,
        "winding_preserved": before == after,
        "beta": record.beta,
        "pushed": len(record.pushed_points),
        "grid_ok": record.grid_ok,
        "record": record,
    }


def _unwrapped_angles(points, axis):
    i, j = axis
    out = []
    prev = None
    for p in points:
        ang = math.atan2(float(p[j]), float(p[i]))
        if prev is not None:
            while ang - prev > math.pi:
                ang -= 2 * math.pi
            while ang - prev < -math.pi:
                ang += 2 * math.pi
        out.append(ang)
        prev = ang
    return out


def _round_rat(x, den):
    return RAT(round(x * den), den)


def annulus_homotopy_values(sigma, tau, axis, u_levels, den=2 ** 20):
    """Vertex table of the ambient interpolation between two loops.

    Radial and angular interpolation in the axis plane, affine in the
    remaining coordinates; endpoint rows are the exact loop values, the
    interior rows are rational roundings.  The loops must share the
    basepoint, vertex count, and winding.
    """
    if len(sigma.vertices) != len(tau.vertices):
        raise InputError("loops must share the domain vertex count")
    if sigma.basepoint != tau.basepoint:
        raise InputError("loops must share the basepoint")
    n = len(sigma.vertices)
    i, j = axis
    a_sig = _unwrapped_angles(sigma.vertices + [sigma.basepoint], axis)
    a_tau = _unwrapped_angles(tau.vertices + [tau.basepoint], axis)
    # equal winding: the unwrapped angle increments close up equally
    r_sig = [math.hypot(float(p[i]), float(p[j])) for p in sigma.vertices]
    r_tau = [math.hypot(float(p[i]), float(p[j])) for p in tau.vertices]
    rows = []
    for l in range(u_levels + 1):
        u = l / u_levels
        if l == 0:
            rows.append(list(sigma.vertices))
            continue
        if l == u_levels:
            rows.append(list(tau.vertices))
            continue
        row = []
        for k in range(n):
            ang = (1 - u) * a_sig[k] + u * a_tau[k]
            rad = (1 - u) * r_sig[k] + u * r_tau[k]
            p = [(1 - u) * float(a) + u * float(b)
                 for a, b in zip(sigma.vertices[k], tau.vertices[k])]
            p[i], p[j] = rad * math.cos(ang), rad * math.sin(ang)
            row.append(tuple(_round_rat(c, den) for c in p))
        rows.append(row)
    return rows


def injectivity_leg(model, sigma, tau, config=None, u_levels=4):
    """Step-level homotopy between two equal-winding step loops.

    Builds the ambient annulus homotopy as a PL map on a stacked prism,
    freezes the basepoint column and both end copies, and runs the engine
    to land the whole homotopy in one finite step.
    """
    config = config or EngineConfig()
    axis = _carrier_axis(model)
    w_s, w_t = winding_number(sigma), winding_number(tau)
    if w_s != w_t:
        raise InputError("loops have different winding; no homotopy exists")
    alpha, escaped = model.filtration.absorbing_step(
        sigma.vertices + tau.vertices)
    if escaped is not None:
        raise InputError("injectivity-leg loops must be step loops")

    cx, dom_pts = polygon_domain(len(sigma.vertices))
    rows = annulus_homotopy_values(sigma, tau, axis, u_levels)
    prism = triangulate_prism(cx, levels=u_levels)
    values = {}
    for l in range(u_levels + 1):
        u = RAT(l, u_levels)
        for k, d in enumerate(dom_pts):
            values[tuple(d) + (u,)] = rows[l][k]
    gamma0 = PLMap(prism, values)

    base_col = [Simplex([tuple(dom_pts[0]) + (RAT(l, u_levels),),
                         tuple(dom_pts[0]) + (RAT(l + 1, u_levels),)])
                for l in range(u_levels)]
    ends = []
    for s in cx.tops():
        for u in (RAT(0), RAT(1)):
            ends.append(Simplex([tuple(v) + (u,) for v in s.vertices]))
    relative = SubcomplexCarrier(prism, base_col + ends)

    spec = NeighborhoodSpec([Constraint("all", model.carrier)])
    record = individual_approximation(prism, gamma0, spec, relative, model,
                                      alpha=alpha, config=config)
    # endpoint loops of the step homotopy stay the inputs exactly
    frozen_ok = all(tuple(record.eta(tuple(d) + (u,))) == loop.vertices[k]
                    for u, loop in ((RAT(0), sigma), (RAT(1), tau))
                    for k, d in enumerate(dom_pts))
    return {
        "winding": w_s,
        "alpha": alpha,
        "beta": record.beta,
        "grid_ok": record.grid_ok,
        "endpoints_frozen": frozen_ok,
        "record": record,
    }


def pi1_directlimit_experiment(model, probes, pairs=None, config=None):
    """Both legs of the degree-one direct-limit comparison plus the
    winding-group colimit summary."""
    config = config or EngineConfig()
    legs = [surjectivity_leg(model, probe, config) for probe in probes]
    pair_reports = [injectivity_leg(model, s, t, config)
                    for (s, t) in (pairs or [])]

    filt = model.filtration
    axis = _carrier_axis(model)
    start = filt.least_index_supporting(
        tuple(RAT(1) if d in axis else RAT(0)
              for d in range(model.ambient_dim)))
    labels = filt.labels[filt.position(start):]
    ident = ((1,),)
    group_system = DirectSystemOfAbelianGroups(
        labels, {a: 1 for a in labels},
        {(labels[k + 1], labels[k]): ident
         for k in range(len(labels) - 1)},
        mode=("eventually-stable", labels[0]))
    group = abelian_colimit(group_system)

    window = sorted({leg["winding_before"] for leg in legs} | {0})
    poset = Poset.chain(labels)
    objects = {a: list(window) for a in labels}
    bonding = {(b, a): {w: w for w in window}
               for ai, a in enumerate(labels)
               for b in labels[ai + 1:]}
    sets_system = DirectSystemOfSets(poset, objects, bonding)
    colim = set_colimit(sets_system)
    cone = Cone(sets_system, {a: {w: w for w in window} for a in labels},
                target=window)
    _, psi_report = universal_map(colim, cone)

    return {
        "surjectivity": [
            {k: v for k, v in leg.items() if k != "record"}
            for leg in legs],
        "injectivity": [
            {k: v for k, v in leg.items() if k != "record"}
            for leg in pair_reports],
        "group_colimit": group.describe(),
        "winding_window": window,
        "psi_bijective_on_window": psi_report.bijective,
        "all_windings_preserved": all(leg["winding_preserved"]
                                      for leg in legs),
        "all_grids_ok": all(leg["grid_ok"] for leg in legs)
        and all(p["grid_ok"] for p in pair_reports),
        "legs": legs,
        "pair_legs": pair_reports,
    }


def palais_experiment(model, cmodel=None, loops=None, pairs=None,
                      config=None, rng=None):
    """Weak-homotopy-equivalence checks for the step-union inclusion.

    Degree zero compares the union graph with the ambient graph through
    the universal map; degree one runs both engine legs on the given
    loops.  The density budget of the model is reported alongside.
    """
    config = config or EngineConfig()
    report = {}
    if cmodel is not None:
        report["pi0"] = pi0_report(cmodel)
    if loops:
        from ascolim.filtered_spaces import (CompactSample,
                                             check_compact_retractivity)
        report["probe_absorption"] = {
            loop.label: str(check_compact_retractivity(
                model, CompactSample(tuple(loop.vertices))))
            for loop in loops}
        report["pi1"] = pi1_directlimit_experiment(model, loops,
                                                   pairs=pairs,
                                                   config=config)
        del report["pi1"]["legs"]
        del report["pi1"]["pair_legs"]
    report["density"] = model.density_report(rng or random.Random(0))
    return report
