"""Each independent check passes a correct output and fails a corrupted one.

Correct outputs come from the program on tiny inputs; each corruption
changes one thing.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import random
from fractions import Fraction as F

import checks
import tracing
import workloads


def _question(points, n, probe, member):
    from ascolim import convexity
    pset = convexity.FinitePointSet(points)
    lhs, witness = convexity.conv2_with_convn_contains(pset, n, probe)
    rhs, cert = convexity.conv_n_contains(pset, n + 1, probe)
    q_cert = convexity.conv_n_contains(pset, n, witness[2])[1] \
        if lhs else None
    q = {"points": points, "n": n, "probe": probe, "member": member}
    out = {"lhs": lhs, "witness": witness, "rhs": rhs, "rhs_cert": cert,
           "hull": convexity.hull_contains(pset, probe), "q_cert": q_cert}
    return q, out


SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def test_convexity_checks_catch_corruption():
    q, out = _question(SQUARE, 2, (F(1, 2), F(1, 4)), member=True)
    assert out["lhs"] and checks.check_question(q, out) == []
    cert = out["rhs_cert"]
    bad_cert = type(cert)(cert.points, (cert.coefficients[0] + 1,)
                          + cert.coefficients[1:])
    assert checks.check_question(q, dict(out, rhs_cert=bad_cert))
    far = type(cert)(((F(5), F(5)),) + cert.points[1:], cert.coefficients)
    assert checks.check_question(q, dict(out, rhs_cert=far))
    x, t, qq = out["witness"]
    assert checks.check_question(q, dict(out, witness=(x, t / 2, qq)))
    assert checks.check_question(q, dict(out, witness=(x, F(3, 2), qq)))
    assert checks.check_question(q, dict(out, lhs=False))
    assert checks.check_question(q, dict(out, lhs=False, rhs=False))
    assert checks.check_question(q, dict(out, hull=False))
    assert checks.check_question(q, dict(out, q_cert=None))
    # a member reported as a non-member fails the own enumeration
    assert checks.check_negative(q, dict(out, rhs=False))
    outside, neg = _question(SQUARE, 2, (F(2), F(2)), member=False)
    assert not neg["rhs"] and checks.check_question(outside, neg) == []
    assert checks.check_negative(outside, neg) == []


def _subdivided(verts):
    from ascolim import geometry, simplicial
    sx = geometry.Simplex(verts)
    sub, _ = simplicial.bsd_with_parents(simplicial.SimplicialComplex([sx]))
    tops = sub.tops()
    mesh = max(geometry.diameter_sq(t) for t in tops)
    return ([t.vertices for t in tops], mesh,
            simplicial.relative_volumes(sx, tops))


def test_subdivision_checks_catch_corruption():
    verts = [(F(0), F(0), F(1)), (F(2), F(0), F(0)), (F(0), F(3), F(0))]
    pieces, mesh, vols = _subdivided(verts)
    assert checks.check_subdivided_simplex(verts, pieces, mesh, vols) == []
    assert checks.check_subdivided_simplex(verts, pieces[1:], mesh, vols)
    moved = [tuple(c + F(1, 7) for c in pieces[0][0])] + list(pieces[0][1:])
    assert checks.check_subdivided_simplex(
        verts, [tuple(moved)] + pieces[1:], mesh, vols)
    assert checks.check_subdivided_simplex(
        verts, pieces, mesh, [vols[0] * 2] + vols[1:])
    assert checks.check_subdivided_simplex(verts, pieces, mesh / 2, vols)


def test_refine_checks_catch_corruption():
    from ascolim import geometry, simplicial
    cells = [((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
             ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))]
    tree = simplicial.SubdividedComplex(simplicial.SimplicialComplex(
        [geometry.Simplex(c) for c in cells]))
    delta = F(3, 4)
    levels = tree.refine_until(delta)
    final = [t.vertices for t in tree.final.tops()]
    for per_base in (True, False):
        assert checks.check_refined_complex(cells, delta, levels, final,
                                            per_base) == []
        assert checks.check_refined_complex(cells, delta, levels,
                                            final[1:], per_base)
        assert checks.check_refined_complex(cells, F(1, 10), levels, final,
                                            per_base)
    # a cell of one base cell swapped for a copy of one of the other keeps
    # the total count but not the count per base cell
    first = next(i for i, c in enumerate(final)
                 if _inside(cells[0], c))
    second = next(i for i, c in enumerate(final)
                  if _inside(cells[1], c))
    swapped = list(final)
    swapped[first] = final[second]
    assert checks.check_refined_complex(cells, delta, levels, swapped,
                                        per_base=False) == []
    assert checks.check_refined_complex(cells, delta, levels, swapped, True)


def _inside(base, cell):
    center = tuple(sum(v[d] for v in cell) / len(cell)
                   for d in range(len(cell[0])))
    coeffs = checks.barycentric(base, center)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def test_winding_is_exact():
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    assert checks.winding(square) == 1
    assert checks.winding(square * 3) == 3
    assert checks.winding(square[::-1]) == -1
    assert checks.winding([(1, 1), (2, 1), (2, 2)]) == 0


def test_pi1_checks_catch_corruption():
    from ascolim import invariants
    model, config = workloads.Pi1._model()
    probe = workloads._probe(random.Random(0), 1, perturb_off_e4=True)
    leg = invariants.surjectivity_leg(
        model, invariants.LoopModel(probe["vertices"], axis=(0, 1)), config)
    baked = dict(leg["record"].eta_baked.values)
    steps = workloads.STEPS
    assert checks.check_surjectivity_leg(probe, leg, baked, steps) == []
    assert checks.check_surjectivity_leg(
        probe, dict(leg, winding_after=2), baked, steps)
    assert checks.check_surjectivity_leg(
        probe, dict(leg, grid_ok=False), baked, steps)
    key = next(iter(baked))
    for bad_value in ((F(0),) * 8, (F(1),) * 8):
        assert checks.check_surjectivity_leg(
            probe, leg, {**baked, key: bad_value}, steps)
    # the endpoint loop reversed winds the other way
    flipped = {(x, -y): v for (x, y), v in baked.items()}
    assert checks.check_surjectivity_leg(probe, leg, flipped, steps)
    assert checks.check_window([-1, 2], [-1, 0, 2]) == []
    assert checks.check_window([-1, 2], [-1, 2])


def test_injectivity_check_catches_moved_endpoint():
    sigma = [(F(x), F(y)) + (F(0),) * 6 for x, y in checks.CORNERS]
    tau = [v[:2] + (F(1, 4),) + v[3:] for v in sigma]
    tau[0] = sigma[0]
    baked = {}
    for (x, y), s, t in zip(checks.CORNERS, sigma, tau):
        baked[(F(x), F(y), F(0))] = s
        baked[(F(x), F(y), F(1))] = t
    pair = {"grid_ok": True, "endpoints_frozen": True, "beta": 4}
    assert checks.check_injectivity_leg(sigma, tau, pair, baked,
                                        workloads.STEPS) == []
    moved = dict(baked)
    moved[(F(-1), F(1), F(1))] = sigma[1]
    assert checks.check_injectivity_leg(sigma, tau, pair, moved,
                                        workloads.STEPS)
    assert checks.check_injectivity_leg(sigma, tau, dict(pair, beta=2),
                                        baked, workloads.STEPS)


def test_tracer_counts_recursion_once_in_total():
    tracer = tracing.Tracer()
    nid = tracer.names.index("approximation.build_engine")
    child = tracer.names.index("linalg.solve_nonneg")
    leaf = tracer._wrap(lambda: sum(range(20000)), child)

    def recurse(depth):
        leaf()
        if depth:
            traced(depth - 1)

    traced = tracer._wrap(recurse, nid)
    traced(3)
    got = tracer.drain()
    assert got["calls"][nid] == 4 and got["calls"][child] == 4
    # the outermost span covers everything; self times partition it
    outer = got["total_s"][nid]
    assert abs(got["self_s"][nid] + got["self_s"][child] - outer) < 1e-3
    assert got["total_s"][child] <= outer
    assert tracer.drain()["calls"][nid] == 0


def test_benchmark_json_names_every_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == tracing.metric_specs()
    assert {m["name"] for m in bench["end_to_end"]} \
        == {"setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)
