"""Seeded inputs, one round of operations, and the checks of each workload.

Inputs are plain data (tuples of ``Fraction``) made from the seed alone.
Every program object is built inside the timed operation, so a round never
reuses a cache filled by an earlier one and all rounds of a run do the
same work.  The program is reached only through module attributes
(``convexity.conv_n_contains``), so the tracer's wrappers see every call.

A workload is an object with ``make_inputs(rng)``, ``run_round(inputs,
clock)`` returning one output per operation, and ``check(inputs, outputs,
first)`` returning a list of problems.  ``clock`` times one operation.
"""

import random
from fractions import Fraction

import checks

F = Fraction


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


def _combine(points, coeffs):
    return tuple(sum(c * p[d] for c, p in zip(coeffs, points))
                 for d in range(len(points[0])))


# -- convexity ------------------------------------------------------------


class Convexity:
    """Bounded-term convexity questions on sets of 2-10 points.

    For every ambient dimension in ``DIMS``, set size in ``SIZES`` and
    ``n`` from 1 to ``dim + 1`` there are ``SETS`` seeded point sets, each
    with one probe: half are built as positive combinations of ``n + 1``
    set points (members of ``conv_{n+1}``), half are random.  The fixed
    grid keeps the mix of cheap and expensive questions the same for every
    seed; the seed moves only coordinates.
    """

    DIMS = (3, 4)
    SIZES = (2, 4, 6, 8, 10)
    #: point sets per (dim, size, n); each gets one probe, alternately a
    #: constructed member and a random point
    SETS = 4
    #: negative verdicts on sets this small are re-derived by enumeration
    ENUMERATE_UP_TO = 6

    def make_inputs(self, rng):
        questions = []
        for dim in self.DIMS:
            for size in self.SIZES:
                for n in range(1, dim + 2):
                    for k in range(self.SETS):
                        questions.append(self._question(rng, dim, size, n,
                                                        member=k % 2 == 0))
        return questions

    @staticmethod
    def _question(rng, dim, size, n, member):
        pts = set()
        while len(pts) < size:
            pts.add(tuple(F(rng.randint(-6, 6), 3) for _ in range(dim)))
        pts = sorted(pts)
        if member:
            idx = [rng.randrange(size) for _ in range(n + 1)]
            w = _normalized([F(rng.randint(1, 4)) for _ in idx])
            probe = _combine([pts[i] for i in idx], w)
        else:
            probe = tuple(F(rng.randint(-12, 12), 3) for _ in range(dim))
        return {"points": pts, "n": n, "probe": probe, "member": member,
                "dim": dim}

    def run_round(self, questions, clock):
        from ascolim import convexity
        outputs = []
        for q in questions:
            with clock:
                pset = convexity.FinitePointSet(q["points"])
                n, p = q["n"], q["probe"]
                lhs, witness = convexity.conv2_with_convn_contains(pset, n, p)
                rhs, cert = convexity.conv_n_contains(pset, n + 1, p)
                hull = convexity.hull_contains(pset, p) \
                    if n + 1 >= q["dim"] + 1 else None
            outputs.append({"lhs": lhs, "witness": witness, "rhs": rhs,
                            "rhs_cert": cert, "hull": hull})
        return outputs

    def check(self, questions, outputs, first):
        from ascolim import convexity
        problems = []
        for q, out in zip(questions, outputs):
            out = dict(out)
            out["q_cert"] = None
            if out["lhs"]:
                _, out["q_cert"] = convexity.conv_n_contains(
                    convexity.FinitePointSet(q["points"]), q["n"],
                    out["witness"][2])
            found = checks.check_question(q, out)
            if first and len(q["points"]) <= self.ENUMERATE_UP_TO:
                found += checks.check_negative(q, out)
            problems += [f"question {q['probe']}: {p}" for p in found]
        return problems


# -- subdivision ------------------------------------------------------------


def _random_simplex(rng, rank, dim=6, den=4, span=16):
    """Seeded affinely independent vertices (own exact rank test)."""
    while True:
        pts = [tuple(F(rng.randint(-span, span), den) for _ in range(dim))
               for _ in range(rank)]
        if checks.gram_det(pts) != 0:
            return pts


#: base complexes for ``refine_until``: (cells, delta), before a seeded
#: similarity.  Each delta sits strictly between the mesh after
#: ``levels - 1`` and after ``levels`` subdivisions, for levels 4, 2, 6.
SHAPES = (
    ("two-triangles", [((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1))],
     F(1, 4)),
    ("two-tetrahedra", [((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))],
     F(3, 4)),
    ("segment-path", [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (2, 1))],
     F(1, 40)),
)


class Subdivision:
    """Barycentric subdivision of random simplices and refine_until.

    ``PER_RANK`` seeded simplices of each rank 2-5 in R^6 get one
    barycentric subdivision each, with their mesh and relative volumes;
    each shape in ``SHAPES`` is refined until its mesh is below delta.
    Rank 4 has the most simplices, so the median operation is one of them
    and not the edge of a cluster of much cheaper or dearer ones.
    The seed draws the simplices' coordinates and, per shape, a
    similarity of R^6 (coordinate permutation, signs, scale, translation)
    that leaves the number of levels and cells unchanged.
    """

    PER_RANK = {2: 4, 3: 4, 4: 9, 5: 4}
    DIM = 6

    def make_inputs(self, rng):
        simplices = [_random_simplex(rng, rank, self.DIM)
                     for rank, count in self.PER_RANK.items()
                     for _ in range(count)]
        complexes = []
        for _name, cells, delta in SHAPES:
            perm = list(range(self.DIM))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(self.DIM)]
            scale = F(rng.randint(4, 12), 8)
            shift = [F(rng.randint(-16, 16), 4) for _ in range(self.DIM)]

            def place(v, perm=perm, signs=signs, scale=scale, shift=shift):
                padded = [F(c) for c in v] + [F(0)] * (self.DIM - len(v))
                return tuple(signs[d] * scale * padded[perm[d]] + shift[d]
                             for d in range(self.DIM))

            complexes.append({"cells": [tuple(place(v) for v in c)
                                        for c in cells],
                              "delta": delta * scale})
        return {"simplices": simplices, "complexes": complexes}

    def run_round(self, inputs, clock):
        from ascolim import geometry, simplicial
        outputs = {"simplices": [], "complexes": []}
        for verts in inputs["simplices"]:
            with clock:
                sx = geometry.Simplex(verts)
                sub, _parents = simplicial.bsd_with_parents(
                    simplicial.SimplicialComplex([sx]))
                tops = sub.tops()
                mesh = max(geometry.diameter_sq(t) for t in tops)
                vols = simplicial.relative_volumes(sx, tops)
            outputs["simplices"].append({
                "pieces": [t.vertices for t in tops], "mesh": mesh,
                "volumes": vols})
        for cx in inputs["complexes"]:
            with clock:
                base = simplicial.SimplicialComplex(
                    [geometry.Simplex(c) for c in cx["cells"]])
                tree = simplicial.SubdividedComplex(base)
                levels = tree.refine_until(cx["delta"])
                tops = tree.final.tops()
            outputs["complexes"].append({
                "levels": levels, "cells": [t.vertices for t in tops]})
        return outputs

    def check(self, inputs, outputs, first):
        problems = []
        for verts, out in zip(inputs["simplices"], outputs["simplices"]):
            problems += checks.check_subdivided_simplex(
                verts, out["pieces"], out["mesh"], out["volumes"],
                volumes=first)
        for cx, out in zip(inputs["complexes"], outputs["complexes"]):
            problems += checks.check_refined_complex(
                cx["cells"], cx["delta"], out["levels"], out["cells"],
                per_base=first)
        return problems


# -- pi1 ----------------------------------------------------------------------


AMBIENT = 8
#: step label -> coordinates of the step, as in acceptance criterion 6
STEPS = {2: {0, 1}, 4: {0, 1, 2, 3}}
CORNERS = checks.CORNERS


def _odd_eighth(rng, lo, hi):
    """A seeded ``k/8`` with odd ``k`` from ``lo`` to ``hi``."""
    return F(rng.choice(range(lo | 1, hi + 1, 2)), 8)


def _probe(rng, w, perturb_off_e4):
    """Seeded loop of winding ``w`` around the plane ``x_0 = x_1 = 0``.

    The corners of a square of seeded size traversed ``|w|`` times, in
    the sense of ``w``; winding 0 is a square in the first quadrant.  The
    projection to the ``(x_0, x_1)`` plane is a scaled copy of a fixed
    polygon, so the engine subdivides every seed's loop alike.  Every
    vertex after the first gets a seeded offset in coordinate 2 or 3 (the
    loop stays in ``E_4``); when ``perturb_off_e4`` two of them also leave
    ``E_4`` through coordinates 4-7, which forces anchor pushes.  Seeded
    values are odd eighths, so every seed's arithmetic has the same
    denominators.
    """
    if w == 0:
        plane = [(1, 1), (2, 1), (2, 2), (1, 2)]
    else:
        order = CORNERS if w > 0 else (CORNERS[0],) + CORNERS[:0:-1]
        plane = list(order) * abs(w)
    scale = _odd_eighth(rng, 9, 13)
    verts = []
    for k, (x, y) in enumerate(plane):
        v = [scale * x, scale * y] + [F(0)] * (AMBIENT - 2)
        if k:
            v[rng.choice((2, 3))] = _odd_eighth(rng, -3, 3)
        verts.append(v)
    if perturb_off_e4:
        for k in rng.sample(range(1, len(verts)), 2):
            for d in range(4, AMBIENT):
                verts[k][d] = F(rng.choice((-1, 1)), 2 ** (d - 1))
    return {"winding": w, "vertices": [tuple(v) for v in verts]}


class Pi1:
    """``pi1_directlimit_experiment`` plus one injectivity leg.

    Seven probes with windings -2 to 4 (see ``_probe``); those of odd
    winding are perturbed off ``E_4``.  The pair is the square ``sigma``
    and the same square ``tau`` with other offsets in coordinates 2-3:
    equal winding 1, identical projection to the ``(x_0, x_1)`` plane, so
    the homotopy between them stays off the removed plane.  The seed draws
    the sizes, offsets and perturbed vertices.  The pair goes to
    ``injectivity_leg`` with one prism level: the experiment would run it
    at its default of four, and the cost grows fast with the levels
    (criterion 6's square pair: 16 s at one level, 41 s at two).
    """

    WINDINGS = (-2, -1, 0, 1, 2, 3, 4)
    U_LEVELS = 1

    def make_inputs(self, rng):
        probes = [_probe(rng, w, w % 2 == 1) for w in self.WINDINGS]
        scale = _odd_eighth(rng, 9, 13)
        pair = []
        for _ in range(2):
            loop = []
            for k, (x, y) in enumerate(CORNERS):
                v = [scale * x, scale * y] + [F(0)] * (AMBIENT - 2)
                if k:
                    v[2] = _odd_eighth(rng, -3, 3)
                    v[3] = _odd_eighth(rng, -3, 3)
                loop.append(tuple(v))
            pair.append(loop)
        return {"probes": probes, "sigma": pair[0], "tau": pair[1]}

    @staticmethod
    def _model():
        from ascolim import approximation, filtered_spaces, regions
        filt = filtered_spaces.Filtration(
            AMBIENT, [(label, STEPS[label]) for label in sorted(STEPS)])
        model = filtered_spaces.FilteredSpaceModel(
            filt, regions.CoordinatePlaneComplement(AMBIENT, 0, 1))
        config = approximation.EngineConfig(
            max_subdivision=6, bake_level=1, t_grid=50, probe_per_cell=2)
        return model, config

    def run_round(self, inputs, clock):
        from ascolim import invariants
        leg_fn = invariants.surjectivity_leg

        def timed_leg(*args, **kwargs):
            with clock:
                return leg_fn(*args, **kwargs)

        invariants.surjectivity_leg = timed_leg
        try:
            model, config = self._model()
            probes = [invariants.LoopModel(p["vertices"], axis=(0, 1),
                                           label=f"w{p['winding']}")
                      for p in inputs["probes"]]
            report = invariants.pi1_directlimit_experiment(
                model, probes, pairs=None, config=config)
        finally:
            invariants.surjectivity_leg = leg_fn
        with clock:
            pair = invariants.injectivity_leg(
                model, invariants.LoopModel(inputs["sigma"], axis=(0, 1)),
                invariants.LoopModel(inputs["tau"], axis=(0, 1)), config,
                u_levels=self.U_LEVELS)
        return {
            "window": report["winding_window"],
            "legs": [dict(leg, baked=dict(leg["record"].eta_baked.values))
                     for leg in report["legs"]],
            "pair": dict(pair, baked=dict(pair["record"].eta_baked.values)),
        }

    def check(self, inputs, outputs, first):
        problems = []
        windings = [p["winding"] for p in inputs["probes"]]
        problems += checks.check_window(windings, outputs["window"])
        for probe, leg in zip(inputs["probes"], outputs["legs"]):
            problems += [f"probe w={probe['winding']}: {p}" for p in
                         checks.check_surjectivity_leg(probe, leg,
                                                       leg["baked"], STEPS)]
        problems += [f"pair: {p}" for p in checks.check_injectivity_leg(
            inputs["sigma"], inputs["tau"], outputs["pair"],
            outputs["pair"]["baked"], STEPS)]
        return problems


WORKLOADS = {"convexity": Convexity, "subdivision": Subdivision, "pi1": Pi1}

#: library modules imported during set-up, before any round
PROGRAM_MODULES = ("_kernels", "linalg", "geometry", "simplicial",
                   "convexity", "regions", "filling", "plmaps",
                   "filtered_spaces", "approximation", "invariants")


def make(name, seed):
    """The workload object and its inputs for ``seed``."""
    workload = WORKLOADS[name]()
    return workload, workload.make_inputs(random.Random(f"{name}:{seed}"))
