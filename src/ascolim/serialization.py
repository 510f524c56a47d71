"""JSON encodings of every externally visible object.

Scalars are exact rationals and serialize as ``"p/q"`` strings (plain
``"p"`` when integral); a reader also takes JSON integers, and rejects
floats and malformed strings with ``InputError``.  Complexes use a vertex
table plus index tuples.
``SCHEMAS`` documents each format; the CLI's ``schema`` command prints them.
"""

import json

from ascolim.approximation import Constraint, NeighborhoodSpec
from ascolim.direct_limits import DirectSystemOfSets, Poset
from ascolim.errors import InputError
from ascolim.filtered_spaces import (AffineMap, CompactSample,
                                     FilteredSpaceModel, Filtration,
                                     WellFilledChart)
from ascolim.geometry import Simplex
from ascolim.invariants import ComponentModel, LoopModel
from ascolim.plmaps import PLMap
from ascolim.rats import RAT, to_rat
from ascolim.regions import (AffineSubspace, ClosedBall, Complement,
                             CoordinatePlaneComplement, FullSpace, HalfSpace,
                             Intersection, OpenBall, Translate, Union)
from ascolim.simplicial import SimplicialComplex, SubcomplexCarrier


def scalar_to_obj(x):
    x = to_rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def obj_to_scalar(obj):
    if not isinstance(obj, str):
        return to_rat(obj)
    parts = obj.split("/")
    if len(parts) <= 2:
        try:
            return RAT(*(int(p) for p in parts))
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f'not a scalar encoding: {obj!r}; give "p" or "p/q" '
                     f"with integers p and q != 0")


def point_to_obj(p):
    return [scalar_to_obj(c) for c in p]


def obj_to_point(obj):
    return tuple(obj_to_scalar(c) for c in obj)


def complex_to_obj(cx):
    verts = cx.vertices()
    index = {tuple(v): i for i, v in enumerate(verts)}
    return {
        "vertices": [point_to_obj(v) for v in verts],
        "simplices": sorted(sorted(index[tuple(v)] for v in s.vertices)
                            for s in cx.tops()),
    }


def obj_to_complex(obj):
    verts = [obj_to_point(v) for v in obj["vertices"]]
    simplices = [Simplex([verts[i] for i in idx])
                 for idx in obj["simplices"]]
    return SimplicialComplex(simplices)


def obj_to_carrier(obj, parent):
    verts = parent.vertices()
    sel = [Simplex([verts[i] for i in idx]) for idx in obj["simplices"]]
    return SubcomplexCarrier(parent, sel)


def plmap_to_obj(plmap):
    verts = plmap.domain.vertices()
    return {
        "domain": complex_to_obj(plmap.domain),
        "values": [point_to_obj(plmap.values[tuple(v)]) for v in verts],
    }


def obj_to_plmap(obj):
    cx = obj_to_complex(obj["domain"])
    verts = cx.vertices()
    if len(verts) != len(obj["values"]):
        raise InputError("value table length differs from the vertex table")
    values = {tuple(v): obj_to_point(val)
              for v, val in zip(verts, obj["values"])}
    return PLMap(cx, values)


def region_to_obj(region):
    if isinstance(region, FullSpace):
        return {"kind": "full_space", "dim": region.dim}
    if isinstance(region, OpenBall):
        return {"kind": "open_ball", "center": point_to_obj(region.center),
                "radius": scalar_to_obj(region.radius)}
    if isinstance(region, ClosedBall):
        return {"kind": "closed_ball",
                "center": point_to_obj(region.center),
                "radius": scalar_to_obj(region.radius)}
    if isinstance(region, HalfSpace):
        return {"kind": "half_space", "normal": point_to_obj(region.normal),
                "offset": scalar_to_obj(region.offset),
                "strict": region.strict}
    if isinstance(region, AffineSubspace):
        return {"kind": "affine_subspace",
                "base": point_to_obj(region.base),
                "directions": [point_to_obj(d) for d in region.directions]}
    if isinstance(region, CoordinatePlaneComplement):
        return {"kind": "plane_complement", "dim": region.dim,
                "i": region.i, "j": region.j}
    if isinstance(region, Translate):
        return {"kind": "translate", "region": region_to_obj(region.region),
                "shift": point_to_obj(region.shift)}
    if isinstance(region, Intersection):
        return {"kind": "intersection",
                "parts": [region_to_obj(p) for p in region.parts]}
    if isinstance(region, Union):
        return {"kind": "union",
                "parts": [region_to_obj(p) for p in region.parts]}
    if isinstance(region, Complement):
        return {"kind": "complement", "region": region_to_obj(region.region)}
    raise InputError(f"unserializable region {region!r}")


def obj_to_region(obj):
    kind = obj["kind"]
    if kind == "full_space":
        return FullSpace(obj["dim"])
    if kind == "open_ball":
        return OpenBall(obj_to_point(obj["center"]),
                        obj_to_scalar(obj["radius"]))
    if kind == "closed_ball":
        return ClosedBall(obj_to_point(obj["center"]),
                          obj_to_scalar(obj["radius"]))
    if kind == "half_space":
        return HalfSpace(obj_to_point(obj["normal"]),
                         obj_to_scalar(obj["offset"]),
                         obj.get("strict", True))
    if kind == "affine_subspace":
        return AffineSubspace(obj_to_point(obj["base"]),
                              [obj_to_point(d) for d in obj["directions"]])
    if kind == "plane_complement":
        return CoordinatePlaneComplement(obj["dim"], obj["i"], obj["j"])
    if kind == "translate":
        return Translate(obj_to_region(obj["region"]),
                         obj_to_point(obj["shift"]))
    if kind == "intersection":
        return Intersection([obj_to_region(p) for p in obj["parts"]])
    if kind == "union":
        return Union([obj_to_region(p) for p in obj["parts"]])
    if kind == "complement":
        return Complement(obj_to_region(obj["region"]))
    raise InputError(f"unknown region kind {kind!r}")


def filtration_to_obj(filt):
    return {
        "ambient_dim": filt.ambient_dim,
        "steps": [{"label": label, "coords": sorted(filt.coords(label))}
                  for label in filt.labels],
    }


def obj_to_filtration(obj):
    return Filtration(obj["ambient_dim"],
                      [(s["label"], s["coords"]) for s in obj["steps"]])


def model_to_obj(model):
    out = {
        "filtration": filtration_to_obj(model.filtration),
        "carrier": region_to_obj(model.carrier),
    }
    if model.rho is not None:
        out["rho"] = scalar_to_obj(model.rho)
    if model.sample_box is not None:
        lo, hi = model.sample_box
        out["sample_box"] = [point_to_obj(lo), point_to_obj(hi)]
    return out


def obj_to_model(obj):
    rho = obj_to_scalar(obj["rho"]) if "rho" in obj else None
    box = None
    if "sample_box" in obj:
        lo, hi = obj["sample_box"]
        box = (obj_to_point(lo), obj_to_point(hi))
    return FilteredSpaceModel(obj_to_filtration(obj["filtration"]),
                              obj_to_region(obj["carrier"]),
                              rho=rho, sample_box=box)


def chart_to_obj(chart):
    phi = {"offset": point_to_obj(chart.phi.offset)}
    if chart.phi.matrix is not None:
        phi["matrix"] = [point_to_obj(row) for row in chart.phi.matrix]
    out = {
        "filtration": filtration_to_obj(chart.filtration),
        "domain": region_to_obj(chart.domain),
        "phi": phi,
        "image": region_to_obj(chart.image),
        "core": region_to_obj(chart.core),
        "alpha0": chart.alpha0,
        "label": chart.label,
    }
    if chart.core4 is not None:
        out["core4"] = region_to_obj(chart.core4)
    return out


def obj_to_chart(obj):
    phi_obj = obj["phi"]
    matrix = None
    if "matrix" in phi_obj:
        matrix = tuple(obj_to_point(row) for row in phi_obj["matrix"])
    phi = AffineMap(offset=obj_to_point(phi_obj["offset"]), matrix=matrix)
    core4 = obj_to_region(obj["core4"]) if "core4" in obj else None
    return WellFilledChart(
        filtration=obj_to_filtration(obj["filtration"]),
        domain=obj_to_region(obj["domain"]),
        phi=phi,
        image=obj_to_region(obj["image"]),
        core=obj_to_region(obj["core"]),
        alpha0=obj["alpha0"],
        core4=core4,
        label=obj.get("label", "chart"),
    )


def loop_to_obj(loop):
    return {"vertices": [point_to_obj(v) for v in loop.vertices],
            "axis": list(loop.axis), "label": loop.label}


def obj_to_loop(obj):
    return LoopModel([obj_to_point(v) for v in obj["vertices"]],
                     axis=tuple(obj["axis"]),
                     label=obj.get("label", "loop"))


def obj_to_set_system(obj):
    poset = Poset(obj["poset"]["elements"],
                  [tuple(p) for p in obj["poset"]["relation"]])
    labels = obj["poset"]["elements"]
    objects = {}
    for a in labels:
        key = str(a)
        objects[a] = obj["objects"][key]
    bonding = {}
    for entry in obj["bonding"]:
        bonding[(entry["to"], entry["from"])] = {
            x: y for x, y in entry["map"]}
    return DirectSystemOfSets(poset, objects, bonding)


def obj_to_spec(obj):
    constraints = []
    for entry in obj["constraints"]:
        sub = entry["subset"]
        if sub == "all":
            subset = "all"
        elif sub["kind"] == "sample":
            subset = CompactSample(tuple(obj_to_point(p)
                                         for p in sub["points"]))
        elif sub["kind"] == "simplex":
            subset = Simplex([obj_to_point(v) for v in sub["vertices"]])
        else:
            raise InputError(f"unknown subset kind {sub!r}")
        constraints.append(Constraint(subset,
                                      obj_to_region(entry["region"])))
    return NeighborhoodSpec(constraints)


def component_model_to_obj(cmodel):
    return {
        "model": model_to_obj(cmodel.model),
        "nodes": [point_to_obj(p) for p in cmodel.nodes],
        "step_nodes": {str(a): list(ix)
                       for a, ix in cmodel.step_nodes.items()},
        "step_edges": {str(a): [list(e) for e in edges]
                       for a, edges in cmodel.step_edges.items()},
        "ambient_edges": [list(e) for e in cmodel.ambient_edges],
    }


def obj_to_component_model(obj):
    model = obj_to_model(obj["model"])
    labels = model.filtration.labels
    by_str = {str(a): a for a in labels}
    return ComponentModel(
        model,
        [obj_to_point(p) for p in obj["nodes"]],
        {by_str[k]: v for k, v in obj["step_nodes"].items()},
        {by_str[k]: [tuple(e) for e in v]
         for k, v in obj["step_edges"].items()},
        [tuple(e) for e in obj["ambient_edges"]],
    )


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


SCHEMAS = {
    "scalar": 'exact rational as "p/q" or "p" string (integers p and '
              'q != 0); a JSON integer is also read',
    "point": "[scalar, ...] of the ambient dimension",
    "simplex": '{"vertices": [point, ...]} (affinely independent)',
    "points": '{"points": [point, ...]} (probe lists)',
    "complex": '{"vertices": [point, ...], "simplices": [[vertex index, '
               '...], ...]} (top simplices; faces are implied)',
    "carrier": '{"simplices": [[vertex index into the parent complex, '
               '...], ...]}',
    "plmap": '{"domain": complex, "values": [point per domain vertex, '
             'in vertex-table order]}',
    "region": '{"kind": one of full_space | open_ball | closed_ball | '
              'half_space | affine_subspace | plane_complement | '
              'translate | intersection | union | complement, ...kind '
              'fields}',
    "filtration": '{"ambient_dim": D, "steps": [{"label": any, '
                  '"coords": [int, ...]} in chain order]}',
    "model": '{"filtration": filtration, "carrier": region, "rho"?: '
             'scalar, "sample_box"?: [point, point]}',
    "chart": '{"filtration": filtration, "domain": region, "phi": '
             '{"offset": point, "matrix"?: [[scalar]]}, "image": region, '
             '"core": region, "core4"?: region, "alpha0": label}',
    "loop": '{"vertices": [point, ...] (cyclic, first = basepoint), '
            '"axis": [i, j], "label"?: str}',
    "set_system": '{"poset": {"elements": [...], "relation": [[a, b], '
                  '...]}, "objects": {label: [...]}, "bonding": '
                  '[{"from": a, "to": b, "map": [[x, y], ...]}]}',
    "spec": '{"constraints": [{"subset": "all" | {"kind": "sample", '
            '"points": [...]} | {"kind": "simplex", "vertices": [...]}, '
            '"region": region}]}',
    "component_model": '{"model": model, "nodes": [point, ...], '
                       '"step_nodes": {label: [node index, ...]}, '
                       '"step_edges": {label: [[i, j], ...]}, '
                       '"ambient_edges": [[i, j], ...]}',
}
