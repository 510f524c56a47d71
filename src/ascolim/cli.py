"""Command-line front door.

Subcommands wire the library into reproducible runs: all randomness flows
from ``--seed`` through explicitly constructed generators, reports are
JSON with sorted keys (two runs with equal config and inputs produce
byte-identical output), and exit codes follow the contract: 0 success,
2 input error, 3 resolution exceeded, 4 a property check failed (the
report is still written).
"""

import argparse
import json
import math
import random
import sys

from ascolim import KERNEL_BACKEND, __version__
from ascolim import serialization as ser
from ascolim.approximation import EngineConfig, individual_approximation
from ascolim.direct_limits import set_colimit
from ascolim.errors import (AbsorptionError, AscolimError, InputError,
                            ResolutionExceededError)
from ascolim.filling import default_anchor, fill
from ascolim.filtered_spaces import validate_well_filled_chart
from ascolim.geometry import Simplex
from ascolim.invariants import (component_union_check, palais_experiment,
                                pi0_report, pi1_directlimit_experiment)
from ascolim.simplicial import SubdividedComplex


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(report, out_path):
    text = ser.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_schema(args, config):
    if args.name:
        if args.name not in ser.SCHEMAS:
            raise InputError(f"unknown schema {args.name!r}; "
                             f"one of {sorted(ser.SCHEMAS)}")
        print(ser.SCHEMAS[args.name])
    else:
        for name in sorted(ser.SCHEMAS):
            print(f"{name}: {ser.SCHEMAS[name]}")
    return 0


def _float_sqrt(value):
    """``math.sqrt(float(value))`` while ``value`` fits a float; past that
    range the float of the integer square root (off by less than one part
    in 2^500), and ``None`` once the root itself is past the float range."""
    try:
        return math.sqrt(value)
    except OverflowError:
        pass
    try:
        return float(math.isqrt(value.numerator // value.denominator))
    except OverflowError:
        return None


def cmd_subdivide(args, config):
    cx = ser.obj_to_complex(_load(args.input))
    delta = ser.obj_to_scalar(args.delta)
    tree = SubdividedComplex(cx)
    m = tree.refine_until(delta)
    refined, diam_sq = tree.final, tree.mesh_sq()
    report = {
        "m": m,
        "max_diameter": _float_sqrt(diam_sq),
        "max_diameter_sq": ser.scalar_to_obj(diam_sq),
        "simplices": len(refined.tops()),
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ser.dumps(ser.complex_to_obj(refined)) + "\n")
    _emit(report, None)
    return 0


def cmd_fill(args, config):
    simplex = Simplex([ser.obj_to_point(v)
                       for v in _load(args.simplex)["vertices"]])
    gamma = ser.obj_to_plmap(_load(args.boundary))
    probes = [ser.obj_to_point(p) for p in _load(args.probe)["points"]]
    anchor = ser.obj_to_point(_load(args.anchor)["point"]) if args.anchor \
        else default_anchor(simplex)
    phi = fill(simplex, anchor, gamma)
    rows = []
    for p in probes:
        value, (t, anchor_val, y, gy) = phi.value_with_certificate(p)
        rows.append({
            "probe": ser.point_to_obj(p),
            "value": ser.point_to_obj(value),
            "certificate": {
                "t": ser.scalar_to_obj(t),
                "anchor_value": ser.point_to_obj(anchor_val),
                "exit_point": None if y is None else ser.point_to_obj(y),
                "exit_value": None if gy is None else ser.point_to_obj(gy),
            },
        })
    _emit({"anchor": ser.point_to_obj(anchor), "evaluations": rows},
          args.out)
    return 0


def cmd_colimit(args, config):
    system = ser.obj_to_set_system(_load(args.system))
    colim = set_colimit(system)
    report = {
        "classes": [[[str(a), str(x)] for (a, x) in group]
                    for group in colim.classes],
        "class_count": len(colim.classes),
        "witnesses": [[[str(a), str(x)], [str(b), str(y)], str(c)]
                      for ((a, x), (b, y), c) in colim.merge_witnesses],
        "witnesses_verified": colim.verify_witnesses(),
    }
    _emit(report, args.out)
    return 0 if report["witnesses_verified"] else 4


def cmd_validate_chart(args, config):
    chart = ser.obj_to_chart(_load(args.chart))
    model = ser.obj_to_model(_load(args.model))
    report = validate_well_filled_chart(chart, model,
                                        as_weak_direct_limit=args.weak)
    _emit(report.as_obj(), args.out)
    return 0 if report.ok else 4


def cmd_approximate(args, config):
    from ascolim.approximation import SamplingPlan, verify_theta_properties
    cx = ser.obj_to_complex(_load(args.complex))
    gamma = ser.obj_to_plmap(_load(args.map))
    spec = ser.obj_to_spec(_load(args.spec))
    model = ser.obj_to_model(_load(args.model))
    relative = None
    if args.relative:
        relative = ser.obj_to_carrier(_load(args.relative), cx)
    alpha = model.filtration.labels[0] if args.alpha is None \
        else _parse_label(model, args.alpha)
    record = individual_approximation(cx, gamma, spec, relative, model,
                                      alpha=alpha, config=config)
    plan = SamplingPlan(points_per_cell=config.probe_per_cell,
                        t_points=min(10, config.t_grid),
                        seed=config.seed)
    props = verify_theta_properties(record.engine, record.start_map, plan)
    props.pop("b_details", None)
    props["d"] = {"beta": str(props["d"]["beta"]),
                  "escaped": props["d"]["escaped"] is not None}
    props["f"] = props["d"]
    report = {
        "beta": str(record.beta),
        "pushed_points": [[ser.point_to_obj(x), ser.point_to_obj(v)]
                          for (x, v) in record.pushed_points],
        "eta": ser.plmap_to_obj(record.eta_baked),
        "grid": [{"t": r["t"], "ok": r["ok"]}
                 for r in record.grid_reports],
        "grid_ok": record.grid_ok,
        "properties": props,
    }
    _emit(report, args.out)
    return 0 if record.grid_ok else 4


def _parse_label(model, text):
    for label in model.filtration.labels:
        if str(label) == text:
            return label
    raise InputError(f"unknown filtration label {text!r}")


def cmd_experiment(args, config):
    if args.kind == "pi0":
        if not args.graph:
            raise InputError("experiment pi0 needs --graph")
        cmodel = ser.obj_to_component_model(_load(args.graph))
        report = pi0_report(cmodel)
        if args.basepoint is not None:
            report["union_check"] = component_union_check(cmodel,
                                                          args.basepoint)
        _emit(report, args.out)
        return 0 if report["bijective"] else 4

    if not args.model:
        raise InputError(f"experiment {args.kind} needs --model")
    model = ser.obj_to_model(_load(args.model))
    probes = []
    if args.probes:
        probes = [ser.obj_to_loop(o) for o in _load(args.probes)["loops"]]
    pairs = []
    if args.pairs:
        pairs = [(ser.obj_to_loop(a), ser.obj_to_loop(b))
                 for a, b in _load(args.pairs)["pairs"]]

    if args.kind == "pi1":
        report = pi1_directlimit_experiment(model, probes, pairs, config)
        report.pop("legs")
        report.pop("pair_legs")
        rows = [{"label": leg["label"],
                 "winding_before": leg["winding_before"],
                 "winding_after": leg["winding_after"],
                 "beta": str(leg["beta"])}
                for leg in report["surjectivity"]]
        report["table"] = rows
        # plot data as tabular text: winding and landing step per probe
        lines = ["probe\twinding_before\twinding_after\tbeta"]
        lines += [f"{r['label']}\t{r['winding_before']}"
                  f"\t{r['winding_after']}\t{r['beta']}" for r in rows]
        report["table_text"] = "\n".join(lines)
        _emit(report, args.out)
        ok = report["all_windings_preserved"] and report["all_grids_ok"] \
            and report["psi_bijective_on_window"]
        return 0 if ok else 4

    if args.kind == "palais":
        cmodel = None
        if args.graph:
            cmodel = ser.obj_to_component_model(_load(args.graph))
        report = palais_experiment(model, cmodel=cmodel, loops=probes,
                                   pairs=pairs, config=config,
                                   rng=random.Random(config.seed))
        _emit(report, args.out)
        ok = report.get("pi0", {}).get("bijective", True) and \
            report.get("pi1", {}).get("all_windings_preserved", True)
        return 0 if ok else 4
    raise InputError(f"unknown experiment {args.kind!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ascolim",
        description="desk-scale homotopy direct limits: subdivision, "
                    "filling, charts, colimits, approximation homotopies",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t-grid", type=int, default=50)
    parser.add_argument("--bake-level", type=int, default=1)
    parser.add_argument("--max-subdivision", type=int, default=8)
    parser.add_argument("--version", action="store_true",
                        help="print version and kernel backend")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("schema", help="print input/output schemas")
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_schema)

    p = sub.add_parser("subdivide",
                       help="iterate barycentric subdivision to a "
                            "diameter bound")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("fill", help="evaluate a filled boundary map")
    p.add_argument("--simplex", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--probe", required=True)
    p.add_argument("--anchor")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fill)

    p = sub.add_parser("colimit", help="classes and witnesses of a "
                                       "finite direct system")
    p.add_argument("--system", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_colimit)

    p = sub.add_parser("validate-chart",
                       help="per-condition well-filled chart report")
    p.add_argument("--chart", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--weak", action="store_true",
                   help="also check the weak direct limit condition")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate_chart)

    p = sub.add_parser("approximate",
                       help="homotope a map into a finite step")
    p.add_argument("--complex", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--relative")
    p.add_argument("--alpha")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_approximate)

    p = sub.add_parser("experiment", help="end-to-end experiments")
    p.add_argument("kind", choices=["pi0", "pi1", "palais"])
    p.add_argument("--model")
    p.add_argument("--graph")
    p.add_argument("--probes")
    p.add_argument("--pairs")
    p.add_argument("--basepoint", type=int)
    p.add_argument("--report", dest="out")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(f"ascolim {__version__} (kernels: {KERNEL_BACKEND})")
        return 0
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        config = EngineConfig(seed=args.seed, t_grid=args.t_grid,
                              bake_level=args.bake_level,
                              max_subdivision=args.max_subdivision)
        return args.fn(args, config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionExceededError, AbsorptionError) as exc:
        print(f"resolution exceeded: {exc}", file=sys.stderr)
        return 3
    except AscolimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
