"""CLI surface: schemas, subcommands, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ascolim import serialization as ser
from ascolim.cli import main
from ascolim.filtered_spaces import FilteredSpaceModel, Filtration
from ascolim.geometry import Simplex
from ascolim.invariants import LoopModel
from ascolim.regions import (ClosedBall, CoordinatePlaneComplement,
                             HalfSpace, OpenBall, Union)
from ascolim.simplicial import SimplicialComplex

F = Fraction


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_schema_listing(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    assert "complex" in out and "region" in out
    assert main(["schema", "loop"]) == 0
    assert main(["schema", "nonesuch"]) == 2


def test_subdivide_unit_triangle(tmp_path, capsys):
    cx = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)])])
    inp = _write(tmp_path, "cx.json", ser.complex_to_obj(cx))
    out = str(tmp_path / "refined.json")
    assert main(["subdivide", "--input", inp, "--delta", "4/5",
                 "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 1
    assert report["max_diameter_sq"] == "5/9"
    refined = ser.obj_to_complex(json.loads(open(out).read()))
    assert len(refined.tops()) == 6


def test_subdivide_to_delta_equal_to_the_mesh(tmp_path, capsys):
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    inp = _write(tmp_path, "cx.json", ser.complex_to_obj(cx))
    assert main(["subdivide", "--input", inp, "--delta", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 1
    assert report["max_diameter_sq"] == "1/4"


@pytest.mark.parametrize("exp, diameter", [(200, 1e200), (400, None)])
def test_subdivide_reports_diameters_past_the_float_range(
        tmp_path, capsys, exp, diameter):
    # the squared mesh 10^(2 exp) is past the float range; at exp = 400 the
    # mesh itself is too, and only the exact square is reported
    length = 10 ** exp
    cx = SimplicialComplex([Simplex([(0,), (length,)])])
    inp = _write(tmp_path, "cx.json", ser.complex_to_obj(cx))
    assert main(["subdivide", "--input", inp,
                 "--delta", str(10 * length)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 0
    assert report["max_diameter"] == diameter
    assert report["max_diameter_sq"] == str(length ** 2)


def test_subdivide_rejects_bad_delta(tmp_path):
    cx = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)])])
    inp = _write(tmp_path, "cx.json", ser.complex_to_obj(cx))
    assert main(["subdivide", "--input", inp, "--delta", "0"]) == 2


@pytest.mark.parametrize("delta", ["0.3", "x", "1/0", "1/2/3"])
def test_subdivide_rejects_malformed_delta(tmp_path, capsys, delta):
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    inp = _write(tmp_path, "cx.json", ser.complex_to_obj(cx))
    assert main(["subdivide", "--input", inp, "--delta", delta]) == 2
    assert "not a scalar encoding" in capsys.readouterr().err


def test_subdivide_rejects_float_vertex(tmp_path, capsys):
    obj = {"vertices": [["0"], [0.5]], "simplices": [[0, 1]]}
    inp = _write(tmp_path, "cx.json", obj)
    assert main(["subdivide", "--input", inp, "--delta", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "p/q" in captured.err


def test_fill_subcommand(tmp_path, capsys):
    simplex = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    from ascolim.filling import boundary_complex
    bc = boundary_complex(tri)
    values = {tuple(v): (v[0] + 1, v[1] - 1) for v in bc.vertices()}
    from ascolim.plmaps import PLMap
    gamma = PLMap(bc, values)
    paths = {
        "simplex": _write(tmp_path, "s.json", simplex),
        "boundary": _write(tmp_path, "g.json", ser.plmap_to_obj(gamma)),
        "probe": _write(tmp_path, "p.json",
                        {"points": [["1/3", "1/3"], ["0", "0"]]}),
    }
    assert main(["fill", "--simplex", paths["simplex"],
                 "--boundary", paths["boundary"],
                 "--probe", paths["probe"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["evaluations"][0]["certificate"]["t"] == "1"
    # barycenter maps to the anchor value
    assert report["evaluations"][0]["value"] == ["1", "-1"]


def test_colimit_subcommand(tmp_path, capsys):
    system = {
        "poset": {"elements": [1, 2], "relation": [[1, 2]]},
        "objects": {"1": ["a", "b"], "2": ["c"]},
        "bonding": [{"from": 1, "to": 2, "map": [["a", "c"], ["b", "c"]]}],
    }
    path = _write(tmp_path, "sys.json", system)
    assert main(["colimit", "--system", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class_count"] == 1
    assert report["witnesses_verified"]


def test_validate_chart_subcommand(tmp_path, capsys):
    filt = Filtration(4, [(k, range(k)) for k in range(1, 5)])
    model = FilteredSpaceModel(filt, OpenBall((F(0),) * 4, 4))
    from ascolim.filtered_spaces import identity_chart
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    paths = {
        "chart": _write(tmp_path, "c.json", ser.chart_to_obj(chart)),
        "model": _write(tmp_path, "m.json", ser.model_to_obj(model)),
    }
    assert main(["validate-chart", "--chart", paths["chart"],
                 "--model", paths["model"], "--weak"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["e"]["status"] == "certified"
    # a failing chart exits 4 but still writes the report
    bad = identity_chart(FilteredSpaceModel(filt, OpenBall((F(0),) * 4, 1)),
                         OpenBall((F(0),) * 4, 3))
    bad_path = _write(tmp_path, "bad.json", ser.chart_to_obj(bad))
    model2 = _write(tmp_path, "m2.json", ser.model_to_obj(
        FilteredSpaceModel(filt, OpenBall((F(0),) * 4, 1))))
    assert main(["validate-chart", "--chart", bad_path,
                 "--model", model2]) == 4
    # an undecided condition exits 4 too: two closed balls are neither
    # open nor convex, so (e) and (f) are undecided
    capsys.readouterr()
    blobs = Union([ClosedBall((F(0),) * 4, 1), ClosedBall((F(3),) * 4, 1)])
    both = FilteredSpaceModel(filt, blobs)
    paths = {
        "chart": _write(tmp_path, "u.json",
                        ser.chart_to_obj(identity_chart(both, blobs))),
        "model": _write(tmp_path, "mu.json", ser.model_to_obj(both)),
    }
    assert main(["validate-chart", "--chart", paths["chart"],
                 "--model", paths["model"]]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["e"]["status"] == report["f"]["status"] == "undecided"


def _pi1_fixture(tmp_path):
    filt = Filtration(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(4, 0, 1))
    loop = LoopModel([(1, 1, 0, 0), (-1, 1, 0, 0), (-1, -1, 0, 0),
                      (1, -1, 0, 0)], axis=(0, 1), label="unit")
    return {
        "model": _write(tmp_path, "m.json", ser.model_to_obj(model)),
        "probes": _write(tmp_path, "loops.json",
                         {"loops": [ser.loop_to_obj(loop)]}),
    }


def test_experiment_pi1_runs_and_is_deterministic(tmp_path, capsys):
    paths = _pi1_fixture(tmp_path)
    args = ["--t-grid", "4", "experiment", "pi1",
            "--model", paths["model"], "--probes", paths["probes"]]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical reports
    report = json.loads(first)
    assert report["table"][0]["winding_before"] == 1
    assert report["table"][0]["winding_after"] == 1
    assert report["group_colimit"]["group"] == "Z^1"


def test_experiment_pi0(tmp_path, capsys):
    from ascolim.invariants import ComponentModel
    filt = Filtration(2, [(1, {0}), (2, {0, 1})])
    model = FilteredSpaceModel(filt, OpenBall((F(0), F(0)), 4))
    cmodel = ComponentModel(model,
                            [(F(-1), F(0)), (F(1), F(0)), (F(0), F(1))],
                            {1: [0, 1], 2: [0, 1, 2]},
                            {1: [], 2: [(0, 2), (1, 2)]},
                            ambient_edges=[])
    path = _write(tmp_path, "g.json", ser.component_model_to_obj(cmodel))
    assert main(["experiment", "pi0", "--graph", path,
                 "--basepoint", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["colimit_classes"] == 1
    assert report["union_check"]["equal"]


def _approximate_args(tmp_path):
    filt = Filtration(4, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(4, 0, 1))
    corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    cx = SimplicialComplex([Simplex([corners[i], corners[(i + 1) % 4]])
                            for i in range(4)])
    from ascolim.plmaps import PLMap
    values = {tuple(v): (F(v[0]), F(v[1]), F(0), F(0))
              for v in cx.vertices()}
    gamma = PLMap(cx, values)
    spec = {"constraints": [{"subset": "all",
                             "region": ser.region_to_obj(model.carrier)}]}
    paths = {
        "complex": _write(tmp_path, "cx.json", ser.complex_to_obj(cx)),
        "map": _write(tmp_path, "map.json", ser.plmap_to_obj(gamma)),
        "spec": _write(tmp_path, "spec.json", spec),
        "model": _write(tmp_path, "model.json", ser.model_to_obj(model)),
    }
    return ["approximate",
            "--complex", paths["complex"], "--map", paths["map"],
            "--spec", paths["spec"], "--model", paths["model"],
            "--alpha", "1"]


def test_approximate_subcommand(tmp_path, capsys):
    out = str(tmp_path / "record.json")
    assert main(["--t-grid", "3"] + _approximate_args(tmp_path)
                + ["--out", out]) == 0
    record = json.loads(open(out).read())
    assert record["beta"] == "1"
    assert record["grid_ok"]


def test_approximate_with_mixed_constraint_kinds(tmp_path, capsys):
    # one constraint of each subset kind; the one-vertex simplex lies
    # inside no cell, so it is checked on its own
    args = _approximate_args(tmp_path)
    spec = {"constraints": [
        {"subset": "all", "region": ser.region_to_obj(
            CoordinatePlaneComplement(4, 0, 1))},
        {"subset": {"kind": "sample", "points": [["1", "1"], ["-1", "1"]]},
         "region": ser.region_to_obj(OpenBall((F(0),) * 4, 3))},
        {"subset": {"kind": "simplex", "vertices": [["1", "1"],
                                                    ["-1", "1"]]},
         "region": ser.region_to_obj(HalfSpace((0, 1, 0, 0), F(1, 2)))},
        {"subset": {"kind": "simplex", "vertices": [["-1", "-1"]]},
         "region": ser.region_to_obj(OpenBall((F(-1), F(-1), 0, 0), 1))},
    ]}
    args[args.index("--spec") + 1] = _write(tmp_path, "mixed.json", spec)
    assert main(["--t-grid", "4"] + args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grid_ok"] and report["properties"]["b"]
    assert report["beta"] == "1"


def test_approximate_certifies_the_pushed_map(tmp_path, capsys):
    # an 8-vertex square loop in R^5 with one value off the top step:
    # its anchor is pushed, and the support certificate in the report is
    # the one of the endpoint the run returns
    filt = Filtration(5, [(1, {0, 1}), (2, {0, 1, 2, 3})])
    model = FilteredSpaceModel(filt, CoordinatePlaneComplement(5, 0, 1))
    ring = [(1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
            (1, 0)]
    cx = SimplicialComplex([Simplex([ring[i], ring[(i + 1) % 8]])
                            for i in range(8)])
    from ascolim.plmaps import PLMap
    values = {v: (F(v[0]), F(v[1]), F(0), F(0),
                  F(1, 2) if v == (1, 0) else F(0)) for v in ring}
    spec = {"constraints": [{"subset": "all",
                             "region": ser.region_to_obj(model.carrier)}]}
    args = ["--t-grid", "4", "approximate",
            "--complex", _write(tmp_path, "cx.json", ser.complex_to_obj(cx)),
            "--map", _write(tmp_path, "map.json",
                            ser.plmap_to_obj(PLMap(cx, values))),
            "--spec", _write(tmp_path, "spec.json", spec),
            "--model", _write(tmp_path, "model.json",
                              ser.model_to_obj(model))]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["pushed_points"]) == 1 and report["grid_ok"]
    assert report["properties"]["d"] == {"beta": report["beta"],
                                         "escaped": False}


def test_approximate_rejects_zero_t_grid(tmp_path, capsys):
    assert main(["--t-grid", "0"] + _approximate_args(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_grid" in captured.err


def test_engine_options_are_checked_for_every_command(tmp_path, capsys):
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    inp = _write(tmp_path, "cx.json", ser.complex_to_obj(cx))
    assert main(["--t-grid", "0", "subdivide", "--input", inp,
                 "--delta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_grid" in captured.err


def test_approximate_rejects_negative_bake_level(tmp_path, capsys):
    assert main(["--bake-level", "-1"] + _approximate_args(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bake_level" in captured.err


def test_roundtrips():
    filt = Filtration(3, [(1, {0}), (2, {0, 1, 2})])
    model = FilteredSpaceModel(filt, OpenBall((F(0),) * 3, 2),
                               rho=F(1, 2),
                               sample_box=((F(-2),) * 3, (F(2),) * 3))
    again = ser.obj_to_model(json.loads(ser.dumps(ser.model_to_obj(model))))
    assert again.filtration.coord_sets == filt.coord_sets
    assert again.rho == F(1, 2)
    loop = LoopModel([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)],
                     axis=(0, 1))
    back = ser.obj_to_loop(json.loads(ser.dumps(ser.loop_to_obj(loop))))
    assert back.vertices == loop.vertices and back.axis == loop.axis


def _golden_runs(tmp_path):
    """CLI argument lists whose stdout is pinned under ``tests/data``."""
    paths = _pi1_fixture(tmp_path)
    return {
        "approximate_t3.json": ["--t-grid", "3"]
        + _approximate_args(tmp_path),
        "pi1_t4.json": ["--t-grid", "4", "experiment", "pi1",
                        "--model", paths["model"],
                        "--probes", paths["probes"]],
    }


def test_reports_match_golden_files(tmp_path):
    """Reports are byte-identical to the pinned ones under several hash
    seeds, so neither a code change nor set ordering moves a byte.  The
    last seed runs under ``python -O``: stripping asserts moves no byte
    either."""
    data = Path(__file__).parent / "data"
    src = str(Path(__file__).parent.parent / "src")
    for name, args in _golden_runs(tmp_path).items():
        expected = (data / name).read_bytes()
        for hash_seed, flags in (("0", []), ("1", []), ("2", ["-O"])):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable] + flags + ["-m", "ascolim.cli"] + args,
                capture_output=True, env=env, timeout=300)
            assert run.returncode == 0, run.stderr
            assert run.stderr == b""
            assert run.stdout == expected, (name, hash_seed)


def test_library_has_no_assert_statements():
    # certificate checks raise explicitly, so they also hold under -O
    root = Path(__file__).parent.parent / "src" / "ascolim"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
