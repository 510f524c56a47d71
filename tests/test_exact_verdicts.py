"""No library code gives a sampled membership or chart verdict.

A verdict is exact or undecided, and an undecided one fails: a passing
run of seeded probes proves nothing about the points between them.  The
scan fails on any string constant ``"sampled"`` or ``"sample-verified"``
in the package, and on an ``rng`` or ``samples`` parameter of the
membership check, the chart validator or the engine builder.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ascolim"
LABELS = {"sampled", "sample-verified"}
CHECKS = {"check_map", "validate_well_filled_chart", "build_engine"}
SAMPLING = {"rng", "samples"}


def sampled_verdicts(source, filename="<source>"):
    """``line: what`` for each sampled-verdict label and each sampling
    parameter of a checking function in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value in LABELS:
            found.append((node.lineno, repr(node.value)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in CHECKS:
            a = node.args
            names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            found += [(node.lineno, f"{node.name}({name})")
                      for name in sorted(names & SAMPLING)]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_scan_flags_labels_and_sampling_parameters():
    assert sampled_verdicts(
        "def _check(ok):\n"
        "    return ok, 'exact' if ok else \"sampled\"\n"
        "STATUS = {'e': 'sample-verified'}\n") == [
            "2: 'sampled'", "3: 'sample-verified'"]
    assert sampled_verdicts(
        "class Spec:\n"
        "    def check_map(self, cx, fn, rng=None, samples=2, *, _t=None):\n"
        "        pass\n"
        "def build_engine(tree, *, rng):\n"
        "    pass\n"
        "def validate_well_filled_chart(chart, model, samples=60):\n"
        "    pass\n") == [
            "2: check_map(rng)", "2: check_map(samples)",
            "4: build_engine(rng)", "6: validate_well_filled_chart(samples)"]
    # other functions may sample, and other words may contain the labels
    assert sampled_verdicts(
        "def density_report(self, rng, samples=500):\n"
        "    return 'sampled density', 'undecided', b'sampled'\n") == []


def test_no_module_gives_a_sampled_verdict():
    found = {path.name: sampled_verdicts(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
