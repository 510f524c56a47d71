"""Spans around the public functions of each ``ascolim`` layer.

The tracer wraps every traced name at each module that binds it (a name
imported with ``from ... import`` is bound in the importing module too),
records one span per call into flat in-memory arrays, and turns the spans
of a round into per-layer figures:

- ``calls``: number of spans of the name;
- ``total_s``: wall time of the outermost spans only, so a function that
  recurses (``build_engine``, ``ThetaEngine.theta``) is not counted twice;
- ``self_s``: span time minus the time covered by its direct child spans.

It also derives the three waste ratios of ``RATIOS`` from the span tree.
Spans are taken only by the benchmark, from outside the program.
"""

import importlib
import statistics
import sys
from array import array
from time import perf_counter

#: traced layer -> public names, in the order the metrics are reported
LAYERS = {
    "_kernels": ["matvec_q", "max_pairwise_sqdist_q", "winding_crossings_q"],
    "linalg": ["solve_nonneg", "solve", "row_reduce", "invert"],
    "geometry": ["Simplex.barycentric", "Simplex.contains", "diameter_sq"],
    "simplicial": ["bsd_with_parents", "SimplicialComplex.tops",
                   "SimplicialComplex.locate", "SubdividedComplex.refine",
                   "SubdividedComplex.locate_final", "relative_volumes"],
    "convexity": ["conv_n_contains", "conv2_with_convn_contains",
                  "hull_contains"],
    "regions": ["CoordinatePlaneComplement.contains_hull"],
    "filling": ["cone_decomposition"],
    "plmaps": ["PLMap.__call__"],
    "approximation": ["simultaneous_approximation", "build_engine",
                      "ChartProvider.chart_at", "ThetaEngine.theta",
                      "bake_on", "NeighborhoodSpec.check_map"],
    "invariants": ["surjectivity_leg", "injectivity_leg", "winding_number"],
}

STATS = ("calls", "self_s", "total_s")

#: waste ratios: metric name -> unit
RATIOS = {
    "simplicial.locate_final.solves_per_call": "solves/call",
    "plmaps.PLMap.scan_share": "ratio",
    "geometry.Simplex.contains.solve_share": "ratio",
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def traced_names():
    return [f"{layer}.{name}" for layer, names in LAYERS.items()
            for name in names]


def metric_specs():
    """``(name, unit)`` of every per-layer metric, in report order."""
    out = [(f"{full}.{stat}", UNITS[stat])
           for full in traced_names() for stat in STATS]
    out.extend(RATIOS.items())
    out.append(("trace.wall_s", "s"))
    return out


class Tracer:
    """Installs span wrappers; one instance per process."""

    def __init__(self):
        self.names = traced_names()
        self.missing = []
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active = [0] * len(self.names)

    def install(self):
        """Wrap every traced name wherever an ``ascolim`` module binds it."""
        for nid, full in enumerate(self.names):
            layer, _, qual = full.partition(".")
            try:
                module = importlib.import_module(f"ascolim.{layer}")
                owner = module
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(full)
                continue
            wrapper = self._wrap(original, nid)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ascolim" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, nid):
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end, stack, active = (self.start, self.end, self._stack,
                                     self._active)

        def span(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                active[nid] -= 1
                stack.pop()

        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", span.__name__)
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        return span

    def drain(self):
        """Per-name figures of the spans recorded so far; clears them."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        total_s = [0.0] * n_names
        count = len(self.name_id)
        name_id, parent, outer = self.name_id, self.parent, self.outer
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(count):
            nid = name_id[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            if outer[i]:
                total_s[nid] += dur[i]
        ratios = self._ratios(count)
        for arr in (self.name_id, self.parent, self.outer, self.start,
                    self.end):
            del arr[:]
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "ratio_parts": ratios}

    def _ratios(self, count):
        """Numerators and bases of the three waste ratios."""
        ids = {full: i for i, full in enumerate(self.names)}
        bary = ids["geometry.Simplex.barycentric"]
        contains = ids["geometry.Simplex.contains"]
        locate = ids["simplicial.SimplicialComplex.locate"]
        locate_final = ids["simplicial.SubdividedComplex.locate_final"]
        pl_call = ids["plmaps.PLMap.__call__"]
        name_id, parent = self.name_id, self.parent
        inside_lf = bytearray(count)
        solved = bytearray(count)
        lf_solves = lf_calls = scans = pl_calls = 0
        contains_calls = 0
        for i in range(count):
            nid = name_id[i]
            p = parent[i]
            if p >= 0:
                inside_lf[i] = name_id[p] == locate_final or inside_lf[p]
            if nid == bary:
                if inside_lf[i]:
                    lf_solves += 1
                if p >= 0 and name_id[p] == contains:
                    solved[p] = 1
            elif nid == locate_final:
                lf_calls += 1
            elif nid == pl_call:
                pl_calls += 1
            elif nid == contains:
                contains_calls += 1
            elif nid == locate and p >= 0 and name_id[p] == pl_call:
                scans += 1
        contains_solved = sum(solved)
        return {
            "simplicial.locate_final.solves_per_call": (lf_solves, lf_calls),
            "plmaps.PLMap.scan_share": (scans, pl_calls),
            "geometry.Simplex.contains.solve_share": (contains_solved,
                                                      contains_calls),
        }


def summarize(tracer, rounds, round_walls):
    """Per-round per-layer metrics from the drained figures of each round."""
    metrics = {}
    n = len(rounds)
    for nid, full in enumerate(tracer.names):
        for stat in STATS:
            total = sum(r[stat][nid] for r in rounds)
            if stat == "calls":
                value = total // n if total % n == 0 else total / n
            else:
                value = total / n
            metrics[f"{full}.{stat}"] = {"value": value,
                                         "unit": UNITS[stat]}
    for name, unit in RATIOS.items():
        num = sum(r["ratio_parts"][name][0] for r in rounds)
        base = sum(r["ratio_parts"][name][1] for r in rounds)
        metrics[name] = {"value": num / base if base else 0.0, "unit": unit}
    metrics["trace.wall_s"] = {"value": statistics.median(round_walls),
                               "unit": "s"}
    return metrics
