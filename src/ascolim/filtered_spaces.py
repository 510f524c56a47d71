"""Nested coordinate filtrations, well-filled charts and chart surgery.

The ambient space is R^D with a chain of coordinate subspaces E_alpha
(monotone coordinate sets); the model "manifold" is an open region U_M
with the identity chart, and its steps are M_alpha = U_M intersected with
E_alpha.  Charts are affine homeomorphisms onto regions, carrying a core
whose 2-fold convex combinations stay inside the image; validation
certifies each chart condition symbolically where the region algebra
allows, and reports sampled verdicts elsewhere.
"""

from dataclasses import dataclass, field

from ascolim.errors import (AbsorptionError, InputError,
                            ResolutionExceededError)
from ascolim.geometry import as_point, vadd, vsub
from ascolim.rats import RAT, to_rat
from ascolim.regions import (AffineSubspace, Intersection, OpenBall, Region,
                             conv2_subset, region_subset)


class Filtration:
    """A chain of coordinate subspaces ``E_a0 <= ... <= E_aN`` of R^D."""

    def __init__(self, ambient_dim, steps):
        self.ambient_dim = ambient_dim
        self.labels = []
        self.coord_sets = {}
        prev = frozenset()
        for label, coords in steps:
            coords = frozenset(coords)
            if not coords >= prev:
                raise InputError("coordinate sets must grow along the chain")
            if any(not 0 <= c < ambient_dim for c in coords):
                raise InputError("coordinate index out of range")
            self.labels.append(label)
            self.coord_sets[label] = coords
            prev = coords
        if not self.labels:
            raise InputError("empty filtration")

    def coords(self, label):
        return self.coord_sets[label]

    @property
    def top(self):
        return self.labels[-1]

    @property
    def infinity_coords(self):
        return self.coord_sets[self.top]

    def position(self, label):
        return self.labels.index(label)

    def at_or_above(self, label):
        return self.labels[self.position(label):]

    def support(self, point):
        return frozenset(i for i, c in enumerate(point) if c != 0)

    def subspace_contains(self, label, point):
        return self.support(point) <= self.coord_sets[label]

    def least_index_supporting(self, point, at_least=None):
        """Least chain label whose subspace holds ``point``; None if escape."""
        start = 0 if at_least is None else self.position(at_least)
        sup = self.support(point)
        for label in self.labels[start:]:
            if sup <= self.coord_sets[label]:
                return label
        return None

    def absorbing_step(self, points, at_least=None):
        """Least label at or above ``at_least`` whose subspace holds every
        point, and the first point that escapes every step (or None).

        The scan stops at an escaping point; the label is then the one
        the points before it reached (``at_least`` if there are none).
        """
        best = at_least
        for p in points:
            least = self.least_index_supporting(p, at_least=at_least)
            if least is None:
                return best, p
            if best is None or self.position(least) > self.position(best):
                best = least
        return best, None

    def project(self, point, label):
        coords = self.coord_sets[label]
        return tuple(c if i in coords else c * 0
                     for i, c in enumerate(point))

    def subspace_region(self, label):
        dim = self.ambient_dim
        dirs = []
        for i in sorted(self.coord_sets[label]):
            e = [RAT(0)] * dim
            e[i] = RAT(1)
            dirs.append(tuple(e))
        return AffineSubspace((RAT(0),) * dim, dirs)


@dataclass(frozen=True)
class CompactSample:
    """Finite rational stand-in for a compact set.

    ``provenance`` records whether the points are an exact PL image
    (vertex set, exact) or a declared sample with a mesh bound.
    """

    points: tuple
    provenance: str = "sample"
    mesh: object = None

    def __post_init__(self):
        if not self.points:
            raise InputError("empty compact sample")
        object.__setattr__(self, "points",
                           tuple(as_point(p) for p in self.points))


class FilteredSpaceModel:
    """Ambient open carrier with nested coordinate steps.

    ``sample_box`` bounds the deterministic sampling used by the density
    budget check (density is a hypothesis checked at resolution ``rho``,
    not a theorem).
    """

    def __init__(self, filtration, carrier, rho=None, sample_box=None):
        if not isinstance(carrier, Region):
            raise InputError("carrier must be a region")
        self.filtration = filtration
        self.carrier = carrier
        self.rho = rho
        self.sample_box = sample_box

    @property
    def ambient_dim(self):
        return self.filtration.ambient_dim

    def in_m_infinity(self, x):
        return self.filtration.subspace_contains(self.filtration.top, x) \
            and self.carrier.contains(x)

    def density_report(self, rng, samples=500):
        """Sampled density of the step union in the carrier at radius rho."""
        if self.rho is None or self.sample_box is None:
            return {"checked": 0, "within_rho": 0, "rho": None}
        lo, hi = self.sample_box
        dim = self.ambient_dim
        hits = 0
        checked = 0
        top = self.filtration.top
        rho_sq = self.rho * self.rho
        while checked < samples:
            x = tuple(lo[d] + RAT(rng.randint(0, 2 ** 12), 2 ** 12)
                      * (hi[d] - lo[d]) for d in range(dim))
            if not self.carrier.contains(x):
                continue
            checked += 1
            proj = self.filtration.project(x, top)
            gap = sum((a - b) ** 2 for a, b in zip(x, proj))
            if self.carrier.contains(proj) and gap <= rho_sq:
                hits += 1
        return {"checked": checked, "within_rho": hits, "rho": self.rho}


@dataclass(frozen=True)
class AffineMap:
    """``x -> M x + c`` with exact entries; ``matrix=None`` means identity."""

    offset: tuple
    matrix: tuple = None

    def __call__(self, x):
        x = tuple(x)
        if self.matrix is not None:
            x = tuple(sum(row[j] * x[j] for j in range(len(x)))
                      for row in self.matrix)
        return vadd(x, self.offset)

    @property
    def is_translation(self):
        return self.matrix is None

    @staticmethod
    def identity(dim):
        return AffineMap(offset=(RAT(0),) * dim)


class WellFilledChart:
    """Chart data: domain U, map phi, image V, core V2, optional V4.

    Step pieces are always the derived ones ``V_a = V ∩ E_a`` and
    ``U_a = U ∩ M_a`` (the open/convex regimes of the sufficient
    conditions), which keeps conditions (b) and (d) structural.
    """

    def __init__(self, filtration, domain, phi, image, core, alpha0,
                 core4=None, label="chart"):
        self.filtration = filtration
        self.domain = domain
        self.phi = phi
        self.image = image
        self.core = core
        self.core4 = core4
        self.alpha0 = alpha0
        self.label = label
        if alpha0 not in filtration.labels:
            raise InputError(f"unknown chart base index {alpha0!r}")

    def core_contains(self, q):
        """Is the model point ``q`` inside the chart core U^(2)?"""
        return self.domain.contains(q) and self.core.contains(self.phi(q))

    def __repr__(self):
        return f"WellFilledChart({self.label})"


def identity_chart(model, core, alpha0=None, label="identity"):
    """The identity chart on the model carrier with a declared core."""
    filt = model.filtration
    return WellFilledChart(
        filtration=filt,
        domain=model.carrier,
        phi=AffineMap.identity(model.ambient_dim),
        image=model.carrier,
        core=core,
        alpha0=filt.labels[0] if alpha0 is None else alpha0,
        label=label,
    )


@dataclass
class ConditionReport:
    condition: str
    status: str          # certified | sample-verified | failed | skipped
    detail: str
    witness: tuple = None


@dataclass
class ChartValidation:
    entries: dict = field(default_factory=dict)

    def add(self, condition, status, detail, witness=None):
        self.entries[condition] = ConditionReport(condition, status, detail,
                                                  witness)

    @property
    def ok(self):
        return all(e.status != "failed" for e in self.entries.values())

    def as_obj(self):
        return {c: {"status": e.status, "detail": e.detail,
                    "witness": None if e.witness is None
                    else [str(v) for v in e.witness]}
                for c, e in sorted(self.entries.items())}


def _phi_respects_steps(chart):
    """Does phi map each E_a ∩ U into E_a (condition (a))?"""
    filt = chart.filtration
    phi = chart.phi
    for label in filt.at_or_above(chart.alpha0):
        coords = filt.coords(label)
        outside = [d for d in range(filt.ambient_dim) if d not in coords]
        for d in outside:
            if phi.offset[d] != 0:
                return False, label, d
            if phi.matrix is not None:
                if any(phi.matrix[d][j] != 0 for j in coords):
                    return False, label, d
    return True, None, None


def _sample_core_points(chart, rng, count):
    """Deterministic rational samples inside the core (rejection in a box)."""
    core = chart.core
    dim = chart.filtration.ambient_dim
    # probe around ball-like cores; fall back to the origin box
    center = getattr(core, "center", (RAT(0),) * dim)
    radius = getattr(core, "radius", RAT(1))
    pts = []
    attempts = 0
    while len(pts) < count and attempts < 50 * count:
        attempts += 1
        x = tuple(center[d] + radius * RAT(rng.randint(-2 ** 10, 2 ** 10),
                                           2 ** 10)
                  for d in range(dim))
        if core.contains(x) and chart.image.contains(x):
            pts.append(x)
    return pts


def _conv2_witness(inner, outer, dim, rng):
    """A point of conv_2(inner) outside outer, by deterministic probing."""
    center = getattr(inner, "center", None)
    radius = getattr(inner, "radius", None)
    if center is not None and radius is not None:
        for k in range(1, 12):
            rho = radius * (1 - RAT(1, 2 ** k))
            for d in range(dim):
                for sgn in (1, -1):
                    p = list(center)
                    p[d] = p[d] + sgn * rho
                    p = tuple(p)
                    if inner.contains(p) and not outer.contains(p):
                        return p
    for _ in range(200):
        p = tuple(RAT(rng.randint(-2 ** 8, 2 ** 8), 2 ** 6)
                  for _ in range(dim))
        if inner.contains(p) and not outer.contains(p):
            return p
    return None


def validate_well_filled_chart(chart, model, rng=None, samples=60,
                               as_weak_direct_limit=False):
    """Per-condition report for Definition-style chart validity.

    The sufficient-condition regimes (open image with derived open step
    pieces; convex image) are recognized first and short-circuit the
    convexity and absorption conditions.  Conditions that resist the
    symbolic rules fall back to seeded sampling, reported as such.
    """
    import random
    if rng is None:
        rng = random.Random(0)
    if model.filtration is not chart.filtration:
        if model.filtration.coord_sets != chart.filtration.coord_sets \
                or model.filtration.ambient_dim \
                != chart.filtration.ambient_dim:
            raise InputError("chart and model filtrations disagree")
    report = ChartValidation()

    ok, label, coord = _phi_respects_steps(chart)
    if ok:
        detail = "identity map" if chart.phi.is_translation \
            and all(c == 0 for c in chart.phi.offset) \
            else "block-affine map respects every step subspace"
        report.add("a", "certified", detail)
    else:
        report.add("a", "failed",
                   f"phi leaks coordinate {coord} at step {label!r}",
                   witness=(label, coord))

    report.add("b", "certified",
               "bonding maps are literal coordinate inclusions")
    report.add("d", "certified",
               "step pieces are derived: U_a = U ∩ M_a, so the union "
               "is U ∩ M_infinity by construction")

    open_regime = chart.image.is_open
    convex_regime = chart.image.is_convex

    e1 = conv2_subset(chart.core, chart.image)
    if convex_regime and chart.core is chart.image:
        report.add("e", "certified",
                   "image is convex and the core is the whole image")
    elif e1 is True:
        report.add("e", "certified",
                   "conv_2(core) ⊆ image by region arithmetic; the "
                   "infinity variant follows on a chain (segments stay "
                   "in the larger step subspace)")
    elif e1 is False:
        witness = _conv2_witness(chart.core, chart.image,
                                 chart.filtration.ambient_dim, rng)
        report.add("e", "failed", "conv_2(core) escapes the image",
                   witness=witness)
    else:
        bad = None
        pts = _sample_core_points(chart, rng, samples)
        for i, p in enumerate(pts):
            for q in pts[i:]:
                mid = tuple((a + b) / 2 for a, b in zip(p, q))
                if not chart.image.contains(mid):
                    bad = mid
                    break
            if bad:
                break
        if bad is None:
            report.add("e", "sample-verified",
                       f"midpoints of {len(pts)} sampled core pairs stay "
                       "in the image")
        else:
            report.add("e", "failed", "sampled core midpoint escapes",
                       witness=bad)

    if open_regime:
        report.add("f", "certified",
                   "image open with derived step pieces: V_a open in E_a, "
                   "so absorption follows from (e)")
    elif convex_regime:
        report.add("f", "certified",
                   "image convex with derived step pieces: V_a convex, "
                   "so absorption follows from (e)")
    else:
        report.add("f", "sample-verified",
                   "no open/convex regime; absorption checked per "
                   "compact sample via absorb_compact")

    if as_weak_direct_limit:
        full = region_subset(chart.image,
                             chart.filtration.subspace_region(
                                 chart.filtration.top)) \
            or chart.filtration.infinity_coords \
            == frozenset(range(chart.filtration.ambient_dim))
        if full:
            report.add("c", "certified",
                       "every image point is supported in the top step")
        else:
            pts = _sample_core_points(chart, rng, samples)
            escape = next((p for p in pts
                           if not chart.filtration.subspace_contains(
                               chart.filtration.top, p)), None)
            if escape is None:
                report.add("c", "sample-verified",
                           f"{len(pts)} sampled points lie in the union "
                           "of the steps")
            else:
                report.add("c", "failed", "image point escapes every step",
                           witness=escape)
    return report


# -- chart surgery ----------------------------------------------------------


def _image_of_region(phi, region):
    if phi.is_translation:
        if all(c == 0 for c in phi.offset):
            return region
        return region.translate(phi.offset)
    raise InputError("region images only supported for translation charts")


def _preimage_of_region(phi, region):
    if phi.is_translation:
        if all(c == 0 for c in phi.offset):
            return region
        return region.translate(tuple(-c for c in phi.offset))
    raise InputError("region preimages only supported for translation charts")


def shrink_chart(chart, q, neighborhood, max_radius=1, depth=40):
    """A chart around ``q`` squeezed inside ``neighborhood``.

    Picks a balanced ball Q by dyadic bisection so that the doubled ball
    around phi(q) stays inside the image of ``neighborhood ∩ U``, then
    keeps a factor-2 safety margin.  The new image is
    ``(phi(q) + Q + Q) ∩ V`` and the new core ``(phi(q) + Q) ∩ V2``.
    """
    q = as_point(q)
    if not chart.core_contains(q):
        raise InputError("q must lie in the open core of the chart")
    if not neighborhood.contains(q):
        raise InputError("neighborhood does not contain q")
    target = Intersection([_image_of_region(chart.phi, neighborhood),
                           chart.image])
    center = chart.phi(q)
    rho = to_rat(max_radius)
    fit = None
    for _ in range(depth):
        if region_subset(OpenBall(center, 2 * rho), target) is True:
            fit = rho
            break
        rho = rho / 2
    if fit is None:
        raise ResolutionExceededError(
            "no admissible balanced ball within bisection depth")
    q_radius = fit / 2  # factor-2 safety margin
    new_image = Intersection([OpenBall(center, 2 * q_radius), chart.image])
    new_core = Intersection([OpenBall(center, q_radius), chart.core])
    return WellFilledChart(
        filtration=chart.filtration,
        domain=_preimage_of_region(chart.phi, new_image),
        phi=chart.phi,
        image=new_image,
        core=new_core,
        alpha0=chart.alpha0,
        label=f"{chart.label}|shrunk",
    )


def quarter_core(chart, q, max_radius=1, depth=40):
    """An open neighbourhood V4 of phi(q) with conv_2(V4) ⊆ V2.

    Realized by the shrink construction with the chart core as the
    target neighbourhood.
    """
    core_domain = _preimage_of_region(chart.phi, chart.core)
    inner = shrink_chart(chart, q, Intersection([core_domain, chart.domain]),
                         max_radius=max_radius, depth=depth)
    return inner.core


def absorb_compact(chart, sample, alpha):
    """Least chain index ``beta >= alpha`` whose step holds the sample.

    Exact coordinate-support scan; every point must already sit in the
    chart core.  Raises ``AbsorptionError`` with the escaping point when
    the finite chain cannot absorb the sample.
    """
    filt = chart.filtration
    if alpha not in filt.labels:
        raise InputError(f"unknown index {alpha!r}")
    for p in sample.points:
        if not chart.core_contains(p):
            raise InputError(f"sample point {p!r} outside the chart core")
    beta, escaped = filt.absorbing_step(sample.points, at_least=alpha)
    if escaped is not None:
        raise AbsorptionError(
            "compact sample escapes every step of the chain "
            "(non-compactly-retractive signature)", witness=escaped)
    return beta


def check_compact_retractivity(model, sample):
    """Least step of the model containing the sample; exact support scan."""
    filt = model.filtration
    best = filt.labels[0]
    for p in sample.points:
        if not model.carrier.contains(p):
            raise InputError(f"sample point {p!r} outside the carrier")
        least = filt.least_index_supporting(p)
        if least is None:
            raise AbsorptionError("sample escapes every step", witness=p)
        if filt.position(least) > filt.position(best):
            best = least
    return best


def translate_chart(chart, g, model=None):
    """Chart moved by the additive group element ``g``.

    The domain becomes ``g + U`` with ``x -> phi(x - g)``; the image and
    cores are untouched, and the base index rises to the least step
    containing ``g``.
    """
    g = as_point(g)
    filt = chart.filtration
    if all(c == 0 for c in g):
        return chart
    least = filt.least_index_supporting(g)
    if least is None:
        raise InputError("translation element not supported in any step")
    if model is not None and not model.carrier.contains(g):
        raise InputError("translation element outside the carrier")
    alpha0 = least if filt.position(least) > filt.position(chart.alpha0) \
        else chart.alpha0
    phi = chart.phi
    if phi.matrix is None:
        new_offset = vsub(phi.offset, g)
    else:
        # x -> M(x - g) + c = Mx + (c - Mg)
        mg = tuple(sum(row[j] * g[j] for j in range(len(g)))
                   for row in phi.matrix)
        new_offset = vsub(phi.offset, mg)
    new_phi = AffineMap(offset=new_offset, matrix=phi.matrix)
    return WellFilledChart(
        filtration=filt,
        domain=chart.domain.translate(g),
        phi=new_phi,
        image=chart.image,
        core=chart.core,
        alpha0=alpha0,
        label=f"{chart.label}|translated",
    )
