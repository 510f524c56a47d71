"""Filtrations, chart validation, and chart surgery."""

import random
from fractions import Fraction

import pytest

from ascolim.errors import AbsorptionError, InputError
from ascolim.filtered_spaces import (CompactSample,
                                     FilteredSpaceModel, Filtration,
                                     absorb_compact,
                                     check_compact_retractivity,
                                     identity_chart, quarter_core,
                                     shrink_chart, translate_chart,
                                     validate_well_filled_chart)
from ascolim.regions import OpenBall, conv2_subset, region_subset

F = Fraction


def chain_filtration(dim):
    """Labels 1..dim with E_k = first k coordinates."""
    return Filtration(dim, [(k, range(k)) for k in range(1, dim + 1)])


def ball_model(dim=4, radius=4):
    filt = chain_filtration(dim)
    carrier = OpenBall((F(0),) * dim, radius)
    box = ((F(-radius),) * dim, (F(radius),) * dim)
    return FilteredSpaceModel(filt, carrier, rho=F(radius), sample_box=box)


def test_filtration_monotonicity_enforced():
    with pytest.raises(InputError):
        Filtration(3, [(1, {0, 1}), (2, {2})])


def test_support_and_projection():
    filt = chain_filtration(4)
    p = (F(1), F(0), F(2), F(0))
    assert filt.least_index_supporting(p) == 3
    assert filt.subspace_contains(3, p) and not filt.subspace_contains(2, p)
    assert filt.project(p, 2) == (1, 0, 0, 0)


def test_identity_chart_on_ball_certifies_all_conditions():
    model = ball_model()
    core = OpenBall((F(0),) * 4, 2)
    chart = identity_chart(model, core)
    report = validate_well_filled_chart(chart, model,
                                        as_weak_direct_limit=True)
    assert report.ok
    for cond in ("a", "b", "d", "e", "f", "c"):
        assert report.entries[cond].status == "certified", cond


def test_convex_image_with_core_equal_image():
    model = ball_model()
    chart = identity_chart(model, model.carrier)
    report = validate_well_filled_chart(chart, model)
    assert report.ok
    assert report.entries["e"].status == "certified"


def test_core_escaping_image_fails_with_witness():
    model = ball_model(radius=2)
    big_core = OpenBall((F(0),) * 4, 3)
    chart = identity_chart(model, big_core)
    report = validate_well_filled_chart(chart, model)
    assert not report.ok
    entry = report.entries["e"]
    assert entry.status == "failed"
    assert entry.witness is not None
    assert big_core.contains(entry.witness)
    assert not model.carrier.contains(entry.witness)


def test_weak_direct_limit_charts_are_well_filled():
    # the chain tops out at the full space, so (c) certifies, and the
    # well-filled conditions all pass on the same chart
    model = ball_model()
    chart = identity_chart(model, OpenBall((F(0),) * 4, 1))
    as_weak = validate_well_filled_chart(chart, model,
                                         as_weak_direct_limit=True)
    assert as_weak.ok and as_weak.entries["c"].status == "certified"
    as_filled = validate_well_filled_chart(chart, model)
    assert as_filled.ok


def test_shrink_chart_ball_arithmetic_example():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    q = (F(0),) * 4
    w = OpenBall((F(0),) * 4, 1)
    small = shrink_chart(chart, q, w)
    # bisection against W finds 1/2; the safety margin leaves Q = B_{1/4}
    assert small.image.parts[0].radius == F(1, 2)
    assert small.core.parts[0].radius == F(1, 4)
    assert region_subset(small.image, w) is True
    assert validate_well_filled_chart(small, model).ok


def test_shrink_chart_unconstrained_uses_max_radius():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    small = shrink_chart(chart, (F(0),) * 4, model.carrier, max_radius=F(1))
    assert small.image.parts[0].radius == F(1)
    assert validate_well_filled_chart(small, model).ok


def test_shrink_chart_rejects_boundary_point():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    with pytest.raises(InputError):
        shrink_chart(chart, (F(2), 0, 0, 0), model.carrier)


def test_quarter_core_ball_example():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    v4 = quarter_core(chart, (F(0),) * 4)
    assert v4.parts[0].radius == F(1, 2)
    assert conv2_subset(v4, chart.core) is True


def test_quarter_core_near_boundary_still_certifies():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    q = (F(3, 2), 0, 0, 0)
    v4 = quarter_core(chart, q)
    assert conv2_subset(v4, chart.core) is True
    assert v4.contains(q)


def test_quarter_core_outside_core_rejected():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    with pytest.raises(InputError):
        quarter_core(chart, (F(3), 0, 0, 0))


def test_absorb_compact_support_bound():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    p = (F(1, 2), F(1, 2), 0, 0)
    assert absorb_compact(chart, CompactSample((p,)), 1) == 2
    assert absorb_compact(chart, CompactSample((p,)), 3) == 3


def test_absorb_compact_loop_vertices():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    loop = CompactSample(((F(1, 2), 0, 0, 0),
                          (0, F(1, 2), 0, 0),
                          (0, 0, F(1, 2), 0)), provenance="pl-image")
    assert absorb_compact(chart, loop, 1) == 3


def test_absorption_monotonicity_under_union():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    a = CompactSample(((F(1, 2), 0, 0, 0),))
    b = CompactSample(((0, F(1, 2), F(1, 2), 0),))
    both = CompactSample(a.points + b.points)
    assert absorb_compact(chart, both, 1) == max(
        absorb_compact(chart, a, 1), absorb_compact(chart, b, 1))


def test_compact_retractivity_checker():
    model = ball_model(radius=4)
    inside = CompactSample(((F(1, 2), F(1, 2), 0, 0),))
    assert check_compact_retractivity(model, inside) == 2
    with pytest.raises(InputError):
        check_compact_retractivity(
            model, CompactSample(((F(10), 0, 0, 0),)))


def test_absorption_failure_reports_witness():
    # chain stopping short of the ambient dimension: escape is possible
    filt = Filtration(4, [(1, {0}), (2, {0, 1})])
    carrier = OpenBall((F(0),) * 4, 4)
    model = FilteredSpaceModel(filt, carrier)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    escaping = CompactSample(((0, 0, F(1, 2), 0),))
    with pytest.raises(AbsorptionError) as err:
        absorb_compact(chart, escaping, 1)
    assert err.value.witness == (0, 0, F(1, 2), 0)


def test_absorbing_step_scan():
    filt = chain_filtration(4)
    pts = [(F(1), 0, 0, 0), (0, F(1), F(1), 0), (F(2), 0, 0, 0)]
    assert filt.absorbing_step(pts) == (3, None)
    assert filt.absorbing_step(pts[:1]) == (1, None)
    assert filt.absorbing_step(pts[:1], at_least=2) == (2, None)
    assert filt.absorbing_step([], at_least=2) == (2, None)
    assert filt.absorbing_step([]) == (None, None)
    # a chain that stops short of the ambient space: the scan stops at
    # the first escaping point, with the label reached before it
    short = Filtration(4, [(1, {0}), (2, {0, 1})])
    out, other = (0, 0, F(1), 0), (0, 0, 0, F(1))
    assert short.absorbing_step([(F(1), 0, 0, 0), (0, F(1), 0, 0), out,
                                 other]) == (2, out)
    assert short.absorbing_step([(F(1), 0, 0, 0), out]) == (1, out)
    assert short.absorbing_step([out, (0, F(1), 0, 0)]) == (None, out)
    assert short.absorbing_step([out], at_least=2) == (2, out)


def test_translate_chart_identity_element():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    assert translate_chart(chart, (0, 0, 0, 0)) is chart


def test_translate_chart_shifts_domain_and_raises_alpha():
    filt = chain_filtration(4)
    carrier = OpenBall((F(0),) * 4, 1)
    model = FilteredSpaceModel(filt, carrier)
    chart = identity_chart(model, OpenBall((F(0),) * 4, F(1, 2)))
    g = (F(1), 0, 0, 0)
    moved = translate_chart(chart, g)
    assert moved.alpha0 == 1
    assert moved.domain.contains((F(3, 2), 0, 0, 0))
    assert not moved.domain.contains((0, 0, 0, 0))
    # phi sends the moved domain back onto the old image
    assert moved.phi((F(3, 2), 0, 0, 0)) == (F(1, 2), 0, 0, 0)
    report = validate_well_filled_chart(moved, model)
    assert report.entries["a"].status == "certified"


def test_translate_chart_unsupported_element_rejected():
    filt = Filtration(8, [(k, range(k)) for k in range(1, 6)])
    carrier = OpenBall((F(0),) * 8, 4)
    model = FilteredSpaceModel(filt, carrier)
    chart = identity_chart(model, OpenBall((F(0),) * 8, 2))
    g = tuple(F(1) if d == 6 else F(0) for d in range(8))
    with pytest.raises(InputError):
        translate_chart(chart, g)


def test_density_report_counts_projection_hits():
    model = ball_model(radius=2)
    rep = model.density_report(random.Random(0), samples=100)
    assert rep["checked"] == 100
    assert rep["within_rho"] == 100  # chain tops at the full space


def test_surgery_outputs_revalidate():
    model = ball_model(radius=4)
    chart = identity_chart(model, OpenBall((F(0),) * 4, 2))
    for q in [(F(0),) * 4, (F(1, 2), F(-1, 2), 0, 0)]:
        small = shrink_chart(chart, q, OpenBall(q, 1))
        assert validate_well_filled_chart(small, model).ok
        v4 = quarter_core(small, q)
        assert conv2_subset(v4, small.core) is True
    moved = translate_chart(chart, (F(1, 4), 0, 0, 0), model=model)
    assert validate_well_filled_chart(moved, model).entries["a"].status \
        == "certified"
