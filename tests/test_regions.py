"""Region algebra: exact membership and the symbolic subset rules."""

import random
from fractions import Fraction

import pytest

from ascolim import linalg
from ascolim.convexity import FinitePointSet, hull_contains
from ascolim.errors import InputError
from ascolim.geometry import Simplex, dot
from ascolim.regions import (AffineSubspace, ClosedBall, Complement,
                             CoordinatePlaneComplement, FullSpace, HalfSpace,
                             Intersection, OpenBall, Translate, Union,
                             conv2_subset, region_subset)
from ascolim.serialization import obj_to_region

F = Fraction


def test_ball_membership_exact():
    ball = OpenBall((0, 0), 1)
    assert ball.contains((F(1, 2), F(1, 2)))
    assert not ball.contains((F(3, 5), F(4, 5)))  # on the boundary
    assert ClosedBall((0, 0), 1).contains((F(3, 5), F(4, 5)))


def test_halfspace_membership_and_translate():
    hs = HalfSpace((1, 0), 2)
    assert hs.contains((3, 0)) and not hs.contains((2, 0))
    assert not hs.strict or hs.is_open
    moved = hs.translate((1, 1))
    assert moved.contains((F(7, 2), 0)) and not moved.contains((3, 0))


def test_halfspace_sparse_membership_matches_dense_dot():
    rng = random.Random(31)
    verdicts = set()
    for _ in range(300):
        dim = rng.randint(1, 8)
        normal = [F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                  if rng.random() < 0.4 else F(0) for _ in range(dim)]
        if all(c == 0 for c in normal):
            normal[rng.randrange(dim)] = F(1)
        offset = F(rng.randint(-4, 4), rng.choice([1, 2]))
        x = [F(rng.randint(-4, 4), rng.choice([1, 2, 4])) for _ in range(dim)]
        if rng.random() < 0.3:  # move x onto the boundary hyperplane
            k = next(i for i, c in enumerate(normal) if c != 0)
            x[k] += (offset - dot(normal, x)) / normal[k]
            assert dot(normal, x) == offset
        for strict in (True, False):
            got = HalfSpace(normal, offset, strict).contains(tuple(x))
            v = dot(normal, x)
            assert got is (v > offset if strict else v >= offset)
            verdicts.add((strict, got, v == offset))
    assert {(True, False, True), (False, True, True)} <= verdicts
    assert {(s, g, False) for s in (True, False)
            for g in (True, False)} <= verdicts


@pytest.mark.parametrize("normal, point", [((1, 0), (1,)),
                                           ((1,), (1, -5))])
def test_halfspace_rejects_point_of_wrong_dimension(normal, point):
    with pytest.raises(InputError):
        HalfSpace(normal, 0).contains(point)


@pytest.mark.parametrize("region, point", [
    (AffineSubspace((0, 0), [(1, 0)]), (5, 0, 7)),
    (AffineSubspace((0, 0), []), (0,)),
    (OpenBall((0, 0), 1), (0, 0, 5)),
    (ClosedBall((0, 0), 1), (0,)),
])
def test_region_rejects_point_of_wrong_dimension(region, point):
    with pytest.raises(InputError, match="point dimension"):
        region.contains(point)


def test_affine_subspace_rejects_direction_of_wrong_dimension():
    with pytest.raises(InputError, match="direction dimension 3"):
        AffineSubspace((0, 0), [(1, 0, 5)])
    obj = {"kind": "affine_subspace", "base": ["0", "0"],
           "directions": [["1", "0"], ["1", "0", "5"]]}
    with pytest.raises(InputError, match="direction dimension 3"):
        obj_to_region(obj)


def test_affine_subspace_membership():
    plane = AffineSubspace((0, 0, 1), [(1, 0, 0), (0, 1, 0)])
    assert plane.contains((5, -3, 1))
    assert not plane.contains((0, 0, 0))


def test_plane_complement_membership_and_segments():
    pc = CoordinatePlaneComplement(3, 0, 1)
    assert pc.contains((1, 0, 7))
    assert not pc.contains((0, 0, 7))
    # segment through the removed plane is caught exactly
    assert pc.contains_hull([(1, 0, 0), (2, 0, 0)]) is True
    assert pc.contains_hull([(1, 1, 0), (-1, -1, 0)]) is False
    assert pc.contains_hull([(1, 0, 0), (-1, 1, 0)]) is True


def test_plane_complement_simplex_exact():
    pc = CoordinatePlaneComplement(2, 0, 1)
    good = Simplex([(1, 0), (2, 0), (1, 1)])
    bad = Simplex([(1, 1), (-1, 1), (0, -1)])  # contains the origin
    assert pc.contains_hull(good.vertices) is True
    assert pc.contains_hull(bad.vertices) is False


def test_plane_complement_hull_against_hull_oracle():
    # conv(points) misses the plane {x_i = x_j = 0} iff the origin is
    # outside the hull of the (i, j) projection
    rng = random.Random(19)
    verdicts = set()
    for _ in range(300):
        dim = rng.randint(2, 5)
        i, j = rng.sample(range(dim), 2)
        pc = CoordinatePlaneComplement(dim, i, j)
        points = [tuple(F(rng.randint(-3, 3), rng.choice([1, 2]))
                        for _ in range(dim))
                  for _ in range(rng.randint(1, 5))]
        projected = FinitePointSet([(p[i], p[j]) for p in points])
        got = pc.contains_hull(points)
        assert got is (not hull_contains(projected, (0, 0)))
        verdicts.add(got)
    assert verdicts == {True, False}


def _solves(monkeypatch):
    """Count ``linalg.solve_nonneg`` calls made through ``regions``."""
    calls = []
    original = linalg.solve_nonneg
    monkeypatch.setattr(linalg, "solve_nonneg",
                        lambda *args: calls.append(1) or original(*args))
    return calls


def test_plane_complement_hull_with_a_point_on_the_plane(monkeypatch):
    # a vertex on the plane has y.q = 0 for every y, so the strict
    # separating-direction test never passes it and the walk says False
    solves = _solves(monkeypatch)
    pc = CoordinatePlaneComplement(3, 0, 1)
    for points in ([(1, 0, 5), (0, 0, 3)],
                   [(2, 1, 0), (0, 0, 0), (1, 3, 1)],
                   [(0, 0, 1)]):
        assert pc.contains_hull(points) is False
    assert len(solves) == 3


def test_plane_complement_hull_falls_back_when_the_sum_fails(monkeypatch):
    # the segment (10, 1)-(-1, 1) stays at height 1, but y = (9, 2) has
    # y.(-1, 1) = -7: the feasibility walk decides it
    solves = _solves(monkeypatch)
    pc = CoordinatePlaneComplement(2, 0, 1)
    assert pc.contains_hull([(10, 1), (-1, 1)]) is True
    assert len(solves) == 1
    assert pc.contains_hull([(F(10, 3), F(1, 3)), (F(1, 2), 1)]) is True
    assert len(solves) == 1  # y = (23/6, 4/3) separates: no walk


def test_plane_complement_hull_matches_the_feasibility_reference(
        monkeypatch):
    # on seeded sets every verdict equals solve_nonneg's alone, whichever
    # of the direction test and the walk decides it
    solves = _solves(monkeypatch)
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        dim = rng.randint(2, 4)
        i, j = rng.sample(range(dim), 2)
        pc = CoordinatePlaneComplement(dim, i, j)
        points = [tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                        for _ in range(dim))
                  for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.1:
            p = list(points[0])
            p[i] = p[j] = F(0)
            points[0] = tuple(p)
        before = len(solves)
        got = pc.contains_hull(points)
        walked = len(solves) > before
        rows = [[p[i] for p in points], [p[j] for p in points],
                [F(1)] * len(points)]
        assert got is (linalg.solve_nonneg(rows, [F(0), F(0), F(1)]) is None)
        seen.add((got, walked))
    assert seen == {(True, False), (True, True), (False, True)}


def test_intersection_union_complement():
    a = OpenBall((0, 0), 2)
    b = HalfSpace((1, 0), 0)
    both = Intersection([a, b])
    assert both.contains((1, 0)) and not both.contains((-1, 0))
    assert both.is_convex and both.is_open
    either = Union([a, b])
    assert either.contains((-1, 0)) and either.contains((5, 0))
    comp = Complement(a)
    assert comp.contains((5, 5)) and not comp.contains((0, 0))


def test_region_subset_ball_rules():
    assert region_subset(OpenBall((0, 0), 1), OpenBall((0, 0), 1)) is True
    assert region_subset(OpenBall((1, 0), 1), OpenBall((0, 0), 2)) is True
    assert region_subset(OpenBall((1, 0), 1), OpenBall((0, 0), F(3, 2))) \
        is False
    assert region_subset(ClosedBall((0, 0), 1), OpenBall((0, 0), 1)) is False
    assert region_subset(OpenBall((0, 0), 1), FullSpace(2)) is True


def test_region_subset_halfspace_and_plane():
    ball = OpenBall((3, 0), 1)
    assert region_subset(ball, HalfSpace((1, 0), 2)) is True
    assert region_subset(ball, HalfSpace((1, 0), F(5, 2))) is False
    pc = CoordinatePlaneComplement(2, 0, 1)
    assert region_subset(OpenBall((3, 0), 3), pc) is True
    assert region_subset(OpenBall((3, 0), 4), pc) is False
    assert region_subset(HalfSpace((1, 0), 1), HalfSpace((2, 0), 1)) is True
    assert region_subset(HalfSpace((1, 0), 0), HalfSpace((1, 0), 1)) is False
    # a shared boundary: only a closed inner in an open outer fails
    # ((0, 0) lies in the first and not in the second), at any scale
    for inner, outer in ((((1, 0), 0), ((1, 0), 0)),
                         (((2, 0), 0), ((1, 0), 0)),
                         (((2, 4), 2), ((1, 2), 1))):
        for strict_in in (True, False):
            for strict_out in (True, False):
                got = region_subset(HalfSpace(*inner, strict=strict_in),
                                    HalfSpace(*outer, strict=strict_out))
                assert got is (strict_in or not strict_out), (
                    inner, outer, strict_in, strict_out)


def test_region_subset_through_compounds():
    inner = OpenBall((0, 0), 1)
    outer = Intersection([OpenBall((0, 0), 2), HalfSpace((1, 0), -3)])
    assert region_subset(inner, outer) is True
    assert region_subset(Union([inner, OpenBall((1, 0), F(1, 2))]),
                         OpenBall((0, 0), 2)) is True
    moved = Translate(OpenBall((0, 0), 1), (5, 0))
    assert region_subset(moved, OpenBall((5, 0), 1)) is True


def test_conv2_subset_for_convex_regions():
    assert conv2_subset(OpenBall((0, 0), 2), OpenBall((0, 0), 3)) is True
    assert conv2_subset(OpenBall((0, 0), 3), OpenBall((0, 0), 2)) is False
    pc = CoordinatePlaneComplement(2, 0, 1)
    assert conv2_subset(pc, FullSpace(2)) is None  # not convex: unknown


def test_zero_radius_rejected():
    with pytest.raises(InputError):
        OpenBall((0, 0), 0)


@pytest.mark.parametrize("region, point", [
    (CoordinatePlaneComplement(2, 0, 1), (F(0), F(0), F(5))),
    (CoordinatePlaneComplement(3, 0, 1), (F(0), F(0))),
    (CoordinatePlaneComplement(2, 0, 1), (F(1),)),
    (FullSpace(2), (F(1), F(2), F(3))),
])
def test_contains_rejects_a_point_of_another_dimension(region, point):
    with pytest.raises(InputError, match="point dimension"):
        region.contains(point)
