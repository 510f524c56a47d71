"""Geometry substrate: barycentric coordinates and diameters.

Derived expectations are computed by independent means inside the tests
(hand-solved affine systems, brute-force pairwise scans) and frozen.
"""

import math
import random
from fractions import Fraction

import pytest

from ascolim.errors import InputError
from ascolim.geometry import (Outside, Simplex, barycentric_coordinates,
                              combine, diameter, diameter_sq, sqdist)

F = Fraction


def test_vertex_case():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    assert barycentric_coordinates(tri, (1, 0)) == (0, 1, 0)


def test_barycenter_symmetry():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    b = (F(1, 3), F(1, 3))
    assert barycentric_coordinates(tri, b) == (F(1, 3), F(1, 3), F(1, 3))


def test_outside_reports_violating_coefficient():
    # hand-solved 1-D affine system: s1*0 + s2*2 = 3, s1 + s2 = 1
    # => s2 = 3/2, s1 = -1/2
    seg = Simplex([(0, 0), (2, 0)])
    out = barycentric_coordinates(seg, (3, 0))
    assert isinstance(out, Outside)
    assert out.reason == "negative_coefficient"
    assert out.index == 0 and out.value == F(-1, 2)


def test_off_affine_hull():
    seg = Simplex([(0, 0), (2, 0)])
    out = barycentric_coordinates(seg, (1, 1))
    assert isinstance(out, Outside)
    assert out.reason == "off_affine_hull"


def test_dimension_mismatch_is_input_error():
    seg = Simplex([(0, 0), (2, 0)])
    with pytest.raises(InputError):
        barycentric_coordinates(seg, (1, 0, 0))


def test_degenerate_vertices_rejected():
    with pytest.raises(InputError):
        Simplex([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InputError):
        Simplex([(0, 0), (0, 0)])


def test_diameter_unit_interval():
    assert diameter(Simplex([(0,), (1,)])) == 1.0


def test_diameter_triangle_is_sqrt2():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    assert diameter_sq(tri) == 2
    assert diameter(tri) == pytest.approx(math.sqrt(2))


def test_diameter_single_point():
    assert diameter(Simplex([(5, 5)])) == 0.0


def test_diameter_max_norm():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    assert diameter(tri, norm="max") == 1.0


def _random_rational(rng, den=8, span=4):
    return F(rng.randint(-span * den, span * den), den)


def _random_simplex(rng, dim=6, max_rank=5):
    # rejection-sample affinely independent rational vertex sets
    while True:
        rank = rng.randint(1, max_rank)
        pts = [tuple(_random_rational(rng) for _ in range(dim))
               for _ in range(rank)]
        try:
            return Simplex(pts)
        except InputError:
            continue


def test_reconstruction_property_1000_random_combinations():
    rng = random.Random(20260809)
    for _ in range(1000):
        sx = _random_simplex(rng)
        weights = [F(rng.randint(0, 10)) for _ in range(sx.rank)]
        total = sum(weights)
        if total == 0:
            weights[0] = F(1)
            total = F(1)
        coeffs = [w / total for w in weights]
        x = combine(sx.vertices, coeffs)
        got = barycentric_coordinates(sx, x)
        assert not isinstance(got, Outside)
        assert combine(sx.vertices, got) == x
        assert sum(got) == 1


def test_diameter_invariances():
    rng = random.Random(7)
    sx = _random_simplex(rng, dim=4, max_rank=4)
    base = diameter_sq(sx)
    perm = list(sx.vertices)
    rng.shuffle(perm)
    assert diameter_sq(Simplex(perm)) == base
    for _ in range(100):
        shift = tuple(_random_rational(rng) for _ in range(4))
        moved = Simplex([tuple(a + b for a, b in zip(v, shift))
                         for v in sx.vertices])
        assert diameter_sq(moved) == base


def test_float_backend_tolerates_drift():
    tri = Simplex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert not tri.exact
    got = barycentric_coordinates(tri, (0.25, 0.25 + 1e-12))
    assert not isinstance(got, Outside)
    assert got[1] == pytest.approx(0.25, abs=1e-9)
    out = barycentric_coordinates(tri, (2.0, 2.0))
    assert isinstance(out, Outside)


def test_sqdist_exact():
    assert sqdist((F(1, 2), 0), (0, F(1, 2))) == F(1, 2)


@pytest.mark.parametrize("exact_first", [True, False])
def test_contains_memo_keeps_float_and_exact_verdicts_apart(exact_first):
    # 2^-40 outside the triangle: exactly outside, inside within TAU; the
    # two points hash alike, so the order of the queries must not matter
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    near = (F(-1, 2 ** 40), F(1, 2))
    twin = (-2.0 ** -40, 0.5)
    assert twin == near and hash(twin) == hash(near)
    queries = [near, twin] if exact_first else [twin, near]
    assert [tri.contains(q) for q in queries] \
        == [q is twin for q in queries]
    assert tri.contains(near) is False and tri.contains(twin) is True
