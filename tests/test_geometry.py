"""Geometry substrate: barycentric coordinates and diameters.

Derived expectations are computed by independent means inside the tests
(hand-solved affine systems, brute-force pairwise scans) and frozen.
"""

import random
from fractions import Fraction

import pytest

from ascolim.errors import InputError
from ascolim.filtered_spaces import CompactSample
from ascolim.geometry import (Outside, Simplex, as_point, combine,
                              diameter_sq, sqdist)
from ascolim.plmaps import PLMap
from ascolim.rats import RAT, to_rat
from ascolim.regions import HalfSpace, OpenBall
from ascolim.simplicial import SimplicialComplex

F = Fraction


def test_vertex_case():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    assert tri.barycentric((1, 0)) == (0, 1, 0)


def test_barycenter_symmetry():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    b = (F(1, 3), F(1, 3))
    assert tri.barycentric(b) == (F(1, 3), F(1, 3), F(1, 3))


def test_outside_reports_violating_coefficient():
    # hand-solved 1-D affine system: s1*0 + s2*2 = 3, s1 + s2 = 1
    # => s2 = 3/2, s1 = -1/2
    seg = Simplex([(0, 0), (2, 0)])
    out = seg.barycentric((3, 0))
    assert isinstance(out, Outside)
    assert out.reason == "negative_coefficient"
    assert out.index == 0 and out.value == F(-1, 2)


def test_off_affine_hull():
    seg = Simplex([(0, 0), (2, 0)])
    out = seg.barycentric((1, 1))
    assert isinstance(out, Outside)
    assert out.reason == "off_affine_hull"


def test_dimension_mismatch_is_input_error():
    seg = Simplex([(0, 0), (2, 0)])
    with pytest.raises(InputError):
        seg.barycentric((1, 0, 0))


def test_degenerate_vertices_rejected():
    with pytest.raises(InputError):
        Simplex([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InputError):
        Simplex([(0, 0), (0, 0)])


def test_diameter_triangle_is_sqrt2():
    tri = Simplex([(0, 0), (1, 0), (0, 1)])
    assert diameter_sq(tri) == 2


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
        got = sx.barycentric(x)
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


@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("build", [
    lambda b: as_point((0, b)),
    lambda b: Simplex([(0, 0), (1, 0), (0, b)]),
    lambda b: PLMap(SimplicialComplex([Simplex([(0,), (1,)])]),
                    {(0,): (0,), (1,): (b,)}),
    lambda b: OpenBall((0, 0), b),
    lambda b: HalfSpace((1, 0), b),
    lambda b: CompactSample(((0, 0), (b, 0))),
], ids=["as_point", "Simplex", "PLMap", "OpenBall", "HalfSpace",
        "CompactSample"])
def test_inexact_scalar_raises(build, bad):
    # exact rationals are the only scalars; the error names the "p/q" form
    with pytest.raises(InputError, match="p/q"):
        build(bad)


def test_to_rat_keeps_fractions_as_given():
    assert RAT is Fraction
    half = F(1, 2)
    assert to_rat(half) is half
    assert to_rat(-3) == -3 and type(to_rat(-3)) is Fraction


def test_sqdist_exact():
    assert sqdist((F(1, 2), 0), (0, F(1, 2))) == F(1, 2)


def test_contains_memo_is_made_at_the_first_call():
    # most cells of a subdivision never answer a membership query, so a
    # simplex holds no memo until it does; the memo keeps each verdict
    tri = Simplex([(0, 0), (2, 0), (0, 2)])
    cell = Simplex.trusted(tri.vertices)
    assert tri._contains_cache is None and cell._contains_cache is None
    points = [(F(1, 2), F(1, 2)), (F(2), F(1)), (F(0), F(2)), (F(1, 2), 3)]
    for x in points + points:
        assert cell.contains(x) == (not isinstance(tri.barycentric(x),
                                                   Outside))
    assert cell._contains_cache == {(F(1, 2), F(1, 2)): True,
                                    (F(2), F(1)): False,
                                    (F(0), F(2)): True,
                                    (F(1, 2), F(3)): False}
