"""Cone decompositions and the boundary-filling operator."""

import random
from fractions import Fraction

import pytest

from ascolim.errors import InputError
from ascolim.filling import (bake_filled, boundary_complex,
                             cone_decomposition, default_anchor, fill)
from ascolim.geometry import Simplex, combine
from ascolim.plmaps import FuncMap, PLMap

F = Fraction

TRIANGLE = Simplex([(0, 0), (1, 0), (0, 1)])


def test_cone_tip_at_barycenter():
    cd = cone_decomposition(TRIANGLE, TRIANGLE.barycenter())
    assert cd.t == 1 and cd.indices == ()


def test_cone_at_vertex():
    cd = cone_decomposition(TRIANGLE, (0, 0))
    assert cd.t == 0
    assert cd.indices == (0,) and cd.coefficients == (1,)


def test_cone_frozen_example():
    # s = (1/4, 1/2, 1/4): t = 3*(1/4) = 3/4, residual (0, 1/4, 0)
    cd = cone_decomposition(TRIANGLE, (F(1, 2), F(1, 4)))
    assert cd.t == F(3, 4)
    assert cd.indices == (1,) and cd.coefficients == (F(1, 4),)
    assert cd.reconstruct(TRIANGLE) == (F(1, 2), F(1, 4))


def test_cone_rejects_outside_point():
    with pytest.raises(InputError):
        cone_decomposition(TRIANGLE, (2, 2))


def _pl_boundary(simplex, rng, target_dim=3):
    bc = boundary_complex(simplex)
    values = {tuple(v): tuple(F(rng.randint(-12, 12), 4)
                              for _ in range(target_dim))
              for v in bc.vertices()}
    return PLMap(bc, values), bc


def _normalized(w):
    if sum(w) == 0:
        w[0] = F(1)
    tot = sum(w)
    return [x / tot for x in w]


def _random_boundary_point(simplex, rng):
    facet = simplex.facets()[rng.randrange(simplex.rank)]
    w = [F(rng.randint(0, 6)) for _ in range(facet.rank)]
    return combine(facet.vertices, _normalized(w))


def _random_inner_point(simplex, rng):
    w = [F(rng.randint(0, 6)) for _ in range(simplex.rank)]
    return combine(simplex.vertices, _normalized(w))


def test_constant_maps_fill_to_constants():
    rng = random.Random(3)
    y = (F(2), F(-1), F(5, 3))
    phi = fill(TRIANGLE, default_anchor(TRIANGLE), FuncMap(lambda _: y))
    for _ in range(100):
        assert phi(_random_inner_point(TRIANGLE, rng)) == y


def test_interval_midpoint_hits_anchor_value():
    seg = Simplex([(0,), (1,)])
    p, q = (F(7),), (F(11),)
    gamma = FuncMap(lambda x: p if x == (0,) else q)
    phi = fill(seg, (0,), gamma)
    # the midpoint is the barycenter: t = 1 branch
    assert phi((F(1, 2),)) == p
    assert phi((0,)) == p and phi((1,)) == q


def test_linearity_exact():
    rng = random.Random(8)
    g1, _ = _pl_boundary(TRIANGLE, rng)
    g2, _ = _pl_boundary(TRIANGLE, rng)
    combo = FuncMap(lambda x: tuple(2 * a - b for a, b in
                                    zip(g1(x), g2(x))))
    anchor = default_anchor(TRIANGLE)
    f1 = fill(TRIANGLE, anchor, g1)
    f2 = fill(TRIANGLE, anchor, g2)
    fc = fill(TRIANGLE, anchor, combo)
    for _ in range(100):
        x = _random_inner_point(TRIANGLE, rng)
        assert fc(x) == tuple(2 * a - b for a, b in zip(f1(x), f2(x)))


def test_boundary_agreement_random_simplices():
    rng = random.Random(17)
    for _ in range(30):
        rank = rng.randint(2, 4)
        while True:
            try:
                sx = Simplex([tuple(F(rng.randint(-8, 8), 2)
                                    for _ in range(6))
                              for _ in range(rank)])
                break
            except InputError:
                continue
        gamma, _ = _pl_boundary(sx, rng)
        phi = fill(sx, default_anchor(sx), gamma)
        for _ in range(20):
            x = _random_boundary_point(sx, rng)
            assert phi(x) == tuple(gamma(x))


def test_anchor_off_boundary_rejected():
    with pytest.raises(InputError):
        fill(TRIANGLE, TRIANGLE.barycenter(), FuncMap(lambda x: x))


def test_rank_one_rejected():
    with pytest.raises(InputError):
        fill(Simplex([(0,)]), (0,), FuncMap(lambda x: x))


def test_evaluation_outside_rejected():
    phi = fill(TRIANGLE, (0, 0), FuncMap(lambda x: x))
    with pytest.raises(InputError):
        phi((5, 5))


def test_well_definedness_at_decomposition_ties():
    rng = random.Random(4)
    gamma, _ = _pl_boundary(TRIANGLE, rng)
    anchor = default_anchor(TRIANGLE)
    phi = fill(TRIANGLE, anchor, gamma)
    # two minimal coordinates: s = (1/4, 1/4, 1/2)
    x = combine(TRIANGLE.vertices, (F(1, 4), F(1, 4), F(1, 2)))
    cd = cone_decomposition(TRIANGLE, x)
    assert cd.t == F(3, 4) and cd.indices == (2,)
    got = phi(x)
    # recompute with the admissible larger proper subsets J' adding a
    # zero-residual index; the exit point and value must not move
    for extra in (0, 1):
        idx = tuple(sorted(cd.indices + (extra,)))
        coeff = [F(1, 4) if i == 2 else F(0) for i in idx]
        scale = 1 / (1 - cd.t)
        y = combine([TRIANGLE.vertices[i] for i in idx],
                    [c * scale for c in coeff])
        val = tuple(cd.t * a + (1 - cd.t) * b
                    for a, b in zip(gamma(anchor), gamma(y)))
        assert val == got


def test_values_carry_conv2_certificates():
    rng = random.Random(12)
    gamma, _ = _pl_boundary(TRIANGLE, rng)
    phi = fill(TRIANGLE, default_anchor(TRIANGLE), gamma)
    for _ in range(50):
        x = _random_inner_point(TRIANGLE, rng)
        val, (t, anchor_val, y, gy) = phi.value_with_certificate(x)
        assert 0 <= t <= 1
        if t == 1:
            assert val == anchor_val
        else:
            assert val == tuple(t * a + (1 - t) * b
                                for a, b in zip(anchor_val, gy))
            assert gy == tuple(gamma(y))


def test_bake_produces_exact_pl_surrogate():
    rng = random.Random(21)
    gamma, _ = _pl_boundary(TRIANGLE, rng)
    phi = fill(TRIANGLE, default_anchor(TRIANGLE), gamma)
    baked, tree = bake_filled(phi, refine=2)
    for v in tree.final.vertices():
        assert baked(v) == phi(v)
