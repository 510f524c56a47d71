"""PL maps: exact evaluation, shared faces and the memo of point values."""

import random
from fractions import Fraction

import pytest

from ascolim.geometry import Simplex
from ascolim.plmaps import PLMap
from ascolim.simplicial import SimplicialComplex, barycentric_subdivide

F = Fraction


def _random_map(rng, cx, target_dim=3):
    return {tuple(v): tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(target_dim))
            for v in cx.vertices()}


def _face_points(rng, cx, count):
    """``(point, weights, face vertices)`` on faces of ``cx``'s tops."""
    tops = cx.tops()
    out = []
    for _ in range(count):
        cell = tops[rng.randrange(len(tops))]
        k = rng.randint(2, cell.rank)
        verts = rng.sample(cell.vertices, k)
        w = [F(rng.randint(1, 5)) for _ in range(k)]
        total = sum(w)
        w = [wi / total for wi in w]
        x = tuple(sum(wi * v[d] for wi, v in zip(w, verts))
                  for d in range(cx.dim))
        out.append((x, w, verts))
    return out


def test_value_on_shared_faces_is_the_face_combination():
    rng = random.Random(37)
    cx = barycentric_subdivide(SimplicialComplex(
        [Simplex([(0, 0), (2, 0), (0, 2)]), Simplex([(2, 0), (0, 2), (2, 2)])]))
    values = _random_map(rng, cx)
    memoized = PLMap(cx, values)
    shared = 0
    for x, w, verts in _face_points(rng, cx, 120):
        want = tuple(sum(wi * values[v][d] for wi, v in zip(w, verts))
                     for d in range(3))
        carriers = [t for t in cx.tops() if t.contains(x)]
        shared += len(carriers) > 1
        # every top through the face gives the same value
        for top in carriers:
            assert memoized.eval_located(top, top.barycentric(x)) == want
        assert memoized(x) == want
        assert memoized(x) == want  # read back from the memo
        assert PLMap(cx, values)(x) == want
    assert shared > 20


def test_values_in_vertex_order_give_the_same_map():
    rng = random.Random(5)
    cx = barycentric_subdivide(SimplicialComplex(
        [Simplex([(0, 0), (2, 0), (0, 2)])]))
    values = _random_map(rng, cx)
    column = [values[v] for v in cx.vertices()]
    assert PLMap(cx, column).values == PLMap(cx, values).values
    with pytest.raises(ValueError):
        PLMap(cx, column[:-1])
