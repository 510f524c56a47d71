"""The exact integer kernels against independent computations."""

import random
from fractions import Fraction

import pytest

from ascolim._kernels import (matvec_q, max_pairwise_sqdist_q,
                              winding_crossings_q)


def test_matvec_matches_fraction_arithmetic():
    rng = random.Random(1)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-10_000, 10_000) for _ in range(cols)]
               for _ in range(rows)]
        vec = [rng.randint(-10_000, 10_000) for _ in range(cols)]
        nums, den = matvec_q(mat, 7, vec, 3)
        want = [sum(Fraction(m, 7) * Fraction(v, 3)
                    for m, v in zip(row, vec)) for row in mat]
        assert [Fraction(n, den) for n in nums] == want


def test_matvec_exact_past_int64():
    big = 2 ** 40
    assert matvec_q([[big, big]], 1, [big, big], 1) == ((2 ** 81,), 1)


def test_sqdist_exact_past_int64():
    assert max_pairwise_sqdist_q([(0, 0), (2 ** 33, 2 ** 33)]) == 2 ** 67


def test_winding_square_loop():
    # angles along (1,1) -> (-1,1) -> (-1,-1) -> (1,-1) increase: ccw, +1
    xs = [1, -1, -1, 1]
    ys = [1, 1, -1, -1]
    assert winding_crossings_q(xs, ys, 2, 1) == 1
    assert winding_crossings_q(list(reversed(xs)), list(reversed(ys)),
                               2, 1) == -1


def test_winding_vertex_on_ray_detected():
    with pytest.raises(ValueError):
        winding_crossings_q([1, -1, 0], [0, 1, -1], 1, 0)
