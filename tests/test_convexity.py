"""conv_n / conv_2 membership oracles and their calculus."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascolim import linalg
from ascolim.convexity import (FinitePointSet, conv2_pair_contains,
                               conv2_with_convn_contains, conv_n_contains,
                               hull_contains)
from ascolim.errors import CertificateError, InputError
from ascolim.geometry import combine, dot, vsub

F = Fraction

SQUARE = FinitePointSet([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_conv1_is_set_membership():
    yes, cert = conv_n_contains(SQUARE, 1, (1, 0))
    assert yes and cert.coefficients == (1,)
    assert not conv_n_contains(SQUARE, 1, (F(1, 2), F(1, 2)))[0]


def test_square_center_needs_only_two_points():
    yes, cert = conv_n_contains(SQUARE, 2, (F(1, 2), F(1, 2)))
    assert yes
    assert cert.verify((F(1, 2), F(1, 2)))


def test_half_quarter_point_two_vs_three():
    p = (F(1, 2), F(1, 4))
    # independent oracle for n=2: check the six segments by hand
    on_some_segment = False
    for a, b in combinations(SQUARE.points, 2):
        # p = t*a + (1-t)*b for t in [0,1]?
        for d in range(2):
            if a[d] != b[d]:
                t = (p[d] - b[d]) / (a[d] - b[d])
                break
        if 0 <= t <= 1 and all(t * a[d] + (1 - t) * b[d] == p[d]
                               for d in range(2)):
            on_some_segment = True
    assert not on_some_segment
    assert not conv_n_contains(SQUARE, 2, p)[0]
    yes, cert = conv_n_contains(SQUARE, 3, p)
    assert yes and cert.verify(p)
    # frozen combination: 1/2*(0,0) + 1/4*(1,0) + 1/4*(1,1)
    support = {(tuple(pt), c) for pt, c in
               zip(cert.points, cert.coefficients) if c != 0}
    assert support == {((F(0), F(0)), F(1, 2)),
                       ((F(1), F(0)), F(1, 4)),
                       ((F(1), F(1)), F(1, 4))}


def test_n_zero_is_input_error():
    with pytest.raises(InputError):
        conv_n_contains(SQUARE, 0, (0, 0))


@pytest.mark.parametrize("n", [2.5, F(3, 2), "2", True])
@pytest.mark.parametrize("oracle", [conv_n_contains,
                                    conv2_with_convn_contains])
def test_n_must_be_an_int(oracle, n):
    square = FinitePointSet([(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(InputError):
        oracle(square, n, (1, 1))


def test_unverified_solutions_raise(monkeypatch):
    # a wrong feasibility answer surfaces as an error, also under -O
    def first_column(mat, rhs, max_support=None, require=()):
        return [F(1)] + [F(0)] * (len(mat[0]) - 1)

    monkeypatch.setattr(linalg, "solve_nonneg", first_column)
    with pytest.raises(CertificateError):
        conv_n_contains(SQUARE, 2, (F(1, 2), F(1, 2)))

    def ray_only(mat, rhs, max_support=None, require=()):
        if not require:
            return None
        return [F(1), F(1)] + [F(0)] * (len(mat[0]) - 2)

    monkeypatch.setattr(linalg, "solve_nonneg", ray_only)
    with pytest.raises(CertificateError):
        conv2_with_convn_contains(SQUARE, 1, (F(1, 2), F(1, 2)))


def test_conv2_pair_examples():
    x_set = FinitePointSet([(0, 0)])
    y_set = FinitePointSet([(2, 0)])
    yes, cert = conv2_pair_contains(x_set, y_set, (1, 0))
    assert yes and cert.t == F(1, 2)
    assert not conv2_pair_contains(x_set, y_set, (1, 1))[0]
    # p in X gives t = 1
    yes, cert = conv2_pair_contains(x_set, y_set, (0, 0))
    assert yes and cert.t == 1 and cert.verify((0, 0))


def test_monotonicity_in_n():
    rng = random.Random(11)
    pts = [tuple(F(rng.randint(-4, 4), 2) for _ in range(3))
           for _ in range(6)]
    ps = FinitePointSet(pts)
    for _ in range(40):
        w = [F(rng.randint(0, 5)) for _ in range(4)]
        if sum(w) == 0:
            w[0] = F(1)
        probe = combine(pts[:4], [x / sum(w) for x in w])
        for n in (1, 2, 3):
            if conv_n_contains(ps, n, probe)[0]:
                assert conv_n_contains(ps, n + 1, probe)[0]


def _random_set(rng, size, dim=3):
    return FinitePointSet([tuple(F(rng.randint(-6, 6), 3)
                                 for _ in range(dim))
                           for _ in range(size)])


def _random_probe(rng, ps, n):
    if rng.random() < 0.5:
        idx = [rng.randrange(len(ps.points)) for _ in range(n)]
        w = [F(rng.randint(0, 4)) for _ in idx]
        if sum(w) == 0:
            w[0] = F(1)
        return combine([ps.points[i] for i in idx], [x / sum(w) for x in w])
    return tuple(F(rng.randint(-8, 8), 3) for _ in range(ps.dim))


def test_convindu_membership_equivalence():
    # conv_2(X, conv_n(X)) == conv_{n+1}(X), probe point by probe point
    rng = random.Random(2026)
    for _ in range(12):
        ps = _random_set(rng, rng.randint(2, 5))
        n = rng.randint(1, 3)
        for _ in range(20):
            p = _random_probe(rng, ps, n + 1)
            lhs, witness = conv2_with_convn_contains(ps, n, p)
            rhs = conv_n_contains(ps, n + 1, p)[0]
            assert lhs == rhs
            if lhs:
                x, t, q = witness
                assert x in ps.points
                assert 0 <= t <= 1
                assert p == tuple(t * a + (1 - t) * b for a, b in zip(x, q))
                in_convn, cert = conv_n_contains(ps, n, q)
                assert in_convn and cert.verify(q)
            else:
                assert witness is None


def _reduced(rows, width):
    """The reduced row echelon form of ``rows``, in ``Fraction``s: its
    nonzero rows and their pivot columns, in step."""
    rows, done, pivots = [list(map(F, r)) for r in rows], [], []
    for c in range(width):
        p = next((r for r in rows if r[c]), None)
        if p is None:
            continue
        rows.remove(p)
        p = [v / p[c] for v in p]
        rows = [[a - r[c] * b for a, b in zip(r, p)] for r in rows]
        done = [[a - r[c] * b for a, b in zip(r, p)] for r in done] + [p]
        pivots.append(c)
    return done, pivots


def _kernel_vector(rows, width):
    """A nonzero vector orthogonal to every row, or None."""
    done, pivots = _reduced(rows, width)
    free = next((c for c in range(width) if c not in pivots), None)
    if free is None:
        return None
    vec = [F(int(c == free)) for c in range(width)]
    for row, c in zip(done, pivots):
        vec[c] = -row[free]
    return vec


def _hull_by_facets(ps, x):
    """Reference full-hull test, independent of ``linalg``: ``x`` is
    outside the hull iff it leaves the affine hull of the points, or a
    hyperplane of that hull through points of the set strictly separates
    it.  Every facet passes through ``len(basis)`` of the points."""
    pts, dim = ps.points, ps.dim
    basis = _reduced([vsub(q, pts[0]) for q in pts[1:]], dim)[0]
    if len(_reduced(basis + [vsub(x, pts[0])], dim)[0]) > len(basis):
        return False  # x leaves the affine hull
    if not basis:
        return True  # x is the one point
    for support in combinations(range(len(pts)), len(basis)):
        anchor = pts[support[0]]
        coeffs = _kernel_vector(
            [[dot(b, vsub(pts[i], anchor)) for b in basis]
             for i in support[1:]], len(basis))
        if coeffs is None:
            continue
        normal = [dot(coeffs, col) for col in zip(*basis)]
        level = dot(normal, anchor)
        side = dot(normal, x) - level
        if side and all((dot(normal, q) - level) * side <= 0 for q in pts):
            return False  # strictly separated
    return True


def test_caratheodory_saturation_against_hull_oracle():
    rng = random.Random(7)
    for _ in range(15):
        ps = _random_set(rng, rng.randint(1, 6))
        sat = len(ps.points) * (ps.dim + 1)
        for _ in range(15):
            p = _random_probe(rng, ps, 4)
            full = hull_contains(ps, p)
            assert full == _hull_by_facets(ps, p)
            assert conv_n_contains(ps, ps.dim + 1, p)[0] == full
            assert conv_n_contains(ps, sat, p)[0] == full


def test_hull_oracle_low_dimensional_sets():
    seg = FinitePointSet([(0, 0), (2, 2)])
    assert hull_contains(seg, (1, 1))
    assert not hull_contains(seg, (1, 0))
    assert not hull_contains(seg, (3, 3))
    single = FinitePointSet([(5, 5)])
    assert hull_contains(single, (5, 5))
    assert not hull_contains(single, (5, 6))
    for probe in [(1, 1, 5), (1,)]:  # probes of another dimension
        with pytest.raises(InputError):
            hull_contains(seg, probe)


HALVES = st.integers(-4, 4).map(lambda v: F(v, 2))


@st.composite
def flat_sets(draw):
    """A point set with repeated points, often in an affine hull of lower
    dimension than its ambient space, and a probe: a convex combination
    of its points, a point of its affine hull or any point."""
    dim = draw(st.integers(1, 3))
    rank = draw(st.integers(0, dim))
    base = draw(st.lists(HALVES, min_size=dim, max_size=dim))
    dirs = draw(st.lists(st.lists(HALVES, min_size=dim, max_size=dim),
                         min_size=rank, max_size=rank))

    def in_hull(coeffs):
        return tuple(b + sum(c * v[d] for c, v in zip(coeffs, dirs))
                     for d, b in enumerate(base))

    coeffs = st.lists(HALVES, min_size=rank, max_size=rank)
    pts = [in_hull(draw(coeffs)) for _ in range(draw(st.integers(1, 5)))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    kind = draw(st.sampled_from(["member", "affine", "any"]))
    if kind == "member":
        w = draw(st.lists(st.integers(0, 3), min_size=len(pts),
                          max_size=len(pts)).filter(any))
        probe = combine(pts, [F(v, sum(w)) for v in w])
    elif kind == "affine":
        probe = in_hull(draw(coeffs))
    else:
        probe = tuple(draw(st.lists(HALVES, min_size=dim, max_size=dim)))
    return FinitePointSet(pts), probe


@settings(derandomize=True, database=None, max_examples=150,
          deadline=None)
@given(flat_sets())
def test_hull_oracle_is_conv_of_dim_plus_one(case):
    ps, probe = case
    full = hull_contains(ps, probe)
    assert full == _hull_by_facets(ps, probe)
    assert full == conv_n_contains(ps, ps.dim + 1, probe)[0]


def test_hull_contains_makes_one_farkas_call(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("farkas", "solve_nonneg", "fraction_free"):
        monkeypatch.setattr(linalg, name, counting(name))
    flat = FinitePointSet([(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1)])
    for probe, inside in [((1, 1, 1), True), ((3, 1, 1), False),
                          ((1, 1, 2), False)]:  # the last is off the plane
        calls.clear()
        assert hull_contains(flat, probe) == inside
        assert calls == ["farkas"]


@settings(derandomize=True, database=None, max_examples=100,
          deadline=None)
@given(flat_sets())
def test_conv_n_is_monotone_in_n(case):
    ps, probe = case
    verdicts = [conv_n_contains(ps, n, probe)[0]
                for n in range(1, len(ps) + 2)]
    assert verdicts == sorted(verdicts)


def _questions(seed):
    """Questions like the benchmark's: sets of 2-8 points in R^3 with
    ``n`` from 1 to ``dim + 1`` and a probe that is a combination of
    ``n + 1`` set points or a random point, which is mostly outside the
    hull."""
    rng = random.Random(seed)
    for size in (2, 4, 6, 8):
        for n in range(1, 5):
            for _ in range(4):
                ps = _random_set(rng, size)
                yield ps, n, _random_probe(rng, ps, n + 1)


def _answers(ps, n, probe):
    return (conv2_with_convn_contains(ps, n, probe),
            conv_n_contains(ps, n, probe), conv_n_contains(ps, n + 1, probe))


def test_probes_outside_the_hull_make_no_support_search(monkeypatch):
    calls = []
    solve = linalg.solve_nonneg

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linalg, "solve_nonneg", counting)
    outside = 0
    for ps, n, probe in _questions(1506):
        if hull_contains(ps, probe):
            continue
        outside += 1
        assert _answers(ps, n, probe) == ((False, None), (False, None),
                                          (False, None))
        assert calls == []
    assert outside >= 20


def test_farkas_gate_keeps_every_answer(monkeypatch):
    # without the gate every question goes to the support search; the
    # verdicts, certificates and witnesses are the same
    questions = list(_questions(1507))
    gated = [_answers(*q) for q in questions]
    monkeypatch.setattr(linalg, "farkas", lambda mat, rhs: None)
    assert [_answers(*q) for q in questions] == gated
    verdicts = {(q[1], a[0][0]) for q, a in zip(questions, gated)}
    assert verdicts == {(n, v) for n in range(1, 5) for v in (False, True)}
