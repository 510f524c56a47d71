"""Exact elimination and nonnegative feasibility against a Gauss-Jordan
reference over ``Fraction``s."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascolim import linalg
from ascolim.errors import CertificateError

F = Fraction


def _gauss_jordan(mat):
    """Reference reduced row-echelon form: Gauss-Jordan over ``Fraction``
    entries.  Returns ``(reduced, pivot_cols)``."""
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _reference_rank(mat):
    return len(_gauss_jordan(mat)[1]) if mat else 0


def _reference_linear_solve(mat, rhs):
    """``(x, free_cols)`` with ``mat @ x = rhs`` and the free variables
    zero, or ``None``, by ``_gauss_jordan``."""
    ncols = len(mat[0]) if mat else 0
    if not mat:
        return ([], []) if all(v == 0 for v in rhs) else None
    red, pivots = _gauss_jordan([list(row) + [b] for row, b in zip(mat,
                                                                   rhs)])
    if ncols in pivots:
        return None
    sol = [F(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = red[i][ncols]
    return sol, [c for c in range(ncols) if c not in pivots]


def _reference_invert(mat):
    """The inverse by ``_gauss_jordan``, or ``None`` if singular."""
    n = len(mat)
    red, pivots = _gauss_jordan([list(row) + [F(int(i == j))
                                              for j in range(n)]
                                 for i, row in enumerate(mat)])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def _elimination_matrix(rng):
    """Up to 5 x 5 small rationals, often with a zero or a dependent row."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    mat = [[F(rng.randint(-4, 4), rng.choice([1, 2, 3, 7]))
            for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.2:
        mat[rng.randrange(nrows)] = [F(0)] * ncols
    if nrows > 2 and rng.random() < 0.3:
        mat[-1] = [2 * a - b / 3 for a, b in zip(mat[0], mat[1])]
    return mat


def test_elimination_matches_gauss_jordan_reference():
    rng = random.Random(2301)
    cases = [[], [[]], [[F(0), F(0)], [F(0), F(0)]],
             [[F(1), F(2)], [F(2), F(4)]]]
    cases += [_elimination_matrix(rng) for _ in range(800)]
    ranks, singular = set(), 0
    for mat in cases:
        assert linalg.row_reduce(mat) == _gauss_jordan(mat), mat
        assert linalg.rank(mat) == _reference_rank(mat), mat
        ranks.add((len(mat), linalg.rank(mat)))
        rhs = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in mat]
        assert linalg.solve(mat, rhs) == _reference_linear_solve(mat, rhs)
        if mat and len(mat) == len(mat[0]):
            expected = _reference_invert(mat)
            if expected is None:
                singular += 1
                with pytest.raises(ValueError):
                    linalg.invert(mat)
            else:
                assert linalg.invert(mat) == expected, mat
    assert linalg.invert([]) == [] == _reference_invert([])
    assert {(0, 0), (2, 0), (2, 1), (3, 2), (5, 5)} <= ranks
    assert singular >= 10


def _reference_feasible(mat, rhs, require=()):
    """Some independent column support containing ``require`` carries
    ``x >= 0``.  Supports of more columns than rows are dependent, so
    they are not tried."""
    ncols = len(mat[0]) if mat else 0
    rest = [j for j in range(ncols) if j not in require]
    for k in range(min(len(rest), len(mat) - len(require)) + 1):
        for extra in combinations(rest, k):
            support = tuple(require) + extra
            res = _reference_linear_solve(
                [[row[j] for j in support] for row in mat], rhs)
            if res is not None and not res[1] and all(v >= 0
                                                      for v in res[0]):
                return True
    return False


def _random_system(rng):
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
    mat = [[F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(ncols)]
           for _ in range(nrows)]
    if ncols > 2 and rng.random() < 0.3:  # a dependent column
        for row in mat:
            row[-1] = 2 * row[0] - row[1]
    if rng.random() < 0.4:  # a right-hand side with a nonnegative solution
        x = [F(rng.randint(0, 3)) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in mat]
    else:
        rhs = [F(rng.randint(-3, 3), rng.choice([1, 5])) for _ in range(nrows)]
    return mat, rhs


def test_solve_nonneg_matches_reference_enumeration():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(600):
        mat, rhs = _random_system(rng)
        require = (0,) if rng.random() < 0.3 else ()
        sol = linalg.solve_nonneg(mat, rhs, require=require)
        assert (sol is not None) == _reference_feasible(mat, rhs, require)
        verdicts.add(sol is not None)
        if sol is None:
            continue
        assert all(sum(a * x for a, x in zip(row, sol)) == b
                   for row, b in zip(mat, rhs))
        assert all(v >= 0 for v in sol)
        support = [j for j, v in enumerate(sol) if v]
        assert _reference_rank([[row[j] for j in support] for row in mat]) \
            == len(support)
    assert verdicts == {True, False}


def test_solve_nonneg_smallest_support_first():
    # (1, 1) is both column 2 alone and columns 0 + 1 together
    mat = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert linalg.solve_nonneg(mat, [F(1), F(1)]) == [0, 0, 1]
    assert linalg.solve_nonneg(mat, [F(1), F(1)], max_support=1) \
        == [0, 0, 1]
    assert linalg.solve_nonneg(mat, [F(1), F(1)], require=(0,)) == [1, 1, 0]
    assert linalg.solve_nonneg(mat, [F(-1), F(1)]) is None


def _reference_solve(mat, rhs, max_support=None, require=()):
    """The first nonnegative basic solution by one fresh Gauss-Jordan
    solve per column support: supports of at most ``rank(mat)`` and
    ``max_support`` columns that hold ``require``, smallest first and in
    ``combinations`` order within a size."""
    ncols = len(mat[0]) if mat else 0
    cap = _reference_rank(mat)
    if max_support is not None:
        cap = min(cap, max_support)
    rest = [j for j in range(ncols) if j not in require]
    for size in range(len(require), cap + 1):
        for extra in combinations(rest, size - len(require)):
            support = tuple(require) + extra
            res = _reference_linear_solve(
                [[row[j] for j in support] for row in mat], rhs)
            if res is None or res[1] or any(v < 0 for v in res[0]):
                continue
            sol = [F(0)] * ncols
            for j, v in zip(support, res[0]):
                sol[j] = v
            return sol
    return None


def _hull_system(rng, npts):
    """``CoordinatePlaneComplement.contains_hull``'s system: does the hull
    of ``npts`` points meet the plane ``x_i = x_j = 0``?"""
    pts = [(F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 3))
           for _ in range(npts)]
    return ([[p[0] for p in pts], [p[1] for p in pts], [F(1)] * npts],
            [F(0), F(0), F(1)], None, ())


def _ray_system(rng):
    """``conv2_with_convn_contains``'s system for one ray in R^4: the
    direction column, then ten lifted points."""
    pts = [[F(rng.randint(-6, 6), 3) for _ in range(4)] for _ in range(10)]
    if rng.random() < 0.5:  # a probe inside the hull of four points
        w = [F(rng.randint(1, 4)) for _ in range(4)]
        p = [sum(wi * q[d] for wi, q in zip(w, pts)) / sum(w)
             for d in range(4)]
    else:
        p = [F(rng.randint(-8, 8), 3) for _ in range(4)]
    x = pts[rng.randrange(10)]
    mat = [[x[d] - p[d]] + [q[d] for q in pts] for d in range(4)]
    mat.append([F(0)] + [F(1)] * 10)
    return mat, p + [F(1)], rng.randint(1, 5), (0,)


def _general_system(rng):
    mat, rhs = _random_system(rng)
    if rng.random() < 0.2:  # a rank-deficient row
        mat.append([a - b for a, b in zip(mat[0], mat[-1])])
        rhs.append(rhs[0] - rhs[-1])
    if rng.random() < 0.1:
        rhs = [F(0)] * len(rhs)
    max_support = rng.choice([None, 1, 2, 3])
    require = (0,) if rng.random() < 0.3 else ()
    if len(mat[0]) > 2 and rng.random() < 0.1:
        require = (len(mat[0]) - 1, 1)
    return mat, rhs, max_support, require


def test_solve_nonneg_returns_the_parent_solution():
    # the prefix-sharing search returns the very vector that one fresh
    # elimination per support returns, not just the same verdict
    rng = random.Random(1409)
    systems = [_general_system(rng) for _ in range(500)]
    systems += [_hull_system(rng, rng.choice([2, 3])) for _ in range(150)]
    systems += [_ray_system(rng) for _ in range(40)]
    found = set()
    for mat, rhs, max_support, require in systems:
        got = linalg.solve_nonneg(mat, rhs, max_support, require)
        assert got == _reference_solve(mat, rhs, max_support, require), (
            mat, rhs, max_support, require)
        found.add((len(mat[0]), got is not None))
    assert {(2, False), (3, False), (3, True), (11, False),
            (11, True)} <= found


def test_solve_nonneg_shares_each_prefix_elimination(monkeypatch):
    # an infeasible 5 x 10 system of rank 5 (row 0 is positive, its rhs
    # negative) makes the search visit every support of up to 5 columns;
    # one elimination per support would take 2,565 pivot steps
    rng = random.Random(5)
    mat = [[F(1)] * 10] + [[F(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(10)] for _ in range(4)]
    rhs = [F(-1), F(1), F(2), F(0), F(-3)]
    assert linalg.rank(mat) == 5
    steps = []
    step = linalg._pivot_step

    def counting(*args):
        p = step(*args)
        steps.append(p != 0)
        return p

    monkeypatch.setattr(linalg, "_pivot_step", counting)
    assert linalg.solve_nonneg(mat, rhs) is None
    assert sum(steps) <= 386


def _assert_farkas(mat, rhs, y):
    """``y`` is a Farkas certificate of ``mat @ x = rhs, x >= 0``."""
    assert all(isinstance(v, int) for v in y)
    assert all(sum(v * row[j] for v, row in zip(y, mat)) <= 0
               for j in range(len(mat[0]) if mat else 0))
    assert sum(v * b for v, b in zip(y, rhs)) > 0


def test_farkas_certifies_exactly_the_empty_systems():
    rng = random.Random(1501)
    systems = [_general_system(rng)[:2] for _ in range(400)]
    systems += [_hull_system(rng, rng.choice([2, 3]))[:2]
                for _ in range(150)]
    systems += [_ray_system(rng)[:2] for _ in range(10)]
    found = set()
    for mat, rhs in systems:
        y = linalg.farkas(mat, rhs)
        assert (y is not None) == (not _reference_feasible(mat, rhs)), (
            mat, rhs)
        if y is not None:
            _assert_farkas(mat, rhs, y)
        found.add((len(mat[0]) == 11, y is None))
    assert found == {(False, False), (False, True), (True, False),
                     (True, True)}


def test_farkas_terminates_on_degenerate_systems():
    col = [F(1), F(-2), F(1, 2)]
    repeated = [[a, a, -a, a] for a in col]
    cases = [
        ([[F(1), F(-1)], [F(2), F(3)]], [F(0), F(0)], False),  # zero rhs
        (repeated, [F(2), F(-4), F(1)], False),
        (repeated, [F(2), F(-4), F(2)], True),
        # a redundant row, then one that contradicts it
        ([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)], False),
        ([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)], True),
        ([[F(1), F(2)], [F(0), F(0)]], [F(1), F(-3, 2)], True),  # zero row
        ([[F(0), F(0)]], [F(0)], False),
        ([[]], [F(5)], True),  # no columns
        ([], [], False),  # no rows
    ]
    for mat, rhs, empty in cases:
        y = linalg.farkas(mat, rhs)
        assert (y is not None) == empty == (not _reference_feasible(mat,
                                                                    rhs))
        if empty:
            _assert_farkas(mat, rhs, y)


@st.composite
def small_systems(draw):
    """Up to 4 rows and 6 columns of small rationals, often with a repeated
    column or row and a right-hand side that some ``x >= 0`` meets."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    mat = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
           for _ in range(nrows)]
    if draw(st.booleans()):
        mat = [row + [row[0]] for row in mat]
    if draw(st.booleans()):
        mat.append(list(mat[0]))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 2), min_size=len(mat[0]),
                          max_size=len(mat[0])))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in mat]
    else:
        rhs = draw(st.lists(entry, min_size=len(mat), max_size=len(mat)))
    return mat, rhs


@settings(derandomize=True, database=None, max_examples=200,
          deadline=None)
@given(small_systems())
def test_farkas_agrees_with_enumeration(system):
    mat, rhs = system
    y = linalg.farkas(mat, rhs)
    assert (y is not None) == (not _reference_feasible(mat, rhs))
    if y is not None:
        _assert_farkas(mat, rhs, y)


WRONG_PHASE_ONE = """
from fractions import Fraction as F
from ascolim import linalg
from ascolim.errors import CertificateError

linalg._phase_one = lambda rows, ncols: [1] * len(rows)
try:
    linalg.farkas([[F(1), F(-1)], [F(1), F(1)]], [F(-1), F(1)])
except CertificateError:
    print("raised")
"""


def test_wrong_farkas_certificates_raise(monkeypatch):
    # a wrong Phase-I answer surfaces as an error, never as a verdict:
    # [1, 1] (after the first row's sign) meets column 1 at 2 > 0
    monkeypatch.setattr(linalg, "_phase_one",
                        lambda rows, ncols: [1] * len(rows))
    with pytest.raises(CertificateError):
        linalg.farkas([[F(1), F(-1)], [F(1), F(1)]], [F(-1), F(1)])
    monkeypatch.setattr(linalg, "_phase_one", lambda rows, ncols: [0, 0])
    with pytest.raises(CertificateError):  # y . rhs == 0
        linalg.farkas([[F(1), F(-1)], [F(1), F(1)]], [F(-1), F(1)])
    # the check is no assert: it also runs under python -O
    src = str(Path(__file__).parent.parent / "src")
    run = subprocess.run([sys.executable, "-O", "-c", WRONG_PHASE_ONE],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised\n"
