"""Small exact linear-algebra routines over exact rationals.

Everything here is desk-scale (matrices of a handful of rows/columns).
``row_reduce``, ``solve`` and ``invert`` use Gauss-Jordan elimination with
exact scalars.  ``solve_nonneg``, the one nonnegative-feasibility routine
every caller shares, scales rows to integers once and solves each column
support by fraction-free elimination (Bareiss 1968), so it builds exact
rationals only for the solution it returns.  ``abs_det`` takes integer
determinants by the same elimination.
"""

from itertools import combinations

from ascolim.rats import RAT, scale_common

ZERO = RAT(0)
ONE = RAT(1)


def row_reduce(mat):
    """Gauss-Jordan over exact scalars.

    Returns ``(reduced, pivot_cols)`` where ``reduced`` is the reduced
    row-echelon form and ``pivot_cols`` the pivot column indices.
    """
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


def rank(mat):
    if not mat:
        return 0
    return len(row_reduce(mat)[1])


def solve(mat, rhs):
    """Solve ``mat @ x = rhs`` exactly.

    Returns ``(solution, free_cols)`` with free variables set to zero, or
    ``None`` if the system is inconsistent.
    """
    ncols = len(mat[0]) if mat else 0
    if not mat:
        return ([], []) if all(v == 0 for v in rhs) else None
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = row_reduce(aug)
    if ncols in pivots:
        return None
    sol = [ZERO] * ncols
    for i, c in enumerate(pivots):
        sol[c] = red[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    return sol, free


def invert(mat):
    """Exact inverse of a square matrix; raises ``ValueError`` if singular."""
    n = len(mat)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def _integer_rows(mat, rhs):
    """Rows of ``[mat | rhs]`` scaled by the lcm of their denominators."""
    return [scale_common((*row, b))[0] for row, b in zip(mat, rhs)]


def _fraction_free(m, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Eliminates over the first ``ncols`` columns of ``m`` (later columns are
    carried along), skipping columns without a pivot.  Every division is
    exact, since each entry stays a minor of the input (Bareiss 1968).
    Returns ``(pivots, det)``: row ``i`` holds ``det`` in column
    ``pivots[i]`` and zero in every other pivot column; ``det`` is the last
    pivot, or 1 when there is none.
    """
    pivots = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r]
        p = piv[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * a - f * b) // det for a, b in zip(row, piv)]
        pivots.append(c)
        det = p
        if len(pivots) == len(m):
            break
    return pivots, det


def abs_det(flat, n):
    """Absolute determinant of the ``n x n`` integer matrix given row by
    row in ``flat``, by fraction-free elimination."""
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    pivots, det = _fraction_free(rows, n)
    return abs(det) if len(pivots) == n else 0


def solve_nonneg(mat, rhs, max_support=None, require=()):
    """A nonnegative exact solution of ``mat @ x = rhs``, or ``None``.

    Decides feasibility of ``{x >= 0 : mat @ x = rhs}`` through its basic
    solutions (Caratheodory: some linearly independent column support
    carries one if any solution exists).  Rows are scaled to integers once;
    each linearly independent support is then visited once, smallest first
    and lexicographically within a size, and solved by fraction-free
    elimination.  Supports hold at most ``rank(mat)`` columns and at most
    ``max_support``, and every one contains the column tuple ``require``.
    The first nonnegative solution is returned as a full-length vector.  As
    every smaller support was tried first, it is positive on each column of
    its support outside ``require``.  Entries must be exact scalars.
    """
    ncols = len(mat[0]) if mat else 0
    rows = _integer_rows(mat, rhs)
    full = [list(row) for row in rows]
    r = len(_fraction_free(full, ncols)[0])
    if any(row[-1] for row in full[r:]):
        return None  # rhs is outside the column space
    cap = r if max_support is None else min(r, max_support)
    rest = [j for j in range(ncols) if j not in require]
    for size in range(len(require), cap + 1):
        for extra in combinations(rest, size - len(require)):
            support = require + extra
            m = [[row[j] for j in support] + [row[-1]] for row in rows]
            pivots, det = _fraction_free(m, size)
            if len(pivots) < size or any(row[-1] for row in m[size:]):
                continue  # dependent columns, or rhs outside their span
            nums = [row[-1] for row in m[:size]]
            if det < 0:
                det, nums = -det, [-v for v in nums]
            if all(v >= 0 for v in nums):
                sol = [ZERO] * ncols
                for j, v in zip(support, nums):
                    sol[j] = RAT(v, det)
                return sol
    return None
