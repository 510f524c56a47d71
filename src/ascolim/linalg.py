"""Small exact linear-algebra routines over exact rationals.

Everything here is desk-scale (matrices of a handful of rows/columns),
and every elimination is one fraction-free step on integer rows (Bareiss
1968): ``fraction_free`` runs it column by column, and ``row_reduce``,
``rank``, ``solve``, ``invert`` and ``abs_det`` sit on top of it.
``solve_nonneg``, the one nonnegative-feasibility routine every caller
shares, scales rows to integers once and walks the column supports depth
first by the same step, so supports that share a prefix share its
elimination and exact rationals are built only for the solution
returned.  ``farkas`` proves such a system empty by an exact Phase-I
simplex, also run by that step, and a checked certificate.
"""

from ascolim.errors import CertificateError
from ascolim.rats import RAT, scale_common

ZERO = RAT(0)
ONE = RAT(1)


def row_reduce(mat):
    """Reduced row-echelon form over exact scalars.

    Returns ``(reduced, pivot_cols)`` where ``reduced`` is the reduced
    row-echelon form and ``pivot_cols`` the pivot column indices.  Each
    row is scaled to integers and ``fraction_free`` eliminates them.
    """
    m = [list(scale_common(row)[0]) for row in mat]
    pivots, det = fraction_free(m, len(m[0]) if m else 0)
    return [[RAT(v, det) for v in row] for row in m], pivots


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


def _pivot_step(m, r, c, det):
    """``_eliminate`` at the first row from ``r`` on that is nonzero in
    column ``c``, moved to row ``r``; 0 if there is none."""
    pr = next((i for i in range(r, len(m)) if m[i][c]), None)
    if pr is None:
        return 0
    m[r], m[pr] = m[pr], m[r]
    return _eliminate(m, r, c, det)


def _eliminate(m, r, c, det):
    """One fraction-free Gauss-Jordan step on integer rows ``m``: pivot on
    ``m[r][c]`` after the pivot ``det``, which it returns.  Divisions are
    exact, as each entry stays a minor of the input.  Rows are replaced,
    not changed, so a copy of ``m`` keeps the old tableau."""
    piv = m[r]
    p = piv[c]
    for i, row in enumerate(m):
        if i != r:
            f = row[c]
            m[i] = [(p * a - f * b) // det for a, b in zip(row, piv)]
    return p


def fraction_free(m, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots on the first ``ncols`` columns of ``m`` in order (later columns
    are carried along), skipping columns without a pivot.  Returns
    ``(pivots, det)``: the pivot rows are ``det`` times the reduced
    row-echelon form, and ``det`` is the last pivot, or 1 if there is none.
    """
    pivots = []
    det = 1
    for c in range(ncols):
        if len(pivots) == len(m):
            break
        p = _pivot_step(m, len(pivots), c, det)
        if p:
            pivots.append(c)
            det = p
    return pivots, det


def abs_det(flat, n):
    """Absolute determinant of the ``n x n`` integer matrix given row by
    row in ``flat``, by fraction-free elimination."""
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    pivots, det = fraction_free(rows, n)
    return abs(det) if len(pivots) == n else 0


def solve_nonneg(mat, rhs, max_support=None, require=()):
    """A nonnegative exact solution of ``mat @ x = rhs``, or ``None``.

    Decides feasibility of ``{x >= 0 : mat @ x = rhs}`` through its basic
    solutions (Caratheodory: some linearly independent column support
    carries one if any solution exists).  Supports hold at most
    ``rank(mat)`` columns and at most ``max_support``, all contain the
    column tuple ``require``, and are tried smallest first and
    lexicographically within a size; those that share a prefix share its
    elimination, and a support's last column updates only the rhs.  The
    first nonnegative solution is returned as a full-length vector.  As
    every smaller support was tried first, it is positive on each column
    of its support outside ``require``.  Entries must be exact scalars.
    """
    ncols = len(mat[0]) if mat else 0
    rows = [scale_common((*row, b))[0] for row, b in zip(mat, rhs)]
    full = list(rows)
    r = len(fraction_free(full, ncols)[0])
    if any(row[-1] for row in full[r:]):
        return None  # rhs is outside the column space
    cap = r if max_support is None else min(r, max_support)
    det = 1
    for k, c in enumerate(require):
        det = _pivot_step(rows, k, c, det)
        if not det:
            return None  # every support holds these dependent columns
    rest = [j for j in range(ncols) if j not in require]
    for size in range(len(require), cap + 1):
        for support, nums, den in _basic_solutions(
                rows, det, tuple(require), rest, 0, size - len(require)):
            if all(v * den >= 0 for v in nums):
                sol = [ZERO] * ncols
                for j, v in zip(support, nums):
                    sol[j] = RAT(v, den)
                return sol
    return None


def _basic_solutions(m, det, support, rest, start, left):
    """``(support, nums, den)``, the solution ``nums / den``, for each
    independent extension of ``support`` (the pivots of tableau ``m``, the
    last one ``det``) by ``left`` columns of ``rest[start:]`` whose span
    holds the rhs, in lexicographic order.  Depth first: a child makes one
    step on its new column, a column with no pivot below the ``support``
    rows is dependent (its subtree is skipped), and a leaf checks only
    that the updated rhs is zero below the pivots.
    """
    k = len(support)
    if not left:
        if not any(row[-1] for row in m[k:]):
            yield support, [row[-1] for row in m[:k]], det
        return
    for j in range(start, len(rest) - left + 1):
        c = rest[j]
        if left > 1:
            child = list(m)
            p = _pivot_step(child, k, c, det)
            if p:
                yield from _basic_solutions(child, p, support + (c,), rest,
                                            j + 1, left - 1)
            continue
        pr = next((i for i in range(k, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        p, b = m[pr][c], m[pr][-1]
        if all(p * row[-1] == row[c] * b for row in m[k:]):
            yield (support + (c,),
                   [(p * row[-1] - row[c] * b) // det for row in m[:k]]
                   + [b], p)


def farkas(mat, rhs):
    """A Farkas certificate that ``{x >= 0 : mat @ x = rhs}`` is empty:
    an integer ``y`` with ``y . mat_j <= 0`` for every column ``j`` and
    ``y . rhs > 0``, or ``None`` if the set is nonempty.  ``y`` comes from
    an exact Phase-I simplex on the rows signed to ``rhs >= 0`` and scaled
    to integers; one that fails its integer check raises
    ``CertificateError``.  Entries must be exact scalars."""
    scaled = [scale_common((*row, b)) for row, b in zip(mat, rhs)]
    rows = [nums if nums[-1] >= 0 else [-v for v in nums]
            for nums, _ in scaled]
    y = _phase_one(rows, len(mat[0]) if mat else 0)
    if y is None:
        return None  # Phase I found a solution
    dots = [sum(v * a for v, a in zip(y, col)) for col in zip(*rows)]
    if max(dots[:-1], default=0) > 0 or dots[-1] <= 0:
        raise CertificateError(f"{y!r} is no Farkas certificate of {rows!r}")
    return [v * den if b >= 0 else -v * den
            for v, (_, den), b in zip(y, scaled, rhs)]


def _phase_one(rows, ncols):
    """Phase I of the simplex method on integer rows ``[A | b]``,
    ``b >= 0``: minimize the sum of one artificial column per row by
    fraction-free steps on ``[A | I | b]`` and its cost row, each entry
    ``det > 0`` times its value.  Bland's rule picks the entering column
    (the first of negative cost) and the leaving one (least ratio, then
    least basic column), so it terminates (Bland 1977).  ``None`` once the
    artificial sum is 0, else ``det`` times the optimal duals ``y``, read
    off the artificial columns' reduced costs ``1 - y_i``."""
    m = len(rows)
    t = [[*row[:-1], *(int(i == k) for k in range(m)), row[-1]]
         for i, row in enumerate(rows)]
    # the cost row: cost 1 on each artificial column, less every row
    t.append([-sum(c) for c in zip(*t, [0] * ncols + [-1] * m + [0])])
    basis, det = list(range(ncols, ncols + m)), 1
    while t[-1][-1]:  # -det times the artificial sum
        j = next((j for j, v in enumerate(t[-1][:-1]) if v < 0), None)
        if j is None:
            return [det - v for v in t[-1][ncols:-1]]
        r = min((i for i in range(m) if t[i][j] > 0),
                key=lambda i: (RAT(t[i][-1], t[i][j]), basis[i]))
        det = _eliminate(t, r, j, det)
        basis[r] = j
    return None
