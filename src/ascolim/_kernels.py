"""Exact integer kernels for the hot inner loops.

Three loops sit under most of the library's arithmetic: exact rational
matrix-vector application (behind barycentric coordinates, point location
and PL evaluation), pairwise squared-distance scans (diameters), and signed
ray-crossing counts (winding numbers).  Each works on Python integers with
shared denominators carried separately, so results are exact at any size.
"""


def matvec_q(mat_num, mat_den, vec_num, vec_den):
    """Exact product of ``(mat_num / mat_den) @ (vec_num / vec_den)``.

    ``mat_num`` is a sequence of rows of ints, ``vec_num`` a sequence of
    ints.  Returns ``(out_nums, out_den)`` with the common denominator
    left unreduced.
    """
    out_den = mat_den * vec_den
    out = []
    for row in mat_num:
        acc = 0
        for m, v in zip(row, vec_num):
            acc += m * v
        out.append(acc)
    return tuple(out), out_den


def max_pairwise_sqdist_q(coords_num):
    """Maximum pairwise squared distance over integer coordinate tuples.

    Denominators are the caller's business: if the points are
    ``coords_num[i] / den`` the true value is ``result / den**2``.
    """
    best = 0
    n = len(coords_num)
    for i in range(n):
        pi = coords_num[i]
        for j in range(i + 1, n):
            pj = coords_num[j]
            acc = 0
            for a, b in zip(pi, pj):
                d = a - b
                acc += d * d
            if acc > best:
                best = acc
    return best


def winding_crossings_q(xs, ys, dx, dy):
    """Signed crossings of a closed integer polygon with the ray ``s*(dx,dy)``, s>0.

    The polygon is the cyclic sequence ``(xs[i], ys[i])``; the ray starts at
    the origin.  Raises ``ValueError`` if a vertex lies on the closed ray or
    at the origin, in which case the caller perturbs the direction.
    """
    n = len(xs)
    cross = [dx * ys[i] - dy * xs[i] for i in range(n)]
    dot = [dx * xs[i] + dy * ys[i] for i in range(n)]
    for i in range(n):
        if cross[i] == 0 and dot[i] >= 0:
            raise ValueError("vertex on ray")
    total = 0
    for i in range(n):
        j = (i + 1) % n
        ca, cb = cross[i], cross[j]
        if ca <= 0 < cb:
            # candidate upward crossing; hit point on positive ray side?
            if dot[i] * cb - dot[j] * ca > 0:
                total += 1
        elif cb <= 0 < ca:
            if dot[j] * ca - dot[i] * cb > 0:
                total -= 1
    return total
