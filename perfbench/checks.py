"""Independent checks of the program's outputs, in plain exact arithmetic.

Nothing here calls ``ascolim``: every check recomputes what it needs from
coordinates with ``fractions.Fraction`` and tests a property of the
method (a certificate identity, the conv_2/conv_n identity, the
barycentric-subdivision counts, volumes and contraction, exact ray
crossings).  Each check returns a list of problems; an empty list passes.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial


# -- exact linear algebra ------------------------------------------------


def _solve_unique(cols, rhs):
    """The unique ``x`` with ``sum(x_j * cols[j]) == rhs``, or ``None``.

    ``None`` also when the columns are linearly dependent.
    """
    rows = len(rhs)
    ncols = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(ncols)] + [Fraction(rhs[i])]
         for i in range(rows)]
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            return None
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    if any(m[i][ncols] != 0 for i in range(r, rows)):
        return None
    return [m[i][ncols] for i in range(ncols)]


def _det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def gram_det(vertices):
    """Gram determinant of the edge vectors: (k! * k-volume)^2."""
    base = vertices[0]
    edges = [_sub(v, base) for v in vertices[1:]]
    if not edges:
        return Fraction(1)
    return _det([[_dot(a, b) for b in edges] for a in edges])


def max_sqdist(vertices):
    return max((sum((a - b) ** 2 for a, b in zip(p, q))
                for p, q in combinations(vertices, 2)), default=Fraction(0))


def barycentric(vertices, x):
    """Coefficients of ``x`` over affinely independent ``vertices``, or
    ``None`` when ``x`` leaves their affine hull."""
    cols = [tuple(v) + (1,) for v in vertices]
    return _solve_unique(cols, tuple(x) + (1,))


def in_conv(points, x, max_support):
    """Own exact search: is ``x`` in ``conv_k`` of ``points``, k <= max?"""
    for size in range(1, max_support + 1):
        for support in combinations(points, size):
            coeffs = barycentric(support, x)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


# -- convexity ------------------------------------------------------------


def check_convex_certificate(points, x, n, cert):
    """A ``conv_n`` certificate: at most ``n`` set points, coefficients
    positive and summing to one, combination equal to ``x``."""
    problems = []
    pts, coeffs = cert.points, cert.coefficients
    pool = {tuple(p) for p in points}
    if not 1 <= len(pts) <= n or len(pts) != len(coeffs):
        problems.append(f"support of {len(pts)} points for n={n}")
    if any(tuple(p) not in pool for p in pts):
        problems.append("certificate point outside the set")
    if any(c <= 0 for c in coeffs) or sum(coeffs) != 1:
        problems.append(f"coefficients {coeffs} not a convex combination")
    got = tuple(sum(c * p[d] for c, p in zip(coeffs, pts))
                for d in range(len(x)))
    if got != tuple(x):
        problems.append(f"combination {got} != probe {tuple(x)}")
    return problems


def check_segment_witness(points, p, witness):
    """``(x, t, q)`` with ``x`` in the set, ``0 <= t <= 1`` and
    ``p == t*x + (1-t)*q`` exactly; ``q``'s own membership in ``conv_n``
    is checked through its certificate by the caller."""
    x, t, q = witness
    problems = []
    if tuple(x) not in {tuple(v) for v in points}:
        problems.append("witness x outside the set")
    if not 0 <= t <= 1:
        problems.append(f"witness t={t} outside [0, 1]")
    got = tuple(t * a + (1 - t) * b for a, b in zip(x, q))
    if got != tuple(p):
        problems.append(f"t*x + (1-t)*q = {got} != probe {tuple(p)}")
    return problems


def check_question(q, out):
    """One convexity question against the conv_2/conv_n identity.

    ``out`` holds the three verdicts, the two certificates and the
    certificate of the witness point ``q`` in ``conv_n`` (or ``None``).
    """
    points, n, probe, member = q["points"], q["n"], q["probe"], q["member"]
    problems = []
    if out["lhs"] != out["rhs"]:
        problems.append(f"conv2(X, conv_{n}) says {out['lhs']}, "
                        f"conv_{n + 1} says {out['rhs']}")
    if member and not out["rhs"]:
        problems.append("constructed member rejected")
    if out["hull"] is not None and out["hull"] != out["rhs"]:
        problems.append(f"hull_contains says {out['hull']}, "
                        f"conv_{n + 1} says {out['rhs']}")
    if out["rhs"]:
        problems += check_convex_certificate(points, probe, n + 1,
                                             out["rhs_cert"])
    if out["lhs"]:
        problems += check_segment_witness(points, probe, out["witness"])
        q_cert = out["q_cert"]
        if q_cert is None:
            problems.append("witness q not in conv_n")
        else:
            problems += check_convex_certificate(points, out["witness"][2],
                                                 n, q_cert)
    return problems


def check_negative(q, out):
    """A negative verdict against the own support enumeration."""
    if out["rhs"]:
        return []
    if in_conv(q["points"], q["probe"], q["n"] + 1):
        return [f"probe {q['probe']} is in conv_{q['n'] + 1} "
                "by own enumeration"]
    return []


# -- subdivision ------------------------------------------------------------


def check_subdivided_simplex(vertices, pieces, program_mesh_sq,
                             program_volumes, volumes=True):
    """One barycentric subdivision of a rank-r simplex.

    ``pieces`` are the vertex tuples of the top cells.  Exactly ``r!`` of
    rank ``r``; each has relative volume ``1/r!`` (Gram determinants, only
    if ``volumes``) and so does every volume the program reported; the
    mesh contracts by ``(r-1)/r`` and matches the program's.
    """
    r = len(vertices)
    problems = []
    if len(pieces) != factorial(r) or any(len(c) != r for c in pieces):
        problems.append(f"{len(pieces)} top cells for rank {r}")
    if volumes:
        want = gram_det(vertices) / factorial(r) ** 2
        bad = sum(1 for c in pieces if gram_det(c) != want)
        if bad:
            problems.append(f"{bad} pieces without relative volume 1/{r}!")
    if len(program_volumes) != len(pieces) or any(
            v != Fraction(1, factorial(r)) for v in program_volumes):
        problems.append("program relative volumes differ from 1/r!")
    mesh = max(max_sqdist(c) for c in pieces)
    if mesh > Fraction(r - 1, r) ** 2 * max_sqdist(vertices):
        problems.append(f"mesh^2 {mesh} breaks the (r-1)/r contraction")
    if mesh != program_mesh_sq:
        problems.append(f"program mesh^2 {program_mesh_sq} != {mesh}")
    return problems


def check_refined_complex(base_cells, delta, levels, final_cells,
                          per_base=True):
    """``refine_until(delta)``: mesh below ``delta`` and ``(r!)^levels``
    cells inside each base cell (only their total unless ``per_base``)."""
    problems = []
    if final_cells and max(max_sqdist(c) for c in final_cells) >= delta ** 2:
        problems.append(f"mesh not below {delta}")
    per = factorial(len(base_cells[0])) ** levels
    if not per_base:
        if len(final_cells) != per * len(base_cells):
            problems.append(f"{len(final_cells)} cells, want "
                            f"{per * len(base_cells)}")
        return problems
    counts = [0] * len(base_cells)
    coords = [_barycentric_map(base) for base in base_cells]
    for cell in final_cells:
        center = tuple(sum(v[d] for v in cell) / len(cell)
                       for d in range(len(cell[0])))
        owners = [i for i, to_coords in enumerate(coords)
                  if _nonneg(to_coords(center))]
        if len(owners) != 1:
            problems.append(f"cell centre {center} in {len(owners)} bases")
            break
        counts[owners[0]] += 1
    if counts != [per] * len(base_cells):
        problems.append(f"cells per base cell {counts}, want {per} each")
    return problems


def _nonneg(coeffs):
    return coeffs is not None and all(c >= 0 for c in coeffs)


def _barycentric_map(vertices):
    """``barycentric(vertices, .)`` with the Gram system solved once."""
    base = vertices[0]
    edges = [_sub(v, base) for v in vertices[1:]]
    gram = [[_dot(a, b) for b in edges] for a in edges]
    inverse = [_solve_unique(gram, [int(i == j) for i in range(len(edges))])
               for j in range(len(edges))]  # columns of the inverse

    def to_coords(x):
        rel = _sub(x, base)
        proj = [_dot(e, rel) for e in edges]
        lam = [sum(inverse[j][i] * proj[j] for j in range(len(edges)))
               for i in range(len(edges))]
        back = tuple(b + sum(l * e[d] for l, e in zip(lam, edges))
                     for d, b in enumerate(base))
        if back != tuple(x):
            return None  # off the affine hull
        return [1 - sum(lam)] + lam

    return to_coords


# -- pi1 ----------------------------------------------------------------------


def winding(points, axis=(0, 1)):
    """Exact winding number of a closed polygon around the removed plane.

    Signed crossings of the ray ``{y = 0, x > 0}`` in the axis projection,
    half-open in ``y``; the loop must avoid the origin.
    """
    i, j = axis
    proj = [(p[i], p[j]) for p in points]
    w = 0
    for (ax, ay), (bx, by) in zip(proj, proj[1:] + proj[:1]):
        cross = ax * by - ay * bx
        if ay <= 0 < by and cross > 0:
            w += 1
        elif by <= 0 < ay and cross < 0:
            w -= 1
    return w


def square_boundary_key(p):
    """Position of a point of the square ``max(|x|, |y|) == 1`` along its
    counter-clockwise traversal from the corner ``(1, 1)``."""
    x, y = p
    if max(abs(x), abs(y)) != 1:
        raise ValueError(f"{p} is not on the square boundary")
    if y == 1:
        return (0, -x)
    if x == -1:
        return (1, -y)
    if y == -1:
        return (2, x)
    return (3, y)


def check_step_values(values, beta, steps, axis=(0, 1)):
    """Every value lies in ``E_beta`` and off the removed plane."""
    keep = steps.get(beta)
    if keep is None:
        return [f"beta {beta} is not a step"]
    i, j = axis
    for v in values:
        if any(c != 0 for d, c in enumerate(v) if d not in keep):
            return [f"value {v} outside E_{beta}"]
        if v[i] == 0 and v[j] == 0:
            return [f"value {v} on the removed plane"]
    return []


def check_surjectivity_leg(probe, leg, baked_values, steps):
    """Windings before and after, grid, and the baked endpoint loop."""
    w = probe["winding"]
    problems = []
    if winding(probe["vertices"]) != w:
        problems.append(f"probe winding is not {w} by own count")
    if (leg["winding_before"], leg["winding_after"]) != (w, w):
        problems.append(f"windings {leg['winding_before']} -> "
                        f"{leg['winding_after']}, want {w}")
    if not leg["grid_ok"]:
        problems.append("time-grid check failed")
    order = sorted(baked_values, key=square_boundary_key)
    loop = [baked_values[d] for d in order]
    if winding(loop) != w:
        problems.append(f"endpoint loop winds {winding(loop)}, want {w}")
    problems += check_step_values(loop, leg["beta"], steps)
    return problems


CORNERS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def check_injectivity_leg(sigma, tau, pair, baked_values, steps):
    """Endpoints equal ``sigma`` and ``tau``; values stay in the step."""
    problems = []
    if not pair["grid_ok"]:
        problems.append("time-grid check failed")
    if not pair["endpoints_frozen"]:
        problems.append("program reports moved endpoints")
    for k, d in enumerate(CORNERS):
        for u, loop in ((0, sigma), (1, tau)):
            got = baked_values.get(tuple(Fraction(c) for c in d) + (u,))
            if got != tuple(loop[k]):
                problems.append(f"endpoint at u={u}, corner {d} is {got}")
    problems += check_step_values(baked_values.values(), pair["beta"],
                                  steps)
    return problems


def check_window(windings, window):
    want = sorted(set(windings) | {0})
    if list(window) != want:
        return [f"winding window {window}, want {want}"]
    return []
