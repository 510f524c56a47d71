"""Complexes, subdivision, prisms and carriers."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ascolim import linalg
from ascolim.errors import InputError
from ascolim.geometry import (Outside, Simplex, combine, diameter_sq,
                              sqdist, vsub)
from ascolim.simplicial import (SimplicialComplex, SubcomplexCarrier,
                                SubdividedComplex, _Grid, _chains,
                                _intersection_is_common_face,
                                _subdivision_cap, _top_order,
                                barycentric_subdivide, bsd_with_parents,
                                max_diameter_sq, prism_end_carrier,
                                relative_volumes, triangulate_prism)

F = Fraction

UNIT_TRIANGLE = Simplex([(0, 0), (1, 0), (0, 1)])


def _det(rows):
    # independent tiny determinant for volume oracles
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_interval_bsd_is_midpoint_split():
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    sub = barycentric_subdivide(cx)
    tops = {frozenset(s.vertices) for s in sub.tops()}
    assert tops == {frozenset({(0,), (F(1, 2),)}),
                    frozenset({(F(1, 2),), (1,)})}
    assert sub.validate()


def _intersection_vertices(s1, s2):
    """Reference: the vertices of the polytope ``s1 ∩ s2``, by one exact
    solve per column support of its basic solutions."""
    dim = s1.dim
    n1, n2 = s1.rank, s2.rank
    ncols = n1 + n2
    rows = [[s1.vertices[i][d] for i in range(n1)] +
            [-s2.vertices[j][d] for j in range(n2)] for d in range(dim)]
    rows.append([F(1)] * n1 + [F(0)] * n2)
    rows.append([F(0)] * n1 + [F(1)] * n2)
    rhs = [F(0)] * dim + [F(1), F(1)]
    r = linalg.rank(rows)
    points = set()
    for support in itertools.combinations(range(ncols), min(r, ncols)):
        res = linalg.solve([[row[j] for j in support] for row in rows], rhs)
        if res is None or res[1] or any(v < 0 for v in res[0]):
            continue
        coeffs = dict(zip(support, res[0]))
        points.add(tuple(
            sum(coeffs.get(i, 0) * s1.vertices[i][d] for i in range(n1))
            for d in range(dim)))
    return points


def _reference_common_face(s1, s2):
    shared = s1.key & s2.key
    pts = _intersection_vertices(s1, s2)
    if not shared:
        return not pts
    face = Simplex(sorted(shared))
    return all(face.contains(x) for x in pts)


def _grid_simplex(rng, dim, rank, keep=()):
    """A simplex of ``rank`` vertices in R^dim holding those of ``keep``,
    the rest drawn from a small grid."""
    while True:
        extra = [tuple(F(rng.randint(-2, 2), rng.choice([1, 2]))
                       for _ in range(dim)) for _ in range(rank - len(keep))]
        try:
            return Simplex([*keep, *extra])
        except InputError:
            continue


def test_common_face_verdict_matches_the_vertex_enumeration():
    rng = random.Random(2311)
    found = set()
    for _ in range(400):
        dim = rng.choice([1, 2, 3])
        s1 = _grid_simplex(rng, dim, rng.randint(1, dim + 1))
        keep = rng.sample(s1.vertices, rng.randint(0, s1.rank - 1))
        s2 = _grid_simplex(rng, dim, rng.randint(max(1, len(keep)),
                                                 dim + 1), keep)
        got = _intersection_is_common_face(s1, s2)
        assert got == _reference_common_face(s1, s2), (s1, s2)
        found.add((bool(s1.key & s2.key), got))
    assert found == {(False, False), (False, True), (True, False),
                     (True, True)}


@pytest.mark.parametrize("tops, close, match", [
    # two overlapping triangles
    ([UNIT_TRIANGLE, Simplex([(F(1, 4), F(1, 4)), (2, 0), (0, 2)])], True,
     "do not meet in a face"),
    # two triangles that share one vertex and cross
    ([UNIT_TRIANGLE, Simplex([(0, 0), (1, -1), (1, 1)])], True,
     "do not meet in a face"),
    # a triangle without its edges
    ([UNIT_TRIANGLE], False, "missing face"),
])
def test_validate_rejects_a_non_complex(tops, close, match):
    with pytest.raises(InputError, match=match):
        SimplicialComplex(tops, close=close).validate()


def test_triangle_bsd_six_triangles_and_exact_max_diameter():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    sub = barycentric_subdivide(cx)
    tris = [s for s in sub.tops() if s.rank == 3]
    assert len(tris) == 6
    # independent oracle: enumerate the six vertex-midpoint-barycenter
    # chain triangles by hand and take the max pairwise squared distance
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    bary = (F(1, 3), F(1, 3))
    expected = F(0)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            mid = tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
            pts = [verts[i], mid, bary]
            for a in range(3):
                for b in range(a + 1, 3):
                    expected = max(expected, sqdist(pts[a], pts[b]))
    assert expected == F(5, 9)
    assert max_diameter_sq(sub) == F(5, 9)
    # (estbsd) bound with r = 3, D^2 = 2: (2/3)^2 * 2 = 8/9
    assert F(5, 9) <= F(8, 9)


def test_bsd_preserves_rank():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    assert barycentric_subdivide(cx).rank == cx.rank


def test_bsd_pieces_subdivide_every_simplex():
    cx = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                            Simplex([(2, 0), (0, 2), (2, 2)]),
                            Simplex([(2, 2), (3, 3)])])
    sub, pieces = bsd_with_parents(cx)
    assert set(pieces) == {s.key for s in cx.simplices}
    for s in cx.simplices:
        assert len(pieces[s.key]) == math.factorial(s.rank)
        for piece in pieces[s.key]:
            assert piece in sub and piece.rank == s.rank
            assert all(s.contains(v) for v in piece.vertices)
        assert sum(relative_volumes(s, pieces[s.key])) == 1
    from_tops = [p for t in cx.tops() for p in pieces[t.key]]
    assert sorted(from_tops, key=lambda p: sorted(p.vertices)) == sub.tops()


def _refined(cx, delta):
    """The steps ``refine_until(delta)`` takes on ``cx`` and the final
    level."""
    tree = SubdividedComplex(cx)
    return tree.refine_until(delta), tree.final


def test_subdivide_until_interval():
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    m, sub = _refined(cx, F(3, 10))
    assert m == 2
    assert len(sub.tops()) == 4
    assert all(diameter_sq(s) == F(1, 16) for s in sub.tops())


def test_subdivide_until_noop_when_fine_enough():
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    m, sub = _refined(cx, 2)
    assert m == 0 and sub is cx


def test_subdivide_until_triangle():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    m, _ = _refined(cx, F(4, 5))
    assert m == 1


def test_mesh_equal_to_delta_takes_one_step():
    # diameter < delta is strict, so a mesh of exactly delta needs a step
    interval = Simplex([(0,), (1,)])
    m, sub = _refined(SimplicialComplex([interval]), 1)
    assert m == 1 and max_diameter_sq(sub) == F(1, 4)


def test_subdivision_cap_past_the_float_range():
    # squared meshes and deltas below the smallest float: the cap works on
    # the exact ratio, so neither underflows to 0
    delta = F(1, 10 ** 200)
    cap = _subdivision_cap(2, F(1), delta * delta)  # the unit interval
    assert cap == 667  # ceil(400 log 10 / log 4) + 2
    tiny = SimplicialComplex([Simplex([(0,), (2 * delta,)])])
    m, sub = _refined(tiny, delta)
    assert m == 2 and max_diameter_sq(sub) == (delta / 2) ** 2


def test_subdivide_until_rejects_nonpositive_delta():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    with pytest.raises(InputError):
        _refined(cx, 0)


def test_refinement_exact_volume_sums():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    sub = barycentric_subdivide(cx)
    pieces = [s for s in sub.tops() if s.rank == 3]
    vols = relative_volumes(UNIT_TRIANGLE, pieces)
    assert sum(vols) == 1
    assert all(v == F(1, 6) for v in vols)
    for piece in pieces:
        for v in piece.vertices:
            assert UNIT_TRIANGLE.contains(v)


def _random_simplex(rng, rank, dim):
    while True:
        pts = [tuple(F(rng.randint(-16, 16), rng.randint(1, 4))
                     for _ in range(dim)) for _ in range(rank)]
        try:
            return Simplex(pts)
        except InputError:
            continue


def _gram(simplex):
    edges = [vsub(v, simplex.vertices[0]) for v in simplex.vertices[1:]]
    return _det([[sum(a * b for a, b in zip(e, f)) for f in edges]
                 for e in edges])


def test_relative_volumes_against_gram_oracle():
    # vol(piece)^2 / vol(parent)^2 = gram(piece) / gram(parent), on pieces
    # of one and of two subdivision levels
    rng = random.Random(71)
    for rank in (2, 3, 4, 5):
        sx = _random_simplex(rng, rank, 6)
        pieces = barycentric_subdivide(SimplicialComplex([sx])).tops()
        vols = relative_volumes(sx, pieces)
        assert sum(vols) == 1
        # the second level inside one first-level piece
        i = rng.randrange(len(pieces))
        inner = barycentric_subdivide(SimplicialComplex([pieces[i]])).tops()
        inner_vols = relative_volumes(sx, inner)
        assert sum(inner_vols) == vols[i]
        for piece, vol in zip(pieces + inner, vols + inner_vols):
            assert vol ** 2 == _gram(piece) / _gram(sx)


def test_relative_volume_of_a_piece_outside_the_parent():
    # in the affine hull but outside the parent: the volume ratio still holds
    parent = Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    moved = Simplex([(3, 3, 0), (4, 3, 0), (3, 4, 0)])
    doubled = Simplex([(-1, 0, 0), (1, 0, 0), (-1, 2, 0)])
    assert relative_volumes(parent, [moved, doubled]) == [1, 4]


def test_relative_volumes_reject_other_ranks_and_off_hull_pieces():
    parent = Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0)])  # in z = 0
    with pytest.raises(InputError, match="rank"):
        relative_volumes(parent, [Simplex([(0, 0, 0), (1, 0, 0)])])
    lifted = Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 1)])
    parallel = Simplex([(0, 0, 1), (1, 0, 1), (0, 1, 1)])  # in z = 1
    for piece in (lifted, parallel):
        with pytest.raises(InputError, match="affine hull"):
            relative_volumes(parent, [piece])


def _non_pure_complex(rng):
    """Random faces of one random simplex, closed, with tops of mixed rank."""
    while True:
        rank = rng.randint(3, 4)
        sx = _random_simplex(rng, rank, rng.randint(rank - 1, 4))
        faces = sx.faces() + [sx]
        cx = SimplicialComplex(rng.sample(faces, rng.randint(2, 5)))
        if len({s.rank for s in cx.tops()}) > 1:
            return cx


def _scanned_tops(cx):
    # an identical complex without preset tops runs the cover scan
    return SimplicialComplex(list(cx.simplices), close=False).tops()


def test_subdivision_tops_match_the_cover_scan():
    rng = random.Random(37)
    fan = SimplicialComplex([Simplex([(0, 0), (1, 0), (0, 1)]),
                             Simplex([(1, 0), (0, 1), (1, 1)]),
                             Simplex([(1, 1), (2, 2)])])
    complexes = [fan] + [_non_pure_complex(rng) for _ in range(12)]
    assert len({s.rank for s in fan.tops()}) == 2
    for cx in complexes:
        sub = bsd_with_parents(cx)[0]
        assert sub.tops() == _scanned_tops(sub)
        twice = bsd_with_parents(sub)[0]
        assert twice.tops() == _scanned_tops(twice)
    tree = SubdividedComplex(fan).refine(2)
    for level in tree.levels:
        assert level.tops() == _scanned_tops(level)


def test_estbsd_bound_on_random_simplices():
    rng = random.Random(99)
    for _ in range(50):
        rank = rng.randint(2, 5)
        while True:
            pts = [tuple(F(rng.randint(-16, 16), 4) for _ in range(6))
                   for _ in range(rank)]
            try:
                sx = Simplex(pts)
                break
            except InputError:
                continue
        cx = SimplicialComplex([sx])
        sub = barycentric_subdivide(cx)
        bound = F(rank - 1, rank) ** 2 * diameter_sq(sx)
        assert max_diameter_sq(sub) <= bound


def _scanned_mesh(cx):
    return max(diameter_sq(s) for s in cx.tops())


def test_max_diameter_sq_grid_route_matches_the_scan():
    # a subdivision's grid holds every edge, so its edge mesh is read; the
    # scan of the tops gives the same value on bsd outputs of ranks 2-5
    rng = random.Random(211)
    ranks = []
    for _ in range(24):
        rank = rng.randint(2, 5)
        ranks.append(rank)
        cx = SimplicialComplex([_random_simplex(rng, rank, 6)])
        sub = barycentric_subdivide(cx)
        assert sub._grid.edges and not cx._grid.edges
        assert max_diameter_sq(sub) == _scanned_mesh(sub)
        assert max_diameter_sq(cx) == _scanned_mesh(cx)
        if rank <= 3:
            twice = barycentric_subdivide(sub)
            assert max_diameter_sq(twice) == _scanned_mesh(twice)
    assert set(ranks) == {2, 3, 4, 5}
    for _ in range(6):
        sub = barycentric_subdivide(_non_pure_complex(rng))
        assert max_diameter_sq(sub) == _scanned_mesh(sub)
    # a complex made with close=False may lack edges: its grid is not read
    bare = SimplicialComplex([UNIT_TRIANGLE], close=False)
    bare._grid = _Grid.of(bare)
    assert bare._grid.mesh_sq() == 0 and max_diameter_sq(bare) == 2


def test_prism_of_interval_is_two_triangles():
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    prism = triangulate_prism(cx)
    tris = [s for s in prism.tops()]
    assert len(tris) == 2
    assert all(s.rank == 3 for s in tris)
    shared = tris[0].key & tris[1].key
    assert len(shared) == 2  # the diagonal
    assert prism.validate()


def test_prism_of_triangle_three_tets_with_volume_sum():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    prism = triangulate_prism(cx)
    tets = [s for s in prism.tops()]
    assert len(tets) == 3 and all(s.rank == 4 for s in tets)
    total = F(0)
    for t in tets:
        edges = [list(vsub(v, t.vertices[0])) for v in t.vertices[1:]]
        total += abs(_det(edges)) / 6
    assert total == F(1, 2)


def test_prism_vertex_carrier_is_an_edge():
    cx = SimplicialComplex([Simplex([(0,), (1,)])])
    v = Simplex([(0,)])
    prism = triangulate_prism(cx, aligned=[SubcomplexCarrier(cx, [v])])
    edge = Simplex([(0, 0), (0, 1)])
    assert edge in prism


def test_prism_consistency_across_shared_faces():
    # two triangles sharing an edge: prisms must still form a complex
    a = Simplex([(0, 0), (1, 0), (0, 1)])
    b = Simplex([(1, 0), (0, 1), (1, 1)])
    cx = SimplicialComplex([a, b])
    prism = triangulate_prism(cx)
    assert prism.validate()
    bottom = prism_end_carrier(prism, cx, 0)
    top = prism_end_carrier(prism, cx, 1)
    assert not bottom.is_empty() and not top.is_empty()
    for s in cx.tops():
        lifted = Simplex([tuple(v) + (F(0),) for v in s.vertices])
        assert bottom.contains_simplex(lifted)


def test_prism_levels_stack_unit_prisms():
    # three levels are three unit prisms moved onto [l/3, (l+1)/3], cell
    # for cell and in the same vertex order; neighbouring levels meet in
    # a copy of |cx|, and every copy (both ends included, by face
    # closure) is a carrier of the prism, at one level and at three
    cx = SimplicialComplex([UNIT_TRIANGLE])
    unit = triangulate_prism(cx)
    stacked = triangulate_prism(cx, levels=3)
    want = {tuple(v[:-1] + ((l + v[-1]) / 3,) for v in cell.vertices)
            for l in range(3) for cell in unit.tops()}
    assert {cell.vertices for cell in stacked.tops()} == want
    assert len(want) == 3 * len(unit.tops()) == 9
    assert stacked.validate()
    for prism, levels in ((unit, 1), (stacked, 3)):
        for l in range(levels + 1):
            t = F(l, levels)
            copy = prism_end_carrier(prism, cx, t)
            for s in cx.tops():
                lifted = Simplex([tuple(v) + (t,) for v in s.vertices])
                assert lifted in prism and copy.contains_simplex(lifted)


def test_carrier_invariant_union_of_contained_members():
    a = Simplex([(0, 0), (1, 0), (0, 1)])
    b = Simplex([(1, 0), (0, 1), (1, 1)])
    cx = SimplicialComplex([a, b])
    car = SubcomplexCarrier(cx, [a])
    # every member contained in |car| is selected
    for s in cx.simplices:
        inside = all(a.contains(v) for v in s.vertices)
        assert (s in car.selected) == inside
    shared_edge = Simplex([(1, 0), (0, 1)])
    assert car.contains_simplex(shared_edge)
    assert not car.contains_simplex(b)


def test_carrier_rejects_foreign_simplex():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    with pytest.raises(InputError):
        SubcomplexCarrier(cx, [Simplex([(9, 9), (10, 10), (9, 10)])])


def test_carrier_point_sampling_stays_in_subdivision():
    rng = random.Random(5)
    cx = SimplicialComplex([UNIT_TRIANGLE])
    sub = barycentric_subdivide(cx)
    sub_tops = [s for s in sub.tops()]
    for _ in range(1000):
        # sample in the parent, land in the subdivision
        w = [F(rng.randint(0, 8)) for _ in range(3)]
        if sum(w) == 0:
            w[0] = F(1)
        s = sum(w)
        x = tuple(sum(wi * vi[d] for wi, vi in zip(w, UNIT_TRIANGLE.vertices))
                  / s for d in range(2))
        assert sub.contains_point(x)
        # and vice versa: sample in a subdivision cell, land in the parent
        cell = sub_tops[rng.randrange(len(sub_tops))]
        w = [F(rng.randint(0, 8)) for _ in range(cell.rank)]
        if sum(w) == 0:
            w[0] = F(1)
        y = tuple(sum(wi * vi[d] for wi, vi in zip(w, cell.vertices))
                  / sum(w) for d in range(2))
        assert cx.contains_point(y)


def test_subdivided_complex_roots_and_location():
    cx = SimplicialComplex([UNIT_TRIANGLE])
    tree = SubdividedComplex(cx)
    tree.refine(2)
    assert tree.depth == 2
    x = (F(1, 7), F(2, 7))
    cell, coords = tree.locate_final(x)
    assert cell.contains(x) and coords == cell.barycentric(x)
    root = tree.root(cell)
    assert root in cx
    assert all(root.contains(v) for v in cell.vertices)


def test_locate_final_descends_through_pieces(monkeypatch):
    base = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                              Simplex([(2, 0), (0, 2), (2, 2)])])
    tree = SubdividedComplex(base).refine(3)
    scanned = []
    tops = SimplicialComplex.tops

    def recorded(self):
        scanned.append(self)
        return tops(self)

    monkeypatch.setattr(SimplicialComplex, "tops", recorded)
    rng = random.Random(41)
    kinds = set()
    for _ in range(60):
        cell = base.tops()[rng.randrange(2)]
        w = [F(rng.randint(1, 6)) for _ in range(3)]
        for i in rng.sample(range(3), rng.randrange(3)):
            w[i] = F(0)  # on an edge, or a vertex when two vanish
        x = tuple(sum(wi * v[d] for wi, v in zip(w, cell.vertices)) / sum(w)
                  for d in range(2))
        holders = [s for s in base.simplices if s.contains(x)]
        kinds.add(min(s.rank for s in holders))
        for face in [None] + holders:
            # a start is taken as given: no solve runs in a fresh copy
            copy = face and Simplex.trusted(face.vertices)
            start = face and (copy, face.barycentric(x))
            got, coords = tree.locate_final(x, start)
            assert copy is None or copy._solver is None
            assert got.contains(x) and coords == got.barycentric(x)
            # with no start, a vertex of the tree starts at its root
            face = face or (tree.root(Simplex([x])) if x in tree.origins
                            else base.locate(x)[0])
            assert got.rank == face.rank
            assert all(face.contains(v) for v in got.vertices)
            assert got in tree.final
    assert kinds == {1, 2, 3}
    assert tree.locate_final((F(3), F(3))) is None
    # only the base is scanned; finer levels are entered through pieces
    assert scanned and all(level is base for level in scanned)


@functools.lru_cache(maxsize=1)
def _two_cell_tree(rank, depth):
    """Two rank-``rank`` simplices meeting in a facet, subdivided ``depth``
    times; one tree is kept, so a run of examples shares it."""
    s = rank - 1
    facet = [tuple(s * (i == j) for j in range(s)) for i in range(s)]
    cells = [Simplex([(0,) * s] + facet), Simplex(facet + [(2,) * s])]
    return SubdividedComplex(SimplicialComplex(cells)).refine(depth)


def _trial_descent(tree, x, start):
    """The descent the sorted coordinates replaced, kept as a reference:
    per level, the first piece of the cell that holds ``x``, by one
    barycentric solve per piece tried."""
    hit = start
    for pieces in tree.pieces:
        hit = next((piece, coords) for piece in pieces[hit[0].key]
                   for coords in [piece.barycentric(x)]
                   if not isinstance(coords, Outside))
    return hit


@pytest.mark.parametrize("rank,depth", [(2, 1), (2, 2), (2, 3), (3, 1),
                                        (3, 2), (3, 3), (4, 1), (4, 2)])
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_sorted_coordinate_descent_matches_the_trial_descent(rank, depth,
                                                             data):
    # small integer weights give ties, zeros put the point on a face (the
    # shared facet when the second cell's apex weighs nothing) or a vertex
    tree = _two_cell_tree(rank, depth)
    cell = data.draw(st.sampled_from(tree.base.tops()))
    w = data.draw(st.lists(st.integers(0, 3), min_size=rank,
                           max_size=rank).filter(any))
    coords = tuple(F(c, sum(w)) for c in w)
    x = combine(cell.vertices, coords)
    face = Simplex.trusted([v for v, c in zip(cell.vertices, w) if c])
    for start in [(cell, coords), (face, tuple(c for c in coords if c)),
                  None]:
        got, mu = tree.locate_final(x, start)
        assert got in tree.final and got.contains(x)
        assert mu == got.barycentric(x)
        if start is None:
            continue
        assert got.rank == start[0].rank
        assert all(start[0].contains(v) for v in got.vertices)
        want, want_mu = _trial_descent(tree, x, start)
        if all(want_mu):  # x inside the reference cell: no other holds it
            assert got == want and mu == want_mu


def test_locate_final_makes_no_solve(monkeypatch):
    tree = _two_cell_tree(3, 3)
    rng = random.Random(5)
    cases = []
    for cell in tree.base.tops():
        for _ in range(20):
            w = [F(rng.randint(0, 4)) for _ in range(3)]
            w[0] += 1
            coords = tuple(c / sum(w) for c in w)
            cases.append((combine(cell.vertices, coords), (cell, coords)))
    solves = []
    barycentric = Simplex.barycentric

    def counted(self, x):
        solves.append(x)
        return barycentric(self, x)

    monkeypatch.setattr(Simplex, "barycentric", counted)
    for x, start in cases:
        assert tree.locate_final(x, start)[0] in tree.final
    # a vertex of any level starts at its root, here a base vertex
    for v in tree.base.vertices():
        assert tree.locate_final(v)[0].vertices == (v,)
    assert solves == []


def _seeded_points(rng, cx, count):
    """Interior, shared-face, vertex and outside points of ``cx``."""
    tops = cx.tops()
    points = []
    for _ in range(count):
        cell = tops[rng.randrange(len(tops))]
        kind = rng.randrange(4)
        if kind == 0:  # a vertex, shared by several tops
            points.append(cell.vertices[rng.randrange(cell.rank)])
            continue
        w = [F(rng.randint(1, 6)) for _ in range(cell.rank)]
        if kind == 1:  # on a facet, shared with a neighbour or the boundary
            w[rng.randrange(cell.rank)] = F(0)
        x = tuple(sum(wi * v[d] for wi, v in zip(w, cell.vertices)) / sum(w)
                  for d in range(cx.dim))
        if kind == 3:  # pushed outside the unit triangle
            x = (x[0] + 1, x[1])
        points.append(x)
    return points


def test_locate_is_the_first_top_holding_the_point():
    rng = random.Random(23)
    tree = SubdividedComplex(SimplicialComplex([UNIT_TRIANGLE]))
    tree.refine(2)
    cx = tree.final
    outcomes = set()
    for x in _seeded_points(rng, cx, 150):
        holders = [top for top in cx.tops() if top.contains(x)]
        got = cx.locate(x)
        outcomes.add(got is None)
        assert (got is None) == (not holders) == (not cx.contains_point(x))
        if got is not None:
            assert got[0] is holders[0]  # the first hit in tops() order
            assert got[1] == holders[0].barycentric(x)
            assert all(type(c) is F for c in got[1])
    assert outcomes == {True, False}


def test_vertices_returns_a_fresh_list():
    cx = barycentric_subdivide(SimplicialComplex([UNIT_TRIANGLE]))
    first = cx.vertices()
    expected = list(first)
    first.append((F(9), F(9)))
    first.reverse()
    assert cx.vertices() == expected
    assert cx.vertices() is not cx.vertices()


def test_carrier_contains_point_is_union_of_selected_tops():
    rng = random.Random(29)
    cx = barycentric_subdivide(SimplicialComplex([UNIT_TRIANGLE]))
    chosen = [s for s in cx.tops()][:2]
    carrier = SubcomplexCarrier(cx, chosen)
    assert {s.key for s in carrier.tops()} == {s.key for s in chosen}
    verdicts = set()
    for x in _seeded_points(rng, cx, 60):
        got = carrier.contains_point(x)
        assert got == any(s.contains(x) for s in chosen)
        verdicts.add(got)
    assert verdicts == {True, False}


# -- the subdivision's shortcuts against their plain definitions ------------


def _check_level(sub, tops_below):
    """Cell keys, barycenters and top order of a subdivision ``sub``
    whose tops are the pieces ``tops_below``, against the definitions."""
    for cell in sub.simplices:
        assert cell.key == frozenset(cell.vertices)
        assert cell.barycenter() == combine(
            cell.vertices, [F(1, cell.rank)] * cell.rank)
    assert sub.tops() == sorted(tops_below, key=_top_order)


COORDS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(data=st.data())
def test_bsd_keys_order_and_barycenters_are_the_definitions(rank, data):
    verts = data.draw(st.lists(st.tuples(*[COORDS] * 6), min_size=rank,
                               max_size=rank))
    try:
        sx = Simplex(verts)
    except InputError:
        assume(False)
    cx = SimplicialComplex([sx])
    _check_level(cx, [sx])
    sub, pieces = bsd_with_parents(cx)
    assert len(sub.tops()) == math.factorial(sx.rank)
    _check_level(sub, pieces[sx.key])


def test_refined_tree_keys_order_and_origins_are_the_definitions():
    base = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                              Simplex([(2, 0), (0, 2), (2, 2)]),
                              Simplex([(2, 2), (3, 3)])])
    tree = SubdividedComplex(base).refine(3)
    for level, pieces, below in zip(tree.levels[1:], tree.pieces,
                                    tree.levels):
        _check_level(level, [p for t in below.tops()
                             for p in pieces[t.key]])
    origins = {v: frozenset([v]) for v in base.vertices()}
    for level in tree.levels[:-1]:
        for s in level.simplices:
            center = combine(s.vertices, [F(1, s.rank)] * s.rank)
            origins[center] = frozenset().union(
                *(origins[v] for v in s.vertices))
    assert tree.origins == origins
    assert len(origins) == len(tree.final.vertices())


# -- the integer grid of each level against brute force ---------------------


def _by_rank(level):
    return sorted(level.simplices, key=lambda s: s.rank)


def _scanned_chains(faces, marks):
    """``_chains`` by a scan of every earlier face for the subfaces."""
    sets = [set(face) for face in faces]
    out = []
    for p, face in enumerate(sets):
        out.append([((p,), marks[p])] + [
            (ch + (p,), key | marks[p])
            for q in range(p) if sets[q] < face for ch, key in out[q]])
    return out


def _scanned_pieces(level):
    """Each simplex's maximal chains of faces, found by a scan of every
    earlier face, as tuples of the faces' means."""
    ending = {}
    for face in _by_rank(level):
        ending[face.key] = [(face,)] + [
            ch + (face,) for sub in ending if sub < face.key
            for ch in ending[sub]]
    return [(key, [tuple(combine(f.vertices, [F(1, f.rank)] * f.rank)
                         for f in ch) for ch in chains if len(ch) == len(key)])
            for key, chains in ending.items()]


def _check_grid(tree):
    """Every level's integer rows, edge mesh, chains and pieces."""
    for depth, level in enumerate(tree.levels):
        grid = level._grid
        assert set(grid.ids) == {s.key for s in level.simplices}
        for s in level.simplices:
            assert tuple(tuple(F(c, grid.den) for c in grid.rows[i])
                         for i in grid.ids[s.key]) == s.vertices
        mesh = max(diameter_sq(t) for t in level.tops())
        assert grid.mesh_sq() == mesh
        if depth < tree.depth:
            faces = [grid.ids[s.key] for s in _by_rank(level)]
            marks = [frozenset([p]) for p in range(len(faces))]
            assert _chains(faces, marks) == _scanned_chains(faces, marks)
            assert [(key, [c.vertices for c in cells]) for key, cells
                    in tree.pieces[depth].items()] == _scanned_pieces(level)


#: levels of refinement per rank, so that the finest level stays small
LEVELS = {2: 3, 3: 3, 4: 2, 5: 1}


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(data=st.data())
def test_each_level_keeps_exact_integer_rows_and_ids(rank, data):
    verts = data.draw(st.lists(st.tuples(*[COORDS] * 6), min_size=rank,
                               max_size=rank))
    try:
        sx = Simplex(verts)
    except InputError:
        assume(False)
    cells = [sx]
    if data.draw(st.booleans()):
        # the mirror image of one vertex through the opposite facet's
        # center spans a neighbour that meets sx in that facet
        i = data.draw(st.integers(0, rank - 1))
        facet = sx.vertices[:i] + sx.vertices[i + 1:]
        center = combine(facet, [F(1, rank - 1)] * (rank - 1))
        cells.append(Simplex(facet + (tuple(
            2 * c - v for c, v in zip(center, sx.vertices[i])),)))
    tree = SubdividedComplex(SimplicialComplex(cells))
    for _ in range(LEVELS[rank]):
        tree.refine()
        assert tree.mesh_sq() == max(diameter_sq(t)
                                     for t in tree.final.tops())
    _check_grid(tree)


def test_mixed_complex_keeps_exact_integer_rows_and_ids():
    # the shared edge runs one way in each triangle's vertex order
    base = SimplicialComplex([Simplex([(0, 0), (2, 0), (0, 2)]),
                              Simplex([(0, 2), (2, 0), (2, 2)]),
                              Simplex([(2, 2), (3, 3)])])
    tree = SubdividedComplex(base).refine(3)
    _check_grid(tree)
    assert tree.final.vertices() == sorted(
        {v for s in tree.final.simplices for v in s.vertices})
