"""Finite direct systems and their colimits, with stored witnesses.

Set colimits are computed by union-find over the tagged disjoint union,
merging each element with its bonding images; two tagged elements share a
class precisely when some common upper index equalizes them, and every
merge (and every queried equality) carries such a witness index that
re-verifies by evaluating the bonding maps.  Abelian-group systems come in
the two desk modes: eventually stable (bondings become isomorphisms) and
normal-form chains (injective bondings with a declared canonical form).
"""

from dataclasses import dataclass
from itertools import product

from ascolim import linalg
from ascolim.errors import InputError


class Poset:
    """Finite directed poset from a cover/comparability relation."""

    def __init__(self, elements, relation):
        self.elements = list(elements)
        idx = {e: i for i, e in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise InputError("repeated poset element")
        n = len(self.elements)
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for a, b in relation:
            leq[idx[a]][idx[b]] = True
        changed = True
        while changed:  # transitive closure, tiny posets only
            changed = False
            for i, j, k in product(range(n), repeat=3):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    leq[i][k] = True
                    changed = True
        for i in range(n):
            for j in range(i + 1, n):
                if leq[i][j] and leq[j][i]:
                    raise InputError("relation is not antisymmetric")
        self._idx = idx
        self._leq = leq
        for a in self.elements:
            for b in self.elements:
                if not self.upper_bounds(a, b):
                    raise InputError(
                        f"poset not directed: {a!r}, {b!r} have no upper bound")

    def leq(self, a, b):
        return self._leq[self._idx[a]][self._idx[b]]

    def upper_bounds(self, a, b):
        return [c for c in self.elements
                if self.leq(a, c) and self.leq(b, c)]

    def related_pairs(self):
        return [(a, b) for a in self.elements for b in self.elements
                if a != b and self.leq(a, b)]

    @staticmethod
    def chain(labels):
        labels = list(labels)
        return Poset(labels, [(labels[i], labels[i + 1])
                              for i in range(len(labels) - 1)])


class DirectSystemOfSets:
    """Finite sets ``X_a`` with bonding maps ``f_{b,a}`` for ``a <= b``."""

    def __init__(self, poset, objects, bonding):
        self.poset = poset
        self.objects = {a: list(objects[a]) for a in poset.elements}
        self.bonding = {}
        for (b, a), fn in bonding.items():
            self.bonding[(b, a)] = dict(fn)
        self.validate()

    def map(self, b, a, x):
        """Apply ``f_{b,a}``; identity when ``a == b``."""
        if a == b:
            return x
        try:
            return self.bonding[(b, a)][x]
        except KeyError:
            raise InputError(f"no bonding value for {x!r} along {a!r}->{b!r}")

    def validate(self):
        po = self.poset
        for (a, b) in po.related_pairs():
            if (b, a) not in self.bonding:
                raise InputError(f"missing bonding map {a!r} -> {b!r}")
            fn = self.bonding[(b, a)]
            for x in self.objects[a]:
                if x not in fn:
                    raise InputError(f"bonding {a!r}->{b!r} undefined at {x!r}")
                if fn[x] not in self.objects[b]:
                    raise InputError(
                        f"bonding {a!r}->{b!r} leaves the target at {x!r}")
        # functoriality over all chains a <= b <= c
        for a in po.elements:
            for b in po.elements:
                if a == b or not po.leq(a, b):
                    continue
                for c in po.elements:
                    if b == c or not po.leq(b, c):
                        continue
                    for x in self.objects[a]:
                        if self.map(c, b, self.map(b, a, x)) \
                                != self.map(c, a, x):
                            raise InputError(
                                f"functoriality fails at {x!r} along "
                                f"{a!r}<={b!r}<={c!r}")
        return True


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class SetColimit:
    """Classes of the tagged union plus verified equality witnesses."""

    def __init__(self, system):
        self.system = system
        uf = _UnionFind()
        for a in system.poset.elements:
            for x in system.objects[a]:
                uf.add((a, x))
        self.merge_witnesses = []
        for (a, b) in system.poset.related_pairs():
            for x in system.objects[a]:
                y = system.map(b, a, x)
                uf.union((a, x), (b, y))
                self.merge_witnesses.append(((a, x), (b, y), b))
        groups = {}
        for a in system.poset.elements:
            for x in system.objects[a]:
                groups.setdefault(uf.find((a, x)), []).append((a, x))
        self.classes = sorted((sorted(g, key=repr) for g in groups.values()),
                              key=repr)
        self._class_of = {}
        for i, group in enumerate(self.classes):
            for tagged in group:
                self._class_of[tagged] = i

    def class_of(self, a, x):
        try:
            return self._class_of[(a, x)]
        except KeyError:
            raise InputError(f"unknown tagged element ({a!r}, {x!r})")

    def limit_map(self, a):
        """The map ``mu_a`` from ``X_a`` to class indices."""
        return {x: self.class_of(a, x) for x in self.system.objects[a]}

    def witness(self, a, x, b, y):
        """An index equalizing the two tagged elements, or ``None``.

        Scans the common upper bounds in poset order; a same-class pair in
        a directed poset always has a single equalizing index.
        """
        sys_ = self.system
        for c in sys_.poset.upper_bounds(a, b):
            if sys_.map(c, a, x) == sys_.map(c, b, y):
                return c
        return None

    def verify_witnesses(self):
        """Re-check every stored merge witness and class consistency."""
        sys_ = self.system
        for (a, x), (b, y), c in self.merge_witnesses:
            if sys_.map(c, a, x) != sys_.map(c, b, y):
                return False
            if self.class_of(a, x) != self.class_of(b, y):
                return False
        for group in self.classes:
            (a0, x0) = group[0]
            for (a, x) in group[1:]:
                if self.witness(a0, x0, a, x) is None:
                    return False
        return True


def set_colimit(system):
    return SetColimit(system)


class Cone:
    """Maps ``lam_a : X_a -> target`` commuting with the bonding."""

    def __init__(self, system, maps, target=None):
        self.system = system
        self.maps = {a: dict(maps[a]) for a in system.poset.elements}
        values = set()
        for a in system.poset.elements:
            for x in system.objects[a]:
                if x not in self.maps[a]:
                    raise InputError(f"cone map at {a!r} undefined on {x!r}")
                values.add(self.maps[a][x])
        self.target = list(target) if target is not None else sorted(
            values, key=repr)
        for a, b in system.poset.related_pairs():
            for x in system.objects[a]:
                if self.maps[b][system.map(b, a, x)] != self.maps[a][x]:
                    raise InputError(
                        f"cone incompatible with bonding at {x!r} "
                        f"({a!r} <= {b!r})")


@dataclass
class UniversalMapReport:
    well_defined: bool
    surjective: bool
    injective: bool
    missed_targets: list
    collisions: list

    @property
    def bijective(self):
        return self.well_defined and self.surjective and self.injective


def universal_map(colimit, cone):
    """The unique map from the colimit induced by a compatible cone.

    Returns ``(values, report)``: per-class value plus the bijectivity
    report with witnesses for failures.
    """
    if cone.system is not colimit.system:
        raise InputError("cone over a different system")
    values = []
    well_defined = True
    for group in colimit.classes:
        vals = {cone.maps[a][x] for (a, x) in group}
        if len(vals) != 1:
            well_defined = False
        values.append(sorted(vals, key=repr)[0])
    hit = set(values)
    missed = [t for t in cone.target if t not in hit]
    collisions = []
    seen = {}
    for i, v in enumerate(values):
        if v in seen:
            collisions.append((seen[v], i, v))
        else:
            seen[v] = i
    report = UniversalMapReport(
        well_defined=well_defined,
        surjective=not missed,
        injective=not collisions,
        missed_targets=missed,
        collisions=collisions,
    )
    return values, report


# -- abelian-group systems ---------------------------------------------------


def _mat_vec(mat, vec):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec)))
                 for row in mat)


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


class DirectSystemOfAbelianGroups:
    """Chain of ``Z^k`` groups with integer bonding matrices.

    ``mode`` is ``("eventually-stable", index)`` (bondings at or above the
    index are unimodular) or ``("normal-form", reducer)`` (injective
    bondings; ``reducer`` maps an element ``(level, vector)`` to its
    canonical representative).
    """

    def __init__(self, labels, dims, bondings, mode):
        self.labels = list(labels)
        self.dims = dict(dims)
        self.bondings = {k: tuple(tuple(int(v) for v in row) for row in m)
                         for k, m in bondings.items()}
        self.mode = mode
        if len(self.labels) < 1:
            raise InputError("empty chain")
        for i in range(len(self.labels) - 1):
            a, b = self.labels[i], self.labels[i + 1]
            m = self.bondings.get((b, a))
            if m is None:
                raise InputError(f"missing bonding matrix {a!r} -> {b!r}")
            if len(m) != self.dims[b] or any(len(r) != self.dims[a]
                                             for r in m):
                raise InputError(f"bonding {a!r}->{b!r} has wrong shape")
        kind = mode[0]
        if kind == "eventually-stable":
            start = self.labels.index(mode[1])
            for i in range(start, len(self.labels) - 1):
                a, b = self.labels[i], self.labels[i + 1]
                m = self.bondings[(b, a)]
                if self.dims[a] != self.dims[b] or linalg.abs_det(
                        [v for r in m for v in r], self.dims[a]) != 1:
                    raise InputError(
                        f"bonding {a!r}->{b!r} is not an isomorphism "
                        "in the stable range")
        elif kind == "normal-form":
            for i in range(len(self.labels) - 1):
                a, b = self.labels[i], self.labels[i + 1]
                m = self.bondings[(b, a)]
                # injectivity of an integer matrix: full column rank
                if linalg.rank([list(r) for r in m]) != self.dims[a]:
                    raise InputError(f"bonding {a!r}->{b!r} not injective")
        else:
            raise InputError(f"unknown mode {kind!r}")

    def lift(self, level_from, level_to, vec):
        """Push a vector up the chain through the bonding matrices."""
        i = self.labels.index(level_from)
        j = self.labels.index(level_to)
        if j < i:
            raise InputError("cannot lift downward")
        out = tuple(int(v) for v in vec)
        for k in range(i, j):
            a, b = self.labels[k], self.labels[k + 1]
            out = _mat_vec(self.bondings[(b, a)], out)
        return out


class AbelianColimit:
    """Element calculus for the colimit of an abelian chain."""

    def __init__(self, system):
        self.system = system
        kind = system.mode[0]
        self.kind = kind
        if kind == "eventually-stable":
            self.stable_from = system.mode[1]
            self.stable_dim = system.dims[self.stable_from]
            isos = {self.stable_from: _identity(self.stable_dim)}
            start = system.labels.index(self.stable_from)
            acc = _identity(self.stable_dim)
            for k in range(start, len(system.labels) - 1):
                a, b = system.labels[k], system.labels[k + 1]
                acc = _mat_mul(system.bondings[(b, a)], acc)
                isos[b] = acc
            self.stable_isos = isos  # stable step -> composed matrix
        else:
            self.reduce = system.mode[1]

    def describe(self):
        if self.kind == "eventually-stable":
            return {"group": f"Z^{self.stable_dim}",
                    "stable_from": self.stable_from}
        return {"group": "normal-form chain colimit"}

    def normal_form(self, element):
        level, vec = element
        if self.kind == "eventually-stable":
            sys_ = self.system
            pos = sys_.labels.index(level)
            stable_pos = sys_.labels.index(self.stable_from)
            if pos < stable_pos:
                vec = sys_.lift(level, self.stable_from, vec)
                level = self.stable_from
            return (level, tuple(int(v) for v in vec))
        return self.reduce((level, tuple(int(v) for v in vec)))

    def equal(self, e1, e2):
        n1, n2 = self.normal_form(e1), self.normal_form(e2)
        if self.kind == "eventually-stable":
            top = max(n1[0], n2[0], key=self.system.labels.index)
            return self.system.lift(n1[0], top, n1[1]) \
                == self.system.lift(n2[0], top, n2[1])
        return n1 == n2

    def add(self, e1, e2):
        l1, v1 = e1
        l2, v2 = e2
        labels = self.system.labels
        top = max(l1, l2, key=labels.index)
        w1 = self.system.lift(l1, top, v1)
        w2 = self.system.lift(l2, top, v2)
        return self.normal_form((top, tuple(a + b for a, b in zip(w1, w2))))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def abelian_colimit(system):
    return AbelianColimit(system)


def times2_reducer(element):
    """Normal form on the doubling chain (integer labels 0..N):
    shift even vectors down, zero lives at level 0."""
    level, vec = element
    vec = tuple(int(v) for v in vec)
    if all(v == 0 for v in vec):
        return (0, vec)
    while level > 0 and all(v % 2 == 0 for v in vec):
        vec = tuple(v // 2 for v in vec)
        level -= 1
    return (level, vec)
