"""Direct systems, witness-based colimits, universal maps, abelian modes."""

import random
from itertools import product

import pytest

from ascolim.direct_limits import (Cone, DirectSystemOfAbelianGroups,
                                   DirectSystemOfSets, Poset,
                                   abelian_colimit, set_colimit,
                                   times2_reducer, universal_map)
from ascolim.errors import InputError


def inclusion_chain(n=5):
    labels = list(range(n + 1))
    poset = Poset.chain(labels)
    objects = {k: list(range(k + 1)) for k in labels}
    bonding = {}
    for a in labels:
        for b in labels:
            if a < b:
                bonding[(b, a)] = {x: x for x in objects[a]}
    return DirectSystemOfSets(poset, objects, bonding)


def brute_force_classes(system):
    """Independent oracle: transitive closure of one-step equalization."""
    tagged = [(a, x) for a in system.poset.elements
              for x in system.objects[a]]
    related = set()
    for (a, x), (b, y) in product(tagged, repeat=2):
        for c in system.poset.upper_bounds(a, b):
            if system.map(c, a, x) == system.map(c, b, y):
                related.add(((a, x), (b, y)))
                break
    changed = True
    while changed:
        changed = False
        for p, q in list(related):
            for q2, r in list(related):
                if q == q2 and (p, r) not in related:
                    related.add((p, r))
                    changed = True
    classes = []
    seen = set()
    for t in tagged:
        if t in seen:
            continue
        group = sorted({u for u in tagged if (t, u) in related} | {t},
                       key=repr)
        classes.append(group)
        seen.update(group)
    return sorted(classes, key=repr)


def test_inclusion_chain_classes_and_injectivity():
    colim = set_colimit(inclusion_chain(5))
    assert len(colim.classes) == 6
    for k in range(6):
        mu = colim.limit_map(k)
        assert len(set(mu.values())) == len(mu)  # injective


def test_two_to_one_collapse_with_witness():
    poset = Poset.chain([1, 2])
    system = DirectSystemOfSets(
        poset,
        {1: ["a", "b"], 2: ["c"]},
        {(2, 1): {"a": "c", "b": "c"}},
    )
    colim = set_colimit(system)
    assert len(colim.classes) == 1
    assert colim.witness(1, "a", 1, "b") == 2
    assert colim.verify_witnesses()


def test_incomparable_indices_match_brute_force():
    # two incomparable indices under a common upper bound identifying
    # one element each
    poset = Poset(["l", "r", "t"], [("l", "t"), ("r", "t")])
    system = DirectSystemOfSets(
        poset,
        {"l": [0, 1], "r": [2, 3], "t": ["u", "v", "w"]},
        {("t", "l"): {0: "u", 1: "v"},
         ("t", "r"): {2: "u", 3: "w"}},
    )
    colim = set_colimit(system)
    got = sorted((sorted(g, key=repr) for g in colim.classes), key=repr)
    assert got == brute_force_classes(system)
    assert colim.class_of("l", 0) == colim.class_of("r", 2)
    assert colim.class_of("l", 1) != colim.class_of("r", 3)


def test_non_directed_poset_rejected():
    with pytest.raises(InputError):
        Poset(["a", "b"], [])


def test_functoriality_violation_rejected():
    poset = Poset.chain([0, 1, 2])
    with pytest.raises(InputError):
        DirectSystemOfSets(
            poset,
            {0: ["x"], 1: ["x"], 2: ["x", "y"]},
            {(1, 0): {"x": "x"}, (2, 1): {"x": "x"},
             (2, 0): {"x": "y"}},
        )


def _random_system(rng):
    if rng.random() < 0.3:
        return _random_vee_system(rng)
    n = rng.randint(1, 5)
    labels = list(range(n))
    poset = Poset.chain(labels)
    objects = {k: list(range(rng.randint(1, 6))) for k in labels}
    # build consecutive maps then compose for functoriality
    consecutive = {}
    for k in range(n - 1):
        consecutive[k] = {x: rng.randrange(len(objects[k + 1]))
                          for x in objects[k]}
    bonding = {}
    for a in labels:
        for b in labels:
            if a >= b:
                continue

            def chase(x, a=a, b=b):
                for k in range(a, b):
                    x = consecutive[k][x]
                return x

            bonding[(b, a)] = {x: chase(x) for x in objects[a]}
    return DirectSystemOfSets(poset, objects, bonding)


def _random_vee_system(rng):
    # two incomparable indices under a common top: the smallest
    # genuinely non-chain directed poset
    poset = Poset(["l", "r", "t"], [("l", "t"), ("r", "t")])
    objects = {a: list(range(rng.randint(1, 6))) for a in ("l", "r", "t")}
    bonding = {("t", a): {x: rng.randrange(len(objects["t"]))
                          for x in objects[a]} for a in ("l", "r")}
    return DirectSystemOfSets(poset, objects, bonding)


def test_bscdl_oracle_equivalence_random_systems():
    rng = random.Random(404)
    for _ in range(40):
        system = _random_system(rng)
        colim = set_colimit(system)
        got = sorted((sorted(g, key=repr) for g in colim.classes), key=repr)
        assert got == brute_force_classes(system)
        assert colim.verify_witnesses()


def test_universal_map_identity_cone():
    system = inclusion_chain(3)
    colim = set_colimit(system)
    cone = Cone(system, {a: colim.limit_map(a)
                         for a in system.poset.elements})
    values, report = universal_map(colim, cone)
    assert report.bijective
    assert sorted(values) == list(range(len(colim.classes)))


def test_universal_map_constant_cone():
    system = inclusion_chain(2)
    colim = set_colimit(system)
    cone = Cone(system, {a: {x: "*" for x in system.objects[a]}
                         for a in system.poset.elements})
    values, report = universal_map(colim, cone)
    assert report.well_defined and report.surjective
    assert not report.injective  # 3 classes, one target


def test_universal_property_and_uniqueness_by_perturbation():
    rng = random.Random(7)
    for _ in range(50):
        system = _random_system(rng)
        colim = set_colimit(system)
        maps = {a: {x: colim.class_of(a, x) for x in system.objects[a]}
                for a in system.poset.elements}
        cone = Cone(system, maps)
        values, report = universal_map(colim, cone)
        assert report.well_defined
        # psi . mu_a == lambda_a pointwise
        for a in system.poset.elements:
            for x in system.objects[a]:
                assert values[colim.class_of(a, x)] == cone.maps[a][x]
        # uniqueness: changing psi on any class breaks some equation
        for i in range(len(colim.classes)):
            perturbed = list(values)
            perturbed[i] = ("!", perturbed[i])
            broken = any(
                perturbed[colim.class_of(a, x)] != cone.maps[a][x]
                for a in system.poset.elements for x in system.objects[a])
            assert broken


def test_abelian_constant_system_is_z():
    labels = [0, 1, 2]
    ident = ((1,),)
    system = DirectSystemOfAbelianGroups(
        labels, {k: 1 for k in labels},
        {(1, 0): ident, (2, 1): ident},
        mode=("eventually-stable", 0))
    colim = abelian_colimit(system)
    assert colim.describe() == {"group": "Z^1", "stable_from": 0}
    assert colim.equal((0, (5,)), (2, (5,)))
    assert not colim.equal((0, (5,)), (2, (4,)))


def test_times2_chain_normal_form_arithmetic():
    labels = list(range(6))
    double = ((2,),)
    system = DirectSystemOfAbelianGroups(
        labels, {k: 1 for k in labels},
        {(k + 1, k): double for k in range(5)},
        mode=("normal-form", times2_reducer))
    colim = abelian_colimit(system)
    assert colim.equal((0, (3,)), (1, (6,)))
    assert not colim.equal((0, (3,)), (1, (3,)))
    # (0,1) + (1,1) = (1,3): lift (0,1) to level 1 as 2, add 1
    assert colim.add((0, (1,)), (1, (1,))) == (1, (3,))
    assert colim.normal_form((3, (8,))) == (0, (1,))


def test_stable_after_two_system_z2():
    labels = [0, 1, 2, 3]
    proj = ((1, 0), (0, 1))
    collapse = ((1, 0), (1, 1))
    system = DirectSystemOfAbelianGroups(
        labels, {k: 2 for k in labels},
        {(1, 0): collapse, (2, 1): proj, (3, 2): collapse},
        mode=("eventually-stable", 1))
    colim = abelian_colimit(system)
    assert colim.describe()["group"] == "Z^2"
    # composed isomorphism matrices are tracked explicitly
    assert colim.stable_isos[3] == ((1, 0), (1, 1))
    assert colim.equal((1, (2, 3)), (1, (2, 3)))
    lifted = system.lift(1, 3, (2, 3))
    assert colim.equal((1, (2, 3)), (3, lifted))


def test_non_unimodular_stable_bonding_rejected():
    labels = [0, 1]
    with pytest.raises(InputError):
        DirectSystemOfAbelianGroups(
            labels, {0: 1, 1: 1}, {(1, 0): ((2,),)},
            mode=("eventually-stable", 0))


def _unit_triangular_product(rng, n):
    """A dense integer ``n x n`` matrix of determinant 1: lower times upper
    unit-triangular factors with random entries."""
    low = [[1 if i == j else rng.randint(-3, 3) if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else rng.randint(-3, 3) if j > i else 0
           for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_ten_by_ten_stable_bondings_by_determinant():
    rng = random.Random(10)
    m = _unit_triangular_product(rng, 10)
    flipped = [m[1], m[0]] + m[2:]            # determinant -1
    doubled = [[2 * v for v in m[0]]] + m[1:]  # determinant 2
    for bonding in (m, flipped):
        system = DirectSystemOfAbelianGroups(
            [0, 1], {0: 10, 1: 10}, {(1, 0): bonding},
            mode=("eventually-stable", 0))
        assert system.lift(0, 1, (1,) + (0,) * 9) == \
            tuple(row[0] for row in bonding)
    with pytest.raises(InputError):
        DirectSystemOfAbelianGroups(
            [0, 1], {0: 10, 1: 10}, {(1, 0): doubled},
            mode=("eventually-stable", 0))
