import json
import random

import pytest

import ncdm.compressor
import ncdm.ncd
import ncdm.partition
from ncdm import (
    DegenerateInputError,
    Element,
    Multiset,
    NcdCalculator,
    PartitionConfig,
    PartitionTree,
    ZlibBackend,
    klists_split,
    margin,
    min_class_distances,
    min_inter_class_margin,
    recursive_partition,
)
from ncdm.partition import PartitionNode, resolve_min_size

from .conftest import (
    ALPHABET_A,
    ALPHABET_B,
    near_copy_class,
    phrase_class,
    random_text_element,
)


@pytest.fixture(scope="module")
def calc() -> NcdCalculator:
    # deflate keeps compressed-size noise at these corpus scales far below
    # the per-element preference gaps; all corpora fit its window
    return NcdCalculator(ZlibBackend(), jobs=2)


@pytest.fixture(scope="module")
def planted():
    a = phrase_class(60, ALPHABET_A, 10, prefix="a")
    b = phrase_class(61, ALPHABET_B, 10, prefix="b")
    return a, b


# -- margin --------------------------------------------------------------


def test_margin_identical_copies_near_zero(calc):
    base = random_text_element(1, 1200, "x")
    a = Multiset([Element(base.data, f"a{i}") for i in range(4)])
    b = Multiset([Element(base.data, f"b{i}") for i in range(4)])
    m = margin(calc, a, b)
    assert abs(m.value) <= 0.1
    assert m.value == pytest.approx(m.ncd1_union - m.ncd1_a - m.ncd1_b)


def test_margin_symmetric(calc, planted):
    a, b = planted
    assert margin(calc, Multiset(a), Multiset(b)).value == margin(
        calc, Multiset(b), Multiset(a)
    ).value


def test_planted_margin_beats_within_class_splits(calc, planted):
    a, b = planted
    between = margin(calc, Multiset(a), Multiset(b)).value
    within = margin(calc, Multiset(a[:5]), Multiset(a[5:])).value
    assert between > within


def test_margin_requires_two_per_side(calc):
    one = Multiset([random_text_element(2, 400, "x")])
    two = Multiset([random_text_element(3, 400, "y"), random_text_element(4, 400, "z")])
    with pytest.raises(DegenerateInputError):
        margin(calc, one, two)


# -- config ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(restarts=0)
    with pytest.raises(ValueError):
        PartitionConfig(max_iters=0)
    with pytest.raises(ValueError):
        PartitionConfig(min_size=1)
    with pytest.raises(ValueError):
        PartitionConfig(min_size=1.5)


def test_resolve_min_size():
    assert resolve_min_size(3, 10) == 3
    assert resolve_min_size(0.3, 10) == 3  # 30% of a 10-element class
    assert resolve_min_size(0.25, 10) == 3  # ceil
    assert resolve_min_size(0.01, 10) == 2  # floor of 2


# -- klists_split -----------------------------------------------------------


def test_klists_recovers_planted_bipartition(calc, planted):
    a, b = planted
    target = {frozenset(e.id for e in a), frozenset(e.id for e in b)}
    result = klists_split(
        calc, Multiset(a + b), PartitionConfig(restarts=5, min_size=8, seed=7)
    )
    recovered = sum(
        {frozenset(r.a.ids()), frozenset(r.b.ids())} == target for r in result.restarts
    )
    assert recovered >= 4
    assert {frozenset(result.a.ids()), frozenset(result.b.ids())} == target


def test_klists_sides_partition_input_exactly(calc, planted):
    a, b = planted
    ms = Multiset(a + b)
    result = klists_split(calc, ms, PartitionConfig(restarts=3, min_size=4, seed=1))
    for outcome in result.restarts:
        assert outcome.a.union(outcome.b) == ms
        assert len(outcome.a) >= 4 and len(outcome.b) >= 4
        assert outcome.iterations <= PartitionConfig().max_iters


def test_klists_identical_strings_margin_small(calc):
    base = random_text_element(5, 1200, "x")
    ms = Multiset([Element(base.data, f"c{i:02d}") for i in range(20)])
    result = klists_split(calc, ms, PartitionConfig(restarts=5, min_size=8, seed=0))
    assert result.margin.value <= 0.05


def test_klists_deterministic_under_seed_and_jobs(planted):
    a, b = planted
    ms = Multiset(a + b)
    cfg = PartitionConfig(restarts=3, min_size=8, seed=13)
    r1 = klists_split(NcdCalculator(ZlibBackend(), jobs=1), ms, cfg)
    r2 = klists_split(NcdCalculator(ZlibBackend(), jobs=4), ms, cfg)
    assert r1.a.ids() == r2.a.ids()
    assert r1.b.ids() == r2.b.ids()
    assert r1.margin.value == r2.margin.value


def test_klists_iteration_is_one_map(monkeypatch, planted):
    maps, calls = [], []
    real_map, real_compress = ncdm.ncd.parallel_map, ncdm.compressor.compress_len

    def counting_map(fn, items, pool):
        maps.append(pool)
        return real_map(fn, items, pool)

    def counting_compress(backend, data):
        calls.append(len(data))
        return real_compress(backend, data)

    monkeypatch.setattr(ncdm.ncd, "parallel_map", counting_map)
    monkeypatch.setattr(ncdm.compressor, "compress_len", counting_compress)
    a, b = planted
    calc = NcdCalculator(ZlibBackend(), jobs=2)
    result = klists_split(calc, Multiset(a + b), PartitionConfig(restarts=3, min_size=6, seed=5))
    # ncd1 of the whole set, then per restart: one map for the seed distances
    # (which repair reuses) and one per iteration (the first also gives the
    # starting margin); then one for the three ratios of the chosen margin
    iterations = sum(r.iterations for r in result.restarts)
    assert len(maps) == 1 + 3 + iterations + 1
    assert len(calls) == calc.cache.job_count


def test_klists_rejects_undersized_input(calc):
    ms = Multiset([random_text_element(10 + i, 300, f"x{i}") for i in range(5)])
    with pytest.raises(DegenerateInputError):
        klists_split(calc, ms, PartitionConfig(min_size=3))


# -- recursive_partition -----------------------------------------------------


def test_separated_classes_stay_single_leaves(calc):
    classes = {
        "p": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "q": Multiset(near_copy_class(71, ALPHABET_B, 10, prefix="q")),
    }
    tree = recursive_partition(calc, classes, PartitionConfig(min_size=3, seed=0))
    for label in classes:
        leaves = tree.leaves(label)
        assert len(leaves) == 1
        assert leaves[0].accepted
        assert leaves[0].members == classes[label]


def test_mixture_class_splits_once(calc):
    mix = near_copy_class(80, ALPHABET_B, 5, prefix="m1") + near_copy_class(
        81, ALPHABET_B, 5, prefix="m2"
    )
    classes = {
        "pure": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "mixed": Multiset(mix),
    }
    # 30% of a 10-element class resolves to 3, so 5/5 children become leaves
    tree = recursive_partition(
        calc, classes, PartitionConfig(min_size=0.3, seed=0), stop_margin=0.05
    )
    assert len(tree.leaves("pure")) == 1
    mixed_leaves = tree.leaves("mixed")
    assert len(mixed_leaves) == 2
    planted = {frozenset(e.id for e in mix[:5]), frozenset(e.id for e in mix[5:])}
    assert {frozenset(l.members.ids()) for l in mixed_leaves} == planted
    for leaf in mixed_leaves:
        assert len(leaf.members) >= 3


def test_partition_tree_deterministic(calc):
    classes = {
        "p": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "q": Multiset(near_copy_class(71, ALPHABET_B, 10, prefix="q")),
    }
    cfg = PartitionConfig(min_size=3, seed=5)
    t1 = recursive_partition(calc, classes, cfg)
    t2 = recursive_partition(calc, classes, cfg)
    assert json.dumps(t1.to_dict(), sort_keys=True) == json.dumps(t2.to_dict(), sort_keys=True)


def test_partition_tree_json_shape(calc):
    classes = {
        "p": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "q": Multiset(near_copy_class(71, ALPHABET_B, 10, prefix="q")),
    }
    tree = recursive_partition(calc, classes, PartitionConfig(min_size=3, seed=0))
    d = tree.to_dict()
    assert set(d) == {"stop_margin", "rng", "config", "classes"}
    node = d["classes"]["p"]
    assert set(node) == {"members", "margin", "accepted", "children"}
    assert node["accepted"] is True and node["children"] == []


def test_auto_stop_margin_is_min_over_pairs(calc):
    classes = {
        "p": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "q": Multiset(near_copy_class(71, ALPHABET_B, 10, prefix="q")),
        "r": Multiset(phrase_class(72, ALPHABET_A, 10, prefix="r")),
    }
    stop = min_inter_class_margin(calc, classes)
    pair_margins = [
        margin(calc, classes[x], classes[y]).value
        for x, y in (("p", "q"), ("p", "r"), ("q", "r"))
    ]
    assert stop == min(pair_margins)


# -- min_class_distances -------------------------------------------------------


def test_min_class_distances_unsplit_class_single_entry(calc):
    classes = {
        "p": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "q": Multiset(near_copy_class(71, ALPHABET_B, 10, prefix="q")),
    }
    tree = recursive_partition(calc, classes, PartitionConfig(min_size=3, seed=0))
    x = near_copy_class(70, ALPHABET_A, 11, prefix="x")[10]  # fresh draw, generator p
    distances = min_class_distances(calc, x, tree, k=2)
    assert set(distances) == {"p", "q"}
    assert len(distances["p"]) == 1  # unsplit class: no padding to k
    assert distances["p"][0] < distances["q"][0]


def test_min_class_distances_split_class_sorted(calc):
    mix = near_copy_class(80, ALPHABET_B, 5, prefix="m1") + near_copy_class(
        81, ALPHABET_B, 5, prefix="m2"
    )
    classes = {
        "pure": Multiset(near_copy_class(70, ALPHABET_A, 10, prefix="p")),
        "mixed": Multiset(mix),
    }
    tree = recursive_partition(
        calc, classes, PartitionConfig(min_size=0.3, seed=0), stop_margin=0.05
    )
    x = near_copy_class(80, ALPHABET_B, 6, prefix="x")[5]  # generator of leaf m1
    distances = min_class_distances(calc, x, tree, k=2)
    assert len(distances["mixed"]) == 2
    assert distances["mixed"][0] <= distances["mixed"][1]
    assert distances["mixed"][0] < distances["pure"][0]
    with pytest.raises(ValueError):
        min_class_distances(calc, x, tree, k=0)


# -- planned scores equal one-at-a-time ncd1 ------------------------------------


def _loop_margin(calc, a, b):
    union = calc.ncd1(a.union(b)).value
    va = calc.ncd1(a).value
    vb = calc.ncd1(b).value
    return (union - va - vb, union, va, vb)


def _with_copies(elements, prefix):
    # the first two texts again under other ids: equal request keys in one plan
    return Multiset(list(elements) + [Element(e.data, f"{prefix}-copy{i}") for i, e in enumerate(elements[:2])])


@pytest.mark.parametrize("jobs", [1, 2])
def test_planned_scores_equal_a_loop_over_ncd1(jobs):
    calc = NcdCalculator(ZlibBackend(), jobs=jobs)
    classes = {
        "p": _with_copies(near_copy_class(70, ALPHABET_A, 5, prefix="p"), "p"),
        "q": _with_copies(near_copy_class(71, ALPHABET_B, 5, prefix="q"), "q"),
        "r": _with_copies(phrase_class(72, ALPHABET_A, 5, prefix="r"), "r"),
    }
    for x, y in (("p", "q"), ("q", "r"), ("r", "r")):
        m = margin(calc, classes[x], classes[y])
        assert (m.value, m.ncd1_union, m.ncd1_a, m.ncd1_b) == _loop_margin(calc, classes[x], classes[y])
    pairs = [("p", "q"), ("p", "r"), ("q", "r")]
    expected = min(_loop_margin(calc, classes[x], classes[y])[0] for x, y in pairs)
    assert min_inter_class_margin(calc, classes) == expected

    p = classes["p"]
    tree = PartitionTree(
        roots={
            "p": PartitionNode(p, children=(PartitionNode(Multiset(p[:3])), PartitionNode(Multiset(p[3:])))),
            "q": PartitionNode(classes["q"]),
        },
        stop_margin=0.0,
        config=PartitionConfig(),
    )
    x = Element(classes["r"][0].data, "x")
    for k in (1, 2):
        loop = {
            label: sorted(
                calc.ncd1(leaf.members.add(x)).value - calc.ncd1(leaf.members).value
                for leaf in tree.leaves(label)
            )[:k]
            for label in sorted(tree.roots)
        }
        assert min_class_distances(calc, x, tree, k=k) == loop
    assert min_class_distances(calc, x, PartitionTree({}, 0.0, PartitionConfig())) == {}


def test_repair_reuses_the_seed_distances(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("repair asked for a pairwise distance")

    moved = []
    real_repair = ncdm.partition._repair_min_side

    def recording_repair(*args):
        side = args[-3]  # repaired in place
        before = list(side)
        real_repair(*args)
        moved.append(sum(s != t for s, t in zip(before, side)))

    monkeypatch.setattr(NcdCalculator, "ncd_pairwise", refuse)
    monkeypatch.setattr(ncdm.partition, "_repair_min_side", recording_repair)
    mix = near_copy_class(80, ALPHABET_B, 9, prefix="m") + near_copy_class(81, ALPHABET_A, 3, prefix="n")
    calc = NcdCalculator(ZlibBackend(), jobs=1)
    result = klists_split(calc, Multiset(mix), PartitionConfig(restarts=5, min_size=0.4, seed=3))
    assert sum(moved) > 0  # some restart started with a starved side
    assert len(result.a) >= 5 and len(result.b) >= 5
