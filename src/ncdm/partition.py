"""Margin-guided bipartitioning of classes (K-Lists).

The margin ncd1(A u B) - ncd1(A) - ncd1(B) measures how separated two
multisets are. K-Lists is an expectation-maximization bipartitioner in the
K-means mold, except the "representative" of a side is the side itself, so
only a single element may switch sides per iteration to prevent groups of
elements chasing each other back and forth. Classes are split recursively
while the best split is separated by more than the inter-class margin.

Partitioning plans, then scores, like every ``NcdCalculator`` operation: a
restart's seed distances, each iteration's candidate moves, the margins of
all class pairs and an item's deltas to every leaf are one map each.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classify import delta_scores
from .errors import DegenerateInputError
from .multiset import Element, Multiset
from .ncd import NcdCalculator

RNG_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class Margin:
    """Separation between two multisets, with the ratios it came from."""

    value: float
    ncd1_union: float
    ncd1_a: float
    ncd1_b: float


def _margins(calc: NcdCalculator, pairs: Sequence[tuple[Multiset, Multiset]]) -> list[Margin]:
    """The margin of each pair ``(a, b)``, from one plan over every union and side."""
    for a, b in pairs:
        if len(a) < 2 or len(b) < 2:
            raise DegenerateInputError(
                f"margin needs >= 2 members per side, got {len(a)} and {len(b)}"
            )
    wanted = [ms for a, b in pairs for ms in (a.union(b), a, b)]
    ratios = iter([profile.ncd1() for profile in calc.g_profiles(wanted)])
    return [Margin(union - va - vb, union, va, vb) for union, va, vb in zip(ratios, ratios, ratios)]


def margin(calc: NcdCalculator, a: Multiset, b: Multiset) -> Margin:
    return _margins(calc, [(a, b)])[0]


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs for the split search.

    ``min_size`` is an absolute member count when int, or a fraction of the
    original class size when a float in (0, 1); either way a side is never
    accepted below 2 members.
    """

    restarts: int = 5
    max_iters: int = 100
    min_size: int | float = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if isinstance(self.min_size, float) and not 0.0 < self.min_size < 1.0:
            raise ValueError("fractional min_size must be in (0, 1)")
        if isinstance(self.min_size, int) and self.min_size < 2:
            raise ValueError("min_size must be >= 2")


def resolve_min_size(min_size: int | float, class_size: int) -> int:
    if isinstance(min_size, float):
        return max(2, math.ceil(min_size * class_size))
    return max(2, int(min_size))


@dataclass(frozen=True)
class RestartOutcome:
    a: Multiset
    b: Multiset
    margin: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SplitResult:
    a: Multiset
    b: Multiset
    margin: Margin
    restarts: tuple[RestartOutcome, ...]


def _side_multiset(ms: Multiset, side: list[int], which: int) -> Multiset:
    return Multiset([ms[i] for i in range(len(ms)) if side[i] == which])


def _repair_min_side(
    seed_distance: dict[tuple[int, int], float],
    side: list[int],
    seed_idx: tuple[int, int],
    min_side: int,
) -> None:
    # A random start can leave a side below the minimum (down to the lone
    # seed, when the other seed attracts everything). The search keeps sides
    # legal throughout, so top a starved side up with whichever foreign
    # non-seed elements sit closest to its seed. Seeds never move, so every
    # candidate's distance to either seed is in ``seed_distance``.
    floor = max(2, min(min_side, len(side) - min_side))
    for which in (0, 1):
        while sum(1 for s in side if s == which) < floor:
            candidates = [
                i
                for i in range(len(side))
                if side[i] != which and i != seed_idx[1 - which]
            ]
            best = min(candidates, key=lambda i: (seed_distance[i, seed_idx[which]], i))
            side[best] = which


def _klists_restart(
    calc: NcdCalculator,
    ms: Multiset,
    cfg: PartitionConfig,
    rng: np.random.Generator,
    ncd1_whole: float,
    min_side: int,
) -> RestartOutcome:
    n = len(ms)
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    side = [0] * n
    side[j] = 1
    others = [k for k in range(n) if k not in (i, j)]
    seeded = [(k, s) for k in others for s in (i, j)]
    seed_distance = dict(zip(seeded, calc.ncd_pairs([(ms[k], ms[s]) for k, s in seeded])))
    for k in others:
        side[k] = 0 if seed_distance[k, i] <= seed_distance[k, j] else 1
    _repair_min_side(seed_distance, side, (i, j), min_side)

    converged = False
    # cfg.max_iters >= 1, so the first iteration always runs and sets cur_margin
    for iterations in range(1, cfg.max_iters + 1):
        sides = [_side_multiset(ms, side, 0), _side_multiset(ms, side, 1)]
        # Step 2: does each element prefer the other side? Its own-side score
        # is measured with the element taken out first, K-means style. Plan
        # every ratio the scan reads, then compress them in one map.
        movers: list[tuple[int, int]] = []
        wanted = list(sides)
        positions = [0, 0]
        for k in range(n):
            own = side[k]
            pos = positions[own]
            positions[own] += 1
            if len(sides[own]) <= max(min_side, 2):
                # the search honors the minimum side size throughout, which
                # also keeps both ratios well-defined
                continue
            movers.append((k, own))
            wanted += [sides[own].remove_at(pos), sides[1 - own].add(ms[k])]
        ncd1 = [profile.ncd1() for profile in calc.g_profiles(wanted)]
        if iterations == 1:
            cur_margin = ncd1_whole - ncd1[0] - ncd1[1]
        candidates: list[tuple[int, float]] = []
        for (k, own), own_without, other_with in zip(movers, ncd1[2::2], ncd1[3::2]):
            d_own = ncd1[own] - own_without
            d_other = other_with - ncd1[1 - own]
            if d_other < d_own:
                candidates.append((k, ncd1_whole - own_without - other_with))
        if not candidates:
            converged = True
            break
        # Step 3: move the single willing element that maximizes the margin,
        # but never accept a move that lowers the current separation.
        best_k, best_margin = max(candidates, key=lambda km: (km[1], -km[0]))
        if best_margin < cur_margin:
            converged = True
            break
        side[best_k] = 1 - side[best_k]
        cur_margin = best_margin
    a, b = _side_multiset(ms, side, 0), _side_multiset(ms, side, 1)
    return RestartOutcome(a, b, cur_margin, iterations, converged)


def klists_split(calc: NcdCalculator, ms: Multiset, cfg: PartitionConfig) -> SplitResult:
    """Search for the bipartition of ``ms`` with the largest margin.

    Each restart seeds two random elements, assigns the rest by pairwise
    distance to the seeds, then iterates single-element moves. The best
    restart by margin wins; a fixed seed fixes the whole result.
    """
    min_size = resolve_min_size(cfg.min_size, len(ms))
    if len(ms) < 2 * min_size:
        raise DegenerateInputError(
            f"cannot split {len(ms)} elements with min side size {min_size}"
        )
    ncd1_whole = calc.ncd1(ms).value  # union of any bipartition is ms itself
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    outcomes = [
        _klists_restart(calc, ms, cfg, np.random.default_rng(s), ncd1_whole, min_size)
        for s in streams
    ]
    best = max(range(len(outcomes)), key=lambda i: (outcomes[i].margin, -i))
    chosen = outcomes[best]
    return SplitResult(chosen.a, chosen.b, margin(calc, chosen.a, chosen.b), tuple(outcomes))


@dataclass
class PartitionNode:
    members: Multiset
    margin: float | None = None  # margin of the split below this node
    children: tuple["PartitionNode", ...] = ()
    accepted: bool = False

    def leaves(self) -> list["PartitionNode"]:
        return [leaf for child in self.children for leaf in child.leaves()] or [self]

    def to_dict(self) -> dict:
        return {
            "members": list(self.members.ids()),
            "margin": self.margin,
            "accepted": self.accepted,
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class PartitionTree:
    roots: dict[str, PartitionNode]
    stop_margin: float
    config: PartitionConfig

    def leaves(self, label: str) -> list[PartitionNode]:
        return self.roots[label].leaves()

    def to_dict(self) -> dict:
        return {
            "stop_margin": self.stop_margin,
            "rng": RNG_NAME,
            "config": dataclasses.asdict(self.config),
            "classes": {label: node.to_dict() for label, node in self.roots.items()},
        }


def _node_seed(base_seed: int, class_index: int, node_index: int) -> int:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(class_index, node_index))
    return int(seq.generate_state(1)[0])


def min_inter_class_margin(calc: NcdCalculator, classes: Mapping[str, Multiset]) -> float:
    """Smallest margin over all unordered pairs of classes."""
    if len(classes) < 2:
        raise DegenerateInputError("need >= 2 classes to measure separation")
    pairs = itertools.combinations(sorted(classes), 2)
    return min(m.value for m in _margins(calc, [(classes[x], classes[y]) for x, y in pairs]))


def recursive_partition(
    calc: NcdCalculator,
    classes: Mapping[str, Multiset],
    cfg: PartitionConfig,
    stop_margin: float | None = None,
) -> PartitionTree:
    """Split every class while splits beat the inter-class separation.

    A node becomes an accepted leaf when it is too small to split, or when
    the best split's margin does not exceed ``stop_margin``, or when a side
    would fall below the minimum size resolved against the original class.
    """
    if stop_margin is None:
        stop_margin = min_inter_class_margin(calc, classes)
    roots: dict[str, PartitionNode] = {}
    for class_index, label in enumerate(sorted(classes)):
        class_ms = classes[label]
        min_size = resolve_min_size(cfg.min_size, len(class_ms))
        counter = [0]

        def build(node_ms: Multiset) -> PartitionNode:
            node_index = counter[0]
            counter[0] += 1
            if len(node_ms) < 2 * min_size:
                return PartitionNode(node_ms, accepted=True)
            node_cfg = dataclasses.replace(
                cfg, seed=_node_seed(cfg.seed, class_index, node_index)
            )
            split = klists_split(calc, node_ms, node_cfg)
            if (
                split.margin.value > stop_margin
                and len(split.a) >= min_size
                and len(split.b) >= min_size
            ):
                return PartitionNode(
                    node_ms,
                    margin=split.margin.value,
                    children=(build(split.a), build(split.b)),
                )
            return PartitionNode(node_ms, accepted=True)

        roots[label] = build(class_ms)
    return PartitionTree(roots=roots, stop_margin=stop_margin, config=cfg)


def min_class_distances(
    calc: NcdCalculator,
    x: Element,
    tree: PartitionTree,
    k: int = 2,
) -> dict[str, list[float]]:
    """The k smallest per-leaf delta scores of x against each original class.

    A class with fewer than k leaves contributes a shorter list; there is no
    padding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not tree.roots:
        return {}
    leaves = {
        (label, i): leaf.members
        for label in tree.roots
        for i, leaf in enumerate(tree.leaves(label))
    }
    deltas = delta_scores(calc, x, leaves)
    return {
        label: sorted(d for (owner, _), d in deltas.items() if owner == label)[:k]
        for label in sorted(tree.roots)
    }
