"""Classification on top of multiset compression distances.

An unknown element goes to the class whose un-maximized distance grows the
least when the element is added; that delta can be negative when the element
is redundant with the class, which is exactly the discriminative signal. A
mean-pairwise-distance classifier is kept as the baseline, and leave-one-out
cross-validation reports accuracy with a Wilson score interval.

``classify_items`` is the one scoring path, shared by the library, the
``classify`` command and ``loocv``. It plans, then scores: a batch of
``(item, classes)`` cases asks for all its compressed sizes in one map
(``NcdCalculator.g_profiles`` over the distinct ``C + x`` and ``C`` for
delta-ncd1, ``NcdCalculator.ncd_pairs`` over every item-member pair for
min-distance), longest request first, and each score is then computed from
those sizes with the same float operations as a single item's. A whole
LOOCV is one such batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping, Sequence

from .errors import CorpusError, DegenerateInputError
from .multiset import Element, Multiset
from .ncd import NcdCalculator

@dataclass(frozen=True)
class TestItem:
    element: Element
    label: str | None = None


@dataclass
class LabeledCorpus:
    """Training multisets keyed by class label, plus optional held-out items."""

    classes: dict[str, Multiset]
    test_items: tuple[TestItem, ...] = ()

    def __post_init__(self) -> None:
        for label, ms in self.classes.items():
            if len(ms) == 0:
                raise CorpusError(f"class {label!r} is empty")


@dataclass(frozen=True)
class ItemResult:
    id: str
    true_label: str | None
    predicted: str
    scores: dict[str, float] = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "true_label": self.true_label,
            "predicted": self.predicted,
            "scores": dict(self.scores),
        }


@dataclass
class ClassificationReport:
    items: tuple[ItemResult, ...]
    accuracy: float
    ci: tuple[float, float]
    n: int
    method: str
    backend: str
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "items": [item.to_dict() for item in self.items],
            "accuracy": self.accuracy,
            "ci": list(self.ci),
            "n": self.n,
            "method": self.method,
            "backend": self.backend,
            "seed": self.seed,
        }

    def summary(self) -> str:
        lo, hi = self.ci
        return (
            f"{self.method}: {self.accuracy:.1%} correct "
            f"[{lo:.2f}, {hi:.2f}] over n={self.n}"
        )


def wilson_ci(p_hat: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1].

    Unlike the plain normal-approximation interval it stays informative at
    p_hat = 0 or 1, which is where classifier accuracies tend to live.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"proportion must be in [0, 1], got {p_hat}")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    # The interval provably contains p_hat (with equality at 0 and 1, where
    # rounding can push an endpoint one ulp past it), so snap to it.
    lo = min(max(0.0, center - half), p_hat)
    hi = max(min(1.0, center + half), p_hat)
    return (lo, hi)


def delta_ncd1(calc: NcdCalculator, x: Element, klass: Multiset) -> float:
    """Change of the un-maximized distance when one occurrence of x joins the class."""
    return delta_scores(calc, x, {"": klass})[""]


Case = tuple[TestItem, Mapping[str, Multiset]]


def _check_classes(classes: Mapping[str, Multiset]) -> None:
    if not classes:
        raise CorpusError("no classes to score against")


def _delta_batch(calc: NcdCalculator, cases: Sequence[Case]) -> list[dict[str, float]]:
    """delta-ncd1 of each case's item against each of its classes, from one plan."""
    wanted = []
    for item, classes in cases:
        _check_classes(classes)
        for label in sorted(classes):
            klass = classes[label]
            if len(klass) < 2:
                raise DegenerateInputError(f"class needs >= 2 members, got {len(klass)}")
            wanted += [klass.add(item.element), klass]
    ncd1 = iter([profile.ncd1() for profile in calc.g_profiles(wanted)])
    deltas = iter([with_x - without for with_x, without in zip(ncd1, ncd1)])
    return [{label: next(deltas) for label in sorted(classes)} for _, classes in cases]


def _mean_distance_batch(calc: NcdCalculator, cases: Sequence[Case]) -> list[dict[str, float]]:
    """Mean pairwise distance of each case's item to each of its classes, from one plan."""
    pairs = []
    for item, classes in cases:
        _check_classes(classes)
        for label in sorted(classes):
            if len(classes[label]) == 0:
                raise CorpusError(f"class {label!r} is empty")
            pairs += [(item.element, m) for m in classes[label]]
    distances = iter(calc.ncd_pairs(pairs))
    return [
        {
            label: sum(next(distances) for _ in classes[label]) / len(classes[label])
            for label in sorted(classes)
        }
        for _, classes in cases
    ]


def delta_scores(
    calc: NcdCalculator, x: Element, classes: Mapping[str, Multiset]
) -> dict[str, float]:
    return _delta_batch(calc, [(TestItem(x), classes)])[0]


def mean_distance_scores(
    calc: NcdCalculator, x: Element, classes: Mapping[str, Multiset]
) -> dict[str, float]:
    """Distance from x to each class: arithmetic mean of pairwise distances."""
    return _mean_distance_batch(calc, [(TestItem(x), classes)])[0]


def _argmin_label(scores: Mapping[str, float]) -> str:
    # min() keeps the first of equal keys, so sorting the labels makes the
    # tie-break the lexicographically smallest label.
    return min(sorted(scores), key=lambda label: scores[label])


SCORERS = {"delta-ncd1": _delta_batch, "min-distance": _mean_distance_batch}
METHODS = tuple(SCORERS)


def classify_items(
    calc: NcdCalculator, cases: Sequence[Case], method: str
) -> list[ItemResult]:
    """Score each case's item against its classes with ``method`` and take the argmin.

    Every size the batch needs is compressed in one map before any score is
    computed; the results equal scoring the cases one at a time.
    """
    scores = SCORERS[method](calc, cases)
    return [
        ItemResult(item.element.id, item.label, _argmin_label(s), s)
        for (item, _), s in zip(cases, scores)
    ]


def loocv(
    calc: NcdCalculator,
    corpus: LabeledCorpus,
    method: str = "delta-ncd1",
    level: float = 0.95,
    seed: int | None = None,
) -> ClassificationReport:
    """Leave-one-out cross-validation over every training element.

    Each element is held out in turn and its own occurrence is removed from
    its class before any scoring, so no method ever sees the held-out element
    on the training side. Every fold is one case of a single
    ``classify_items`` batch, so the whole LOOCV compresses in one map;
    results assemble in corpus order.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    classes = corpus.classes
    if len(classes) < 2:
        raise CorpusError(f"LOOCV needs >= 2 classes, got {len(classes)}")
    for label, ms in classes.items():
        if len(ms) < 3:
            raise CorpusError(
                f"class {label!r} has {len(ms)} members; LOOCV needs >= 3 "
                "so the depleted class keeps >= 2"
            )
    cases = [
        (TestItem(ms[idx], label), {**classes, label: ms.remove_at(idx)})
        for label, ms in sorted(classes.items())
        for idx in range(len(ms))
    ]
    items = classify_items(calc, cases, method)
    correct = sum(item.predicted == item.true_label for item in items)
    n = len(items)
    accuracy = correct / n
    return ClassificationReport(
        items=tuple(items),
        accuracy=accuracy,
        ci=wilson_ci(accuracy, n, level),
        n=n,
        method=method,
        backend=calc.backend.name,
        seed=seed,
    )
