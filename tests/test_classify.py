import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncdm.classify
from ncdm import (
    Bz2Backend,
    CorpusError,
    DegenerateInputError,
    Element,
    Multiset,
    NcdCalculator,
    TestItem as Item,
    classify_items,
    delta_ncd1,
    loocv,
    wilson_ci,
)

from ncdm import ZlibBackend

from .conftest import (
    ALPHABET_A,
    ALPHABET_B,
    fragment_elements,
    make_vocab,
    random_element,
    random_text_element,
    text_fragment,
)


@pytest.fixture(scope="module")
def two_generator_corpus() -> dict[str, Multiset]:
    vocab_a = make_vocab(1, ALPHABET_A)
    vocab_b = make_vocab(2, ALPHABET_B)
    return {
        "alpha": Multiset(fragment_elements(11, vocab_a, 8, prefix="a")),
        "beta": Multiset(fragment_elements(12, vocab_b, 8, prefix="b")),
    }


@pytest.fixture(scope="module")
def calc() -> NcdCalculator:
    return NcdCalculator(Bz2Backend(), jobs=1)


def predict(calc, x, classes, method="delta-ncd1") -> str:
    return classify_items(calc, [(Item(x), classes)], method)[0].predicted


# -- wilson_ci ----------------------------------------------------------


@pytest.mark.parametrize(
    "p_hat,n,expected",
    [
        (0.99, 72, (0.93, 1.00)),
        (1.00, 72, (0.95, 1.00)),
        (0.87, 86, (0.78, 0.93)),
        (0.83, 78, (0.73, 0.90)),
        (0.57, 656, (0.53, 0.61)),
    ],
)
def test_wilson_reproduces_published_intervals(p_hat, n, expected):
    lo, hi = wilson_ci(p_hat, n)
    assert (round(lo, 2), round(hi, 2)) == expected


def test_wilson_rejects_a_bad_count_or_proportion():
    with pytest.raises(ValueError):
        wilson_ci(0.5, 0)
    with pytest.raises(ValueError):
        wilson_ci(1.5, 10)


@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=100_000),
)
@settings(max_examples=300, deadline=None)
def test_wilson_contains_p_hat_and_stays_in_unit_interval(p, n):
    lo, hi = wilson_ci(p, n)
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_width_shrinks_with_n():
    widths = []
    for n in (10, 20, 40, 80, 160, 320):
        lo, hi = wilson_ci(0.3, n)
        widths.append(hi - lo)
    assert all(a > b for a, b in zip(widths, widths[1:]))


# -- delta scoring ------------------------------------------------------


def test_delta_redundant_element_near_zero():
    # measured 0.0089 for a deflate backend on random 4 KiB; the match-length
    # cap keeps perfect redundancy from being quite free
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)
    a = random_element(20, 4096, "a")
    klass = Multiset([Element(a.data, f"a{i}") for i in range(3)])
    assert delta_ncd1(calc, a, klass) <= 0.02


def test_delta_orders_related_before_unrelated():
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)
    a = random_element(21, 4096, "a")
    b = random_element(22, 4096, "b")
    klass = Multiset([Element(a.data, f"a{i}") for i in range(3)])
    assert delta_ncd1(calc, a, klass) < delta_ncd1(calc, b, klass)


def test_delta_invariant_to_supply_order(calc):
    vocab = make_vocab(3, ALPHABET_A)
    members = fragment_elements(23, vocab, 5)
    x = fragment_elements(24, vocab, 1, prefix="x")[0]
    rng = random.Random(0)
    shuffled = members[:]
    rng.shuffle(shuffled)
    assert delta_ncd1(calc, x, Multiset(members)) == delta_ncd1(calc, x, Multiset(shuffled))


def test_delta_requires_two_members(calc):
    with pytest.raises(DegenerateInputError):
        delta_ncd1(calc, random_text_element(1, 64, "x"), Multiset([random_text_element(2, 64, "m")]))


# -- classification rules ------------------------------------------------


def test_classify_by_delta_recovers_generator(calc, two_generator_corpus):
    vocab_a = make_vocab(1, ALPHABET_A)
    x = Element(text_fragment(random.Random(99), vocab_a), id="query")
    assert predict(calc, x, two_generator_corpus) == "alpha"


def test_classify_training_duplicate_goes_home(calc, two_generator_corpus):
    member = two_generator_corpus["beta"][0]
    x = Element(member.data, id="dup")
    assert predict(calc, x, two_generator_corpus) == "beta"
    assert predict(calc, x, two_generator_corpus, "min-distance") == "beta"


def test_classify_tie_breaks_lexicographically(calc):
    vocab = make_vocab(4, ALPHABET_A)
    members = fragment_elements(25, vocab, 4)
    same = Multiset(members)
    classes = {"zed": same, "ann": Multiset(list(same))}
    x = fragment_elements(26, vocab, 1, prefix="x")[0]
    # identical classes produce identical scores; the smaller label wins
    assert predict(calc, x, classes) == "ann"
    assert predict(calc, x, classes, "min-distance") == "ann"


def test_min_distance_recovers_generator(calc, two_generator_corpus):
    vocab_b = make_vocab(2, ALPHABET_B)
    x = Element(text_fragment(random.Random(98), vocab_b), id="query")
    assert predict(calc, x, two_generator_corpus, "min-distance") == "beta"


def test_empty_class_map_rejected(calc):
    with pytest.raises(CorpusError):
        predict(calc, random_text_element(1, 64, "x"), {})


@pytest.mark.parametrize("method", ncdm.classify.METHODS)
def test_empty_class_rejected_by_every_method(calc, method):
    classes = {"full": Multiset([random_text_element(2 + i, 64, f"m{i}") for i in range(2)])}
    with pytest.raises(CorpusError, match="class 'void' is empty"):
        predict(calc, random_text_element(1, 64, "x"), {**classes, "void": Multiset()}, method)


def test_classify_items_rejects_an_unknown_method(calc, two_generator_corpus):
    case = (Item(random_text_element(1, 64, "x")), two_generator_corpus)
    with pytest.raises(ValueError, match="unknown method 'centroid'"):
        classify_items(calc, [case], "centroid")


# -- loocv ---------------------------------------------------------------


def test_loocv_perfect_on_seed_repeats(calc):
    # every element repeats its class seed: folds are trivially separable
    seed_a = random_text_element(30, 2048, "seedA")
    seed_b = random_text_element(31, 2048, "seedB")
    corpus = {
        "a": Multiset([Element(seed_a.data, f"a{i}") for i in range(4)]),
        "b": Multiset([Element(seed_b.data, f"b{i}") for i in range(4)]),
    }
    for method in ("delta-ncd1", "min-distance"):
        report = loocv(calc, corpus, method=method)
        assert report.accuracy == 1.0
        assert report.n == 8
        lo, hi = report.ci
        assert lo <= report.accuracy <= hi


def test_loocv_two_generator_high_accuracy(calc, two_generator_corpus):
    report = loocv(calc, two_generator_corpus, method="delta-ncd1")
    assert report.accuracy >= 0.9
    assert report.n == 16
    assert len(report.items) == 16
    for item in report.items:
        assert set(item.scores) == {"alpha", "beta"}


def test_loocv_never_scores_against_own_occurrence(calc, two_generator_corpus):
    # a duplicated element must not leak: plant a twin pair in one class and
    # check the fold for one twin still contains only the other twin
    vocab = make_vocab(5, ALPHABET_A)
    twin = fragment_elements(40, vocab, 1, prefix="twin")[0]
    classes = {
        "a": Multiset(
            fragment_elements(41, vocab, 3, prefix="a")
            + [Element(twin.data, "twin0"), Element(twin.data, "twin1")]
        ),
        "b": Multiset(fragment_elements(42, make_vocab(6, ALPHABET_B), 3, prefix="b")),
    }
    report = loocv(calc, classes, method="delta-ncd1")
    twin_items = [i for i in report.items if i.id.startswith("twin")]
    assert len(twin_items) == 2
    for item in twin_items:
        assert item.predicted == "a"  # its twin is still inside the class


def test_loocv_requires_three_members(calc):
    corpus = {
        "a": Multiset([random_text_element(50 + i, 256, f"a{i}") for i in range(2)]),
        "b": Multiset([random_text_element(60 + i, 256, f"b{i}") for i in range(3)]),
    }
    with pytest.raises(CorpusError, match="needs >= 3"):
        loocv(NcdCalculator(Bz2Backend(), jobs=1), corpus)


def test_loocv_requires_two_classes(calc):
    corpus = {"only": Multiset([random_text_element(70 + i, 256, f"o{i}") for i in range(3)])}
    with pytest.raises(CorpusError, match=">= 2 classes"):
        loocv(calc, corpus)


def test_loocv_report_reproducible(two_generator_corpus):
    import json

    first = loocv(NcdCalculator(Bz2Backend(), jobs=1), two_generator_corpus)
    second = loocv(NcdCalculator(Bz2Backend(), jobs=4), two_generator_corpus)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_loocv_rejects_unknown_method(calc, two_generator_corpus):
    with pytest.raises(ValueError, match="unknown method"):
        loocv(calc, two_generator_corpus, method="centroid")


def test_report_summary_format(calc, two_generator_corpus):
    report = loocv(calc, two_generator_corpus)
    text = report.summary()
    assert "delta-ncd1" in text and "n=16" in text


# -- LOOCV as one plan -----------------------------------------------------


def reference_loocv_items(calc, classes, method):
    """A plain fold-by-fold loop over ``ncd1`` and ``ncd_pairwise``."""
    items = []
    for label in sorted(classes):
        ms = classes[label]
        for idx in range(len(ms)):
            x = ms[idx]
            fold = dict(classes)
            fold[label] = ms.remove_at(idx)
            scores = {}
            for other in sorted(fold):
                klass = fold[other]
                if method == "delta-ncd1":
                    scores[other] = calc.ncd1(klass.add(x)).value - calc.ncd1(klass).value
                else:
                    scores[other] = sum(calc.ncd_pairwise(x, m).value for m in klass) / len(klass)
            predicted = min(sorted(scores), key=lambda k: scores[k])
            items.append((x.id, label, predicted, scores))
    return items


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("method", ["delta-ncd1", "min-distance"])
def test_loocv_equals_a_fold_by_fold_loop(two_generator_corpus, method, jobs):
    classes = dict(two_generator_corpus)
    # a copy of one member under another id, so folds share requests by key
    classes["alpha"] = classes["alpha"].add(Element(classes["alpha"][0].data, "copy"))
    report = loocv(NcdCalculator(ZlibBackend(), jobs=jobs), classes, method)
    expected = reference_loocv_items(NcdCalculator(ZlibBackend(), jobs=1), classes, method)
    got = [(i.id, i.true_label, i.predicted, i.scores) for i in report.items]
    assert got == expected
    for (_, _, _, got_scores), (_, _, _, want_scores) in zip(got, expected):
        assert [s.hex() for s in got_scores.values()] == [s.hex() for s in want_scores.values()]


def test_loocv_folds_hold_out_exactly_the_item(monkeypatch, calc, two_generator_corpus):
    batches = []
    real = ncdm.classify.classify_items

    def recording(calc, cases, method):
        batches.append(list(cases))
        return real(calc, cases, method)

    monkeypatch.setattr(ncdm.classify, "classify_items", recording)
    classes = two_generator_corpus
    loocv(calc, two_generator_corpus)
    assert len(batches) == 1
    folds = batches[0]
    assert len(folds) == sum(len(ms) for ms in classes.values())
    for item, fold in folds:
        assert set(fold) == set(classes)
        for label, ms in fold.items():
            assert item.element.id not in ms.ids()
            short = 1 if label == item.label else 0
            assert sorted(ms.ids()) == sorted(
                i for i in classes[label].ids() if i != item.element.id
            )
            assert len(ms) == len(classes[label]) - short


def test_delta_loocv_is_one_map(maps, two_generator_corpus):
    loocv(NcdCalculator(ZlibBackend(), jobs=2), two_generator_corpus, method="delta-ncd1")
    assert len(maps) == 1 and maps[0] is not None
