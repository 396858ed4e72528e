import random
from collections import Counter

import pytest

from kgsynth.errors import SamplingError, UniquenessError
from kgsynth.textgen import (
    UnigramModel,
    fit_unigram,
    sample_string,
    sample_unique_strings,
)


def test_fit_counts_directly():
    model = fit_unigram(["ab", "b"])
    assert model.probabilities == {"a": 1 / 5, "b": 2 / 5}
    assert model.eos_probability == 2 / 5


def test_fit_with_empty_strings():
    model = fit_unigram(["", "", "", "x"])
    assert model.probabilities == {"x": 1 / 5}
    assert model.eos_probability == 4 / 5


def test_fit_empty_corpus_rejected():
    with pytest.raises(ValueError):
        fit_unigram([])


def test_fit_all_empty_strings_rejected():
    with pytest.raises(ValueError):
        fit_unigram(["", ""])


def test_fit_probabilities_sum_to_one():
    corpus = ["Johann Bernoulli", "Basel", "wasBornIn", "diedIn", "hasChild"]
    model = fit_unigram(corpus)
    total = sum(model.probabilities.values()) + model.eos_probability
    assert abs(total - 1.0) < 1e-12
    assert model.probabilities[" "] > 0


def test_fit_matches_independent_counting():
    corpus = ["alpha beta", "gamma", "delta epsilon zeta"]
    model = fit_unigram(corpus)
    chars = Counter("".join(corpus))
    denom = sum(chars.values()) + len(corpus)
    for char, count in chars.items():
        assert model.probabilities[char] == count / denom
    assert model.eos_probability == len(corpus) / denom


def test_model_invariant_enforced():
    with pytest.raises(ValueError):
        UnigramModel(probabilities={"a": 0.9}, eos_probability=0.2)
    with pytest.raises(ValueError):
        UnigramModel(probabilities={"a": 1.0}, eos_probability=0.0)


def test_sample_string_geometric_lengths():
    model = UnigramModel(probabilities={"x": 0.5}, eos_probability=0.5)
    rng = random.Random(3)
    lengths = Counter(len(sample_string(model, rng)) for _ in range(20000))
    assert set(lengths) <= set(range(1, 40))
    # P(len = k | len >= 1) = 2^-k / (1 - 2^-1) -> 1/2, 1/4, ... over k >= 1
    assert abs(lengths[1] / 20000 - 0.5) < 0.02
    assert abs(lengths[2] / 20000 - 0.25) < 0.02


def test_sample_string_degenerate_model_errors():
    model = UnigramModel(probabilities={}, eos_probability=1.0)
    with pytest.raises(SamplingError):
        sample_string(model, random.Random(0))


def test_sampled_char_frequencies_follow_model():
    model = fit_unigram(["ab", "b"])
    rng = random.Random(11)
    counts = Counter()
    total = 0
    while total < 200000:
        s = sample_string(model, rng)
        counts.update(s)
        total += len(s)
    # conditioned on non-EOS: p(a)=1/3, p(b)=2/3
    assert abs(counts["a"] / total - 1 / 3) < 0.005
    assert abs(counts["b"] / total - 2 / 3) < 0.005


def test_unique_strings_zero_count():
    model = fit_unigram(["ab", "b"])
    assert sample_unique_strings(model, 0, set(), seed=1) == []


def test_unique_strings_distinct_and_seed_stable():
    model = fit_unigram(["knowledge graph", "relation name", "entity"])
    first = sample_unique_strings(model, 50, {"entity"}, seed=9)
    second = sample_unique_strings(model, 50, {"entity"}, seed=9)
    assert first == second
    assert len(set(first)) == 50
    assert "entity" not in first


def test_unique_strings_budget_exhausted():
    # Only "x" and "xx"... are producible; forbidding short strings while the
    # model almost always emits them burns through the retry budget.
    model = UnigramModel(probabilities={"x": 0.05}, eos_probability=0.95)
    forbidden = {"x", "xx", "xxx", "xxxx", "xxxxx", "xxxxxx"}
    with pytest.raises(UniquenessError):
        sample_unique_strings(model, 3, forbidden, seed=2)
