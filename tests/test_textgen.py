import itertools
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


# --- sample_unique_strings against the per-draw reference -----------------------------------

def reference_unique_strings(model, count, forbidden, seed):
    """The per-draw sampler: a ``sample_string`` loop over one ``random.Random``."""
    rng = random.Random(seed)
    taken = set(forbidden)
    out = []
    budget = 1000 * count
    rejections = 0
    while len(out) < count:
        candidate = sample_string(model, rng)
        if candidate in taken:
            rejections += 1
            if rejections > budget:
                raise UniquenessError(
                    f"exhausted {budget} rejections while sampling "
                    f"{count} unique strings ({len(out)} produced)"
                )
            continue
        taken.add(candidate)
        out.append(candidate)
    return out


ORACLE_MODELS = {
    # fitted: single code points, some outside the Basic Multilingual Plane
    "non-bmp": fit_unigram(["\U0001d538\U0001d539c", "\U0001f600 ok", "\u00fc\U0001d54f", "ab"]),
    # hand-built: each symbol is several characters
    "multi-char": UnigramModel({"ab": 0.4, "\U0001d538c": 0.35, "x y": 0.05}, 0.2),
    # every cumulative probability on an edge of the sampler's 2^12 guide buckets
    "bucket-edges": UnigramModel({"a": 1 / 4096, "b": 2047 / 4096, "c": 1024 / 4096}, 0.25),
    # forty symbols in the first guide bucket, then three that fill most of the rest
    "one-bucket": UnigramModel({**{chr(0x100 + k): 6e-6 for k in range(40)},
                                "x": 0.3, "y": 0.3, "z": 0.3 - 40 * 6e-6}, 0.1),
}


def _short_strings(model, longest):
    """Every string of at most ``longest`` of the model's symbols, so sampling must reject."""
    symbols = list(model.probabilities)
    return {"".join(p) for n in range(1, longest + 1)
            for p in itertools.product(symbols, repeat=n)}


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 3, 5000])
@pytest.mark.parametrize("model_name", sorted(ORACLE_MODELS))
@pytest.mark.parametrize("forbid", [False, True], ids=["none-forbidden", "short-forbidden"])
def test_unique_strings_match_the_per_draw_reference(seed, count, model_name, forbid):
    model = ORACLE_MODELS[model_name]
    forbidden = _short_strings(model, 2) if forbid else set()
    expected = reference_unique_strings(model, count, forbidden, seed)
    assert sample_unique_strings(model, count, forbidden, seed) == expected


def _errors(exc_type, model, count, forbidden, seed):
    with pytest.raises(exc_type) as new:
        sample_unique_strings(model, count, forbidden, seed)
    with pytest.raises(exc_type) as ref:
        reference_unique_strings(model, count, forbidden, seed)
    return str(new.value), str(ref.value)


@pytest.mark.parametrize("model", [
    UnigramModel({}, 1.0),  # every draw ends a string that never starts
    UnigramModel({"x": 1 - 1e-9}, 1e-9),  # the first string outruns the draw cap
], ids=["eos-only", "endless"])
def test_unique_strings_degenerate_model_raises_the_reference_error(model):
    new, ref = _errors(SamplingError, model, 2, set(), 5)
    assert new == ref == "no string produced within 10000 symbol draws; the model is degenerate"


def test_unique_strings_budget_error_matches_the_reference():
    model = UnigramModel(probabilities={"x": 0.05}, eos_probability=0.95)
    forbidden = {"x", "xx", "xxx", "xxxx", "xxxxx", "xxxxxx"}
    new, ref = _errors(UniquenessError, model, 3, forbidden, 2)
    assert new == ref
    assert new.startswith("exhausted 3000 rejections while sampling 3 unique strings")
