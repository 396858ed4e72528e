"""Character-level unigram model and unique random-string generation.

The model treats a string as independent character draws followed by one
end-of-sequence event, so a fitted model assigns every training string a
probability and sampled strings mimic the corpus alphabet and mean length
without carrying any character co-occurrence information.

``sample_string`` draws one symbol per ``random.Random.random()`` call and is
the per-draw reference. ``sample_unique_strings`` reads the same MT19937
stream as ``random.Random(seed)`` in numpy blocks: it copies the generator's
state into numpy's legacy ``RandomState``, whose ``random_sample`` doubles
NEP 19 keeps stable and equal to ``random()``'s, and cuts the drawn symbols
into strings at end-of-sequence events under ``sample_string``'s rules, so it
returns what a ``sample_string`` loop over that generator would.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SamplingError, UniquenessError

EOS = "<EOS>"

# One sample_string call may consume at most this many symbol draws (characters
# plus end-of-sequence events); exceeding it signals a degenerate model.
_MAX_SYMBOL_DRAWS = 10_000
_DEGENERATE = (f"no string produced within {_MAX_SYMBOL_DRAWS} symbol draws; "
               "the model is degenerate")


@dataclass(frozen=True)
class UnigramModel:
    """Character probabilities plus the end-of-sequence probability.

    Probabilities are non-negative and sum to 1 with ``eos_probability``;
    ``eos_probability`` must be positive or sampling would never terminate.
    """

    probabilities: dict[str, float]
    eos_probability: float

    def __post_init__(self) -> None:
        if self.eos_probability <= 0:
            raise ValueError("eos_probability must be positive")
        if any(p < 0 for p in self.probabilities.values()):
            raise ValueError("character probabilities must be non-negative")
        total = sum(self.probabilities.values()) + self.eos_probability
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1.0")

    @cached_property
    def _symbols(self) -> list[str]:
        return list(self.probabilities) + [EOS]

    @cached_property
    def _cumulative(self) -> list[float]:
        weights = list(self.probabilities.values()) + [self.eos_probability]
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift at the top end
        return cumulative

    def sample_symbol(self, rng: random.Random) -> str:
        """Draw one character, or EOS for the end-of-sequence event."""
        return self._symbols[bisect_right(self._cumulative, rng.random())]


def fit_unigram(corpus: list[str]) -> UnigramModel:
    """Fit character probabilities on ``corpus``, one EOS event per string."""
    if not corpus:
        raise ValueError("cannot fit a unigram model on an empty corpus")
    counts: Counter[str] = Counter()
    total_chars = 0
    for text in corpus:
        counts.update(text)
        total_chars += len(text)
    if total_chars == 0:
        raise ValueError("corpus must contain at least one non-empty string")
    denom = total_chars + len(corpus)
    probabilities = {char: counts[char] / denom for char in sorted(counts)}
    return UnigramModel(probabilities=probabilities, eos_probability=len(corpus) / denom)


def sample_string(model: UnigramModel, rng: random.Random) -> str:
    """Sample one non-empty string; characters are i.i.d., EOS terminates.

    Empty draws (EOS sampled first) are rejected and resampled. Every symbol
    draw counts toward a hard cap that aborts pathological models.
    """
    chars: list[str] = []
    for _ in range(_MAX_SYMBOL_DRAWS):
        symbol = model.sample_symbol(rng)
        if symbol is not EOS:
            chars.append(symbol)
        elif chars:
            return "".join(chars)
    raise SamplingError(_DEGENERATE)


def sample_unique_strings(
    model: UnigramModel, count: int, forbidden: set[str], seed: int
) -> list[str]:
    """Sample ``count`` pairwise-distinct strings, none of them in ``forbidden``.

    Deterministic for a fixed seed: the strings a ``sample_string`` loop over
    ``random.Random(seed)`` yields. Collisions are rejected and resampled
    within a budget of 1000 rejections per requested string.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    state = random.Random(seed).getstate()[1]  # 624 MT19937 keys, then the position
    stream = np.random.RandomState()
    stream.set_state(("MT19937", np.array(state[:-1], dtype=np.uint32), state[-1]))
    cumulative = np.array(model._cumulative)
    eos = len(cumulative) - 1
    # each symbol's code points, EOS's none: a draw's text is a run of ``codes``
    texts = model._symbols[:-1]
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    lengths = np.array([len(text) for text in texts] + [0])
    first = np.cumsum(lengths) - lengths
    taken = set(forbidden)
    out: list[str] = []
    budget = 1000 * count
    rejections = 0
    draws = np.empty(0, dtype=np.intp)  # the draws of the attempt still open
    while len(out) < count:
        # about the draws the missing strings take (the stream is dropped after the call),
        # at most 2^15, so a block's arrays stay small and cache-resident
        size = min(int((count - len(out)) * 1.25 / model.eos_probability) + 64, 1 << 15)
        draws = np.concatenate(
            [draws, np.searchsorted(cumulative, stream.random_sample(size), side="right")])
        # an attempt ends at the first EOS after a character, the one EOS a character precedes
        is_eos = draws == eos
        ends = np.flatnonzero(is_eos[1:] & ~is_eos[:-1]) + 1
        starts = np.concatenate([[0], ends + 1])[:-1]
        runs = lengths[draws]
        offsets = np.concatenate([[0], np.cumsum(runs)])
        positions = np.repeat(first[draws] - offsets[:-1], runs) + np.arange(offsets[-1])
        text = codes[positions].tobytes().decode("utf-32-le", "surrogatepass")
        for a, b, n in zip(offsets[starts].tolist(), offsets[ends].tolist(),
                           (ends - starts + 1).tolist()):
            if n > _MAX_SYMBOL_DRAWS:
                raise SamplingError(_DEGENERATE)
            candidate = text[a:b]
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
            if len(out) == count:
                return out
        draws = draws[ends[-1] + 1:] if len(ends) else draws
        if len(draws) >= _MAX_SYMBOL_DRAWS:
            raise SamplingError(_DEGENERATE)
    return out
