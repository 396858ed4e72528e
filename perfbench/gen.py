"""Seeded synthetic knowledge graphs in WN18RR and FB15k-237 shape.

The generator writes a dataset directory in the kgsynth TSV layout and
nothing else, so the package under test sees only files. It uses numpy's
PCG64 stream and Python's ``random.Random``, both seeded from the
benchmark seed: the same seed and shape give byte-identical files.

The layers depend on these input properties, which the generator controls
and ``input_properties`` measures:

- name multiplicity (how often one surface name repeats) drives the
  rejection-sampled entity derangement;
- description length and mentions per entity drive the rewriter and the
  leakage scan;
- (head, tail) pairs that carry several relations drive the relation
  derangement's removed edges and matching;
- distinct queries and filter-set sizes drive evaluation.

Where the real datasets' figures are published, the parameters are set or
calibrated from them, and each run records the published figure beside the
measured one; the comment above ``SHAPES`` says which parameters are only
assumed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WN_RELATIONS = (
    "_hypernym",
    "_derivationally_related_form",
    "_member_meronym",
    "_has_part",
    "_synset_domain_topic_of",
    "_instance_hypernym",
    "_also_see",
    "_verb_group",
    "_member_of_domain_region",
    "_member_of_domain_usage",
    "_similar_to",
)

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh",
           "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "nd", "st", "x")


@dataclass(frozen=True)
class Shape:
    """Sizes and text/degree profile of one synthetic graph."""

    name: str
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    # Multiplicity weights for m = 1, 2, ...: the share of distinct names
    # used exactly m times.
    multiplicity_weights: tuple[float, ...]
    name_words: tuple[int, int]  # words per name, inclusive range
    capitalized: bool
    desc_words: int  # mean filler words per description
    mentions: int  # mean entity-name mentions per description
    zipf: float  # popularity of the entity of rank k is 1 / (k + 9) ** zipf
    relation_weights: tuple[float, ...] | None  # relation frequencies; None: Zipf 0.8
    neighbor_share: float  # share of description mentions that name a graph neighbour
    leaf_share: float  # share of entities given exactly one triple
    domain_size: int  # relations per co-occurrence domain
    multi_share: float  # share of drawn (head, tail) pairs given several relations
    max_multi: int  # most relations one pair can carry


# Where each parameter comes from. "Published" figures are public statistics
# of the real datasets; "calibrated" ones are tuned so that the 1/4-scale
# graph of seed 1 meets a published figure (PUBLISHED below, recorded beside
# the measured value in every run); "assumed" ones have no source and are
# unverified assumptions, with their effect measured by input_properties.
#
# wn:
# - sizes: WN18RR (Dettmers et al., 2018), the counts the kgsynth paper lists.
# - relation_weights: the WN18RR train-split count of each relation, in
#   WN_RELATIONS order (they sum to the 86,835 train triples). Published.
# - multiplicity_weights: WordNet 3.0 nouns (wnstats(7WN)): 86.5% of the
#   117,798 noun strings have one sense, and polysemous ones average 2.79
#   senses. Here 86.5% of names are used once, and the rest 2-5 times with
#   mean 2.79. A proxy: it counts senses per lemma over all of WordNet, not
#   WN18RR entities per surface name. Published proxy.
# - desc_words, mentions: about 15 words and 2 names per description, as
#   the benchmark's definition sets. Assumed.
# - zipf: calibrated toward
#   PUBLISHED["wn"]["test_one_relation_entity_pct"] (97.51%). They reach 93-95%;
#   a flatter degree profile gets no closer, since the generator has no
#   per-entity relation affinity, which keeps real test entities on one relation.
# - neighbor_share: calibrated to PUBLISHED["wn"]["leakage_total_pct"].
# - domain_size, multi_share, max_multi, name_words: assumed.
# fb:
# - sizes: FB15k-237 (Toutanova and Chen, 2015), as the kgsynth paper lists.
# - multiplicity_weights (97% of names unique, the rest used 2-3 times),
#   relation Zipf exponent 0.8, zipf 1.0, domain_size 10,
#   multi_share 0.25 with max_multi 4: assumed. Their effect is measured as
#   name_sum_m2_over_n and multi_relation_pair_share.
# - desc_words, mentions: about 110 words and 6 names, as the benchmark's
#   definition sets. Assumed.
# - leaf_share: calibrated to PUBLISHED["fb"]["train_one_relation_entity_pct"].
# - neighbor_share: calibrated to PUBLISHED["fb"]["leakage_total_pct"].
SHAPES = {
    "wn": Shape(
        name="wn", n_entities=40_943, n_relations=11,
        n_train=86_835, n_valid=3_034, n_test=3_134,
        multiplicity_weights=(0.865, 0.0743, 0.0297, 0.0162, 0.0148),
        name_words=(1, 2), capitalized=False, desc_words=13, mentions=2,
        zipf=0.3,
        relation_weights=(34_796, 29_715, 7_402, 4_816, 3_116, 2_921, 1_299, 1_138, 923,
                          629, 80),
        neighbor_share=0.39, leaf_share=0.0, domain_size=3, multi_share=0.01, max_multi=2,
    ),
    "fb": Shape(
        name="fb", n_entities=14_541, n_relations=237,
        n_train=272_115, n_valid=17_535, n_test=20_466,
        multiplicity_weights=(0.97, 0.02, 0.01),
        name_words=(1, 3), capitalized=True, desc_words=104, mentions=6,
        zipf=1.0, relation_weights=None,
        neighbor_share=0.27, leaf_share=0.15, domain_size=10, multi_share=0.25, max_multi=4,
    ),
}

# Statistics of the real datasets that the kgsynth paper reports and the
# repository's acceptance tests check (tests/test_acceptance.py, criteria 02
# and 03): the total description leakage in percent, and the percentage of
# a split's entities that touch one distinct relation in it.
PUBLISHED = {
    "wn": {"leakage_total_pct": 15.06, "test_one_relation_entity_pct": 97.51},
    "fb": {"leakage_total_pct": 5.92, "train_one_relation_entity_pct": 13.52},
}


def scaled(shape: Shape, factor: float) -> Shape:
    """``shape`` with its entity and triple counts times ``factor``; relation
    count, text profile and degree skew stay as they are."""
    if factor == 1:
        return shape
    return dataclasses.replace(
        shape, name=f"{shape.name}x{factor:g}",
        **{f: max(1, round(getattr(shape, f) * factor))
           for f in ("n_entities", "n_train", "n_valid", "n_test")})


def _word_pool(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """``count`` distinct pseudo-words of two to four syllables, none in ``taken``."""
    out: list[str] = []
    while len(out) < count:
        n_syll = rng.choice((2, 2, 3, 3, 3, 4))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(n_syll))
        word += rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _entity_names(shape: Shape, rng: random.Random, taken: set[str]) -> list[str]:
    """One name per entity, with the shape's multiplicity profile, in random order."""
    weights = shape.multiplicity_weights
    mean_m = sum((m + 1) * w for m, w in enumerate(weights))
    n_distinct = int(shape.n_entities / mean_m) + 1
    words = _word_pool(rng, 3 * n_distinct, taken)
    distinct: list[str] = []
    seen: set[str] = set()
    lo, hi = shape.name_words
    while len(distinct) < n_distinct:
        parts = rng.sample(words, rng.randint(lo, hi))
        if shape.capitalized:
            parts = [p.capitalize() for p in parts]
        name = " ".join(parts)
        if name not in seen:
            seen.add(name)
            distinct.append(name)
    names: list[str] = []
    for name in distinct:
        m = rng.choices(range(1, len(weights) + 1), weights=weights)[0]
        names.extend([name] * m)
        if len(names) >= shape.n_entities:
            break
    names = names[: shape.n_entities]
    # Pad with fresh unique names if the draw fell short.
    while len(names) < shape.n_entities:
        names.append(distinct[len(names) % len(distinct)] + " " + str(len(names)))
    rng.shuffle(names)
    return names


def _entity_ids(shape: Shape, rng: random.Random) -> list[str]:
    if shape.capitalized:
        alphabet = "0123456789bcdfghjklmnpqrstvwxyz_"
        ids: set[str] = set()
        out = []
        while len(out) < shape.n_entities:
            eid = "/m/0" + "".join(rng.choice(alphabet) for _ in range(rng.choice((3, 4, 5))))
            if eid not in ids:
                ids.add(eid)
                out.append(eid)
        return out
    offsets = rng.sample(range(10**8), shape.n_entities)
    return [f"{o:08d}" for o in offsets]


def _relations(shape: Shape, rng: random.Random, taken: set[str]) -> list[tuple[str, str]]:
    if shape.n_relations <= len(WN_RELATIONS) and not shape.capitalized:
        rids = list(WN_RELATIONS[: shape.n_relations])
        return [(rid, rid.strip("_").replace("_", " ")) for rid in rids]
    words = _word_pool(rng, 3 * shape.n_relations + 30, taken)
    domains = words[:30]
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    k = 30
    while len(out) < shape.n_relations:
        domain = domains[len(out) // shape.domain_size % len(domains)]
        rid = f"/{domain}/{words[k]}/{words[k + 1]}"
        k += 2
        if rid not in seen:
            seen.add(rid)
            out.append((rid, f"{words[k - 1]} of {words[k - 2]} in {domain}"))
    return out


def _triples(shape: Shape, nprng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Distinct (head, relation, tail) index triples with skewed degrees.

    Relations fall into domains of ``domain_size``, and every (head, tail)
    pair takes all its relations from one domain, the one of the first
    relation drawn for it. So relations co-occur only within a domain, every
    relation keeps partners it never co-occurs with, and the relation
    derangement stays feasible.
    """
    n_e, n_r = shape.n_entities, shape.n_relations
    total = shape.n_train + shape.n_valid + shape.n_test
    n_leaf = round(shape.leaf_share * n_e)
    popularity = 1.0 / np.arange(10, n_e + 10, dtype=float) ** shape.zipf
    popularity[n_e - n_leaf:] = 0.0  # the leaf ranks get their one triple below
    popularity /= popularity.sum()
    rank_to_entity = nprng.permutation(n_e)
    if shape.relation_weights is not None:
        rel_pop = np.array(shape.relation_weights, dtype=float)
        rank_to_rel = np.arange(n_r)
    else:
        rel_pop = 1.0 / np.arange(2, n_r + 2, dtype=float) ** 0.8
        rank_to_rel = nprng.permutation(n_r)
    rel_pop /= rel_pop.sum()

    def batches():
        """(heads, tails, relations, multi) arrays: first one triple per leaf
        entity, on a random side of a popular partner, then Zipf draws."""
        if n_leaf:
            leaves = rank_to_entity[n_e - n_leaf:]
            partners = rank_to_entity[nprng.choice(n_e, size=n_leaf, p=popularity)]
            leaf_is_head = nprng.random(n_leaf) < 0.5
            yield (np.where(leaf_is_head, leaves, partners),
                   np.where(leaf_is_head, partners, leaves),
                   rank_to_rel[nprng.choice(n_r, size=n_leaf, p=rel_pop)],
                   np.zeros(n_leaf, dtype=bool))
        while True:
            yield (rank_to_entity[nprng.choice(n_e, size=4096, p=popularity)],
                   rank_to_entity[nprng.choice(n_e, size=4096, p=popularity)],
                   rank_to_rel[nprng.choice(n_r, size=4096, p=rel_pop)],
                   nprng.random(4096) < shape.multi_share)

    ds = shape.domain_size
    pair_domain: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int, int]] = set()
    out: list[tuple[int, int, int]] = []
    for heads, tails, rels, multi in batches():
        if len(out) >= total:
            break
        batch = len(heads)
        extra = nprng.integers(1, shape.max_multi, size=batch)
        offsets = nprng.integers(1, shape.domain_size, size=(batch, shape.max_multi))
        for i in range(batch):
            h, t, r = int(heads[i]), int(tails[i]), int(rels[i])
            if h == t:
                continue
            domain = pair_domain.setdefault((h, t), r // ds)
            size = min(ds, n_r - domain * ds)
            r = domain * ds + r % ds % size
            chosen = [r]
            if multi[i] and size > 1:
                for k in range(int(extra[i])):
                    other = domain * ds + (r - domain * ds + int(offsets[i, k])) % size
                    if other not in chosen:
                        chosen.append(other)
            for rel in chosen:
                triple = (h, rel, t)
                if triple not in seen and len(out) < total:
                    seen.add(triple)
                    out.append(triple)
    order = nprng.permutation(len(out))
    return [out[i] for i in order]


def _descriptions(
    shape: Shape,
    rng: random.Random,
    names: list[str],
    neighbors: list[list[int]],
    filler: list[str],
) -> tuple[list[str], int]:
    """Descriptions of filler words with entity-name mentions mixed in.

    A ``neighbor_share`` of the mentions name a graph neighbour, so
    description leakage is well above zero; the rest name random entities. Filler words never equal
    a name word, so the only matches are the inserted mentions (and the
    shorter names nested inside them). Returns the texts and the number of
    mentions inserted.
    """
    n = len(names)
    texts = []
    inserted = 0
    lo_w, hi_w = max(1, shape.desc_words // 2), shape.desc_words * 3 // 2
    for e in range(n):
        words = rng.choices(filler, k=rng.randint(lo_w, hi_w))
        n_mentions = rng.randint(0, 2 * shape.mentions)
        for _ in range(n_mentions):
            nbrs = neighbors[e]
            if nbrs and rng.random() < shape.neighbor_share:
                target = nbrs[rng.randrange(len(nbrs))]
            else:
                target = rng.randrange(n)
            words.insert(rng.randrange(len(words) + 1), names[target])
        inserted += n_mentions
        for k in range(len(words) - 1):
            if rng.random() < 0.08:
                words[k] += ","
        texts.append(" ".join(words) + ".")
    return texts, inserted


def _write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join("\t".join(row) + "\n" for row in rows))


def generate(shape: Shape, seed: int, out_dir: Path, n_test: int | None = None) -> dict:
    """Write one synthetic dataset under ``out_dir`` and return its input properties.

    ``n_test`` keeps only the first ``n_test`` test triples in the test
    split and moves the rest to valid, so the split union and every filter
    set stay as they were.
    """
    rng = random.Random(f"kgsynth-bench:{shape.name}:{seed}")
    nprng = np.random.default_rng([seed, len(shape.name), shape.n_entities])
    taken: set[str] = set()
    names = _entity_names(shape, rng, taken)
    filler = _word_pool(rng, 6000, taken)
    entity_ids = _entity_ids(shape, rng)
    relations = _relations(shape, rng, taken)
    triples = _triples(shape, nprng)

    neighbors: list[list[int]] = [[] for _ in range(shape.n_entities)]
    for h, _, t in triples:
        if len(neighbors[h]) < 32:
            neighbors[h].append(t)
        if len(neighbors[t]) < 32:
            neighbors[t].append(h)
    texts, inserted = _descriptions(shape, rng, names, neighbors, filler)

    a, b = shape.n_train, shape.n_train + shape.n_valid
    train, valid, test = triples[:a], triples[a:b], triples[b:]
    if n_test is not None and n_test < len(test):
        valid, test = valid + test[n_test:], test[:n_test]

    out_dir.mkdir(parents=True, exist_ok=True)
    rel_ids = [rid for rid, _ in relations]

    def rows(split):
        return ((entity_ids[h], rel_ids[r], entity_ids[t]) for h, r, t in split)

    _write_tsv(out_dir / "entities.tsv", zip(entity_ids, names))
    _write_tsv(out_dir / "relations.tsv", relations)
    _write_tsv(out_dir / "descriptions.tsv", zip(entity_ids, texts))
    _write_tsv(out_dir / "train.tsv", rows(train))
    _write_tsv(out_dir / "valid.tsv", rows(valid))
    _write_tsv(out_dir / "test.tsv", rows(test))
    return input_properties(names, texts, inserted, triples, test,
                            {"train": triples[:a], "test": triples[b:]})


def _one_relation_entity_pct(split) -> float:
    """Percentage of the split's entities that touch one distinct relation
    in it, as kgsynth's relation_distribution counts them."""
    rels: dict[int, set[int]] = {}
    for h, r, t in split:
        rels.setdefault(h, set()).add(r)
        rels.setdefault(t, set()).add(r)
    return 100.0 * sum(1 for s in rels.values() if len(s) == 1) / max(1, len(rels))


def input_properties(names, texts, inserted, triples, test, original_splits) -> dict:
    """The input properties the layers depend on, as plain numbers.
    ``original_splits`` are the train and test splits before ``n_test``
    moved test triples to valid, the splits the published figures describe."""
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    rels_per_pair: dict[tuple[int, int], int] = {}
    for h, _, t in triples:
        rels_per_pair[(h, t)] = rels_per_pair.get((h, t), 0) + 1
    answers: dict[tuple[str, int, int], int] = {}
    for h, r, t in triples:
        answers[("tail", h, r)] = answers.get(("tail", h, r), 0) + 1
        answers[("head", t, r)] = answers.get(("head", t, r), 0) + 1
    queries = [("tail", h, r) for h, r, _ in test] + [("head", t, r) for _, r, t in test]
    n = len(names)
    return {
        "entities": n,
        "triples": len(triples),
        "test_triples": len(test),
        "name_max_multiplicity": max(counts.values()),
        "name_sum_m2_over_n": sum(m * m for m in counts.values()) / n,
        "desc_chars_per_entity": sum(len(t) for t in texts) / n,
        "mentions_per_entity": inserted / n,
        "multi_relation_pair_share": sum(1 for c in rels_per_pair.values() if c >= 2)
        / len(rels_per_pair),
        "distinct_query_share": len(set(queries)) / len(queries) if queries else 0.0,
        "mean_filter_set_size": sum(answers[q] for q in queries) / len(queries)
        if queries else 0.0,
        **{f"{name}_one_relation_entity_pct": _one_relation_entity_pct(split)
           for name, split in original_splits.items()},
    }


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Write one synthetic kgsynth dataset.")
    parser.add_argument("--shape", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--n-test", type=int, default=None)
    args = parser.parse_args(argv)
    shape = scaled(SHAPES[args.shape], args.scale)
    props = generate(shape, args.seed, Path(args.out), n_test=args.n_test)
    print(json.dumps(props, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
