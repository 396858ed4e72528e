"""Passes over the triples or the model allocate at most a block beyond what
they return: memory tests that compare two inputs over the same tables, and
equivalence tests that pin the block-wise passes to their one-shot forms."""

import gc
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kgsynth import analysis, evaluate, kg as kgmod, transe
from kgsynth.analysis import relation_distribution
from kgsynth.errors import ValidationError
from kgsynth.evaluate import filter_rows
from kgsynth.kg import from_triples, load_dataset, write_rows
from kgsynth.transe import TrainConfig, evaluate_model, init_model, train

from conftest import random_kg

N_ENTITIES, N_RELATIONS = 1000, 8


def write_graph(root, n_train, triples, n_entities=N_ENTITIES, description=None):
    """A dataset over ``n_entities`` entities and N_RELATIONS relations: the
    first ``n_train`` of ``triples[100:]`` as train, then 50 valid and 50 test
    triples (``triples[:100]``) shared by every size."""
    root.mkdir()
    write_rows(root / "entities.tsv", ((f"e{i}", f"entity {i}") for i in range(n_entities)))
    write_rows(root / "relations.tsv", ((f"r{i}", f"relation {i}") for i in range(N_RELATIONS)))
    write_rows(root / "descriptions.tsv",
               ((f"e{i}", description(i) if description else f"entity {i}")
                for i in range(n_entities)))
    write_rows(root / "train.tsv", triples[100:100 + n_train])
    write_rows(root / "valid.tsv", triples[:50])
    write_rows(root / "test.tsv", triples[50:100])
    return root


@pytest.fixture(scope="module")
def triples():
    """100,100 distinct triples over the first N_ENTITIES entities, in random order."""
    keys = np.random.default_rng(11).choice(N_ENTITIES * N_RELATIONS * N_ENTITIES, 100_100,
                                            replace=False)
    h, r, t = np.unravel_index(keys, (N_ENTITIES, N_RELATIONS, N_ENTITIES))
    return [(f"e{a}", f"r{b}", f"e{c}") for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())]


def transient(fn):
    """tracemalloc's peak minus what is still held when ``fn`` returns (its result included)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


@pytest.fixture(scope="module")
def graphs(tmp_path_factory, triples):
    """40,000 and 100,000 train triples over the same tables, so both fill
    several whole blocks of rows; the test queries are the same for both."""
    root = tmp_path_factory.mktemp("graphs")
    return {n: load_dataset(write_graph(root / str(n), n, triples)) for n in (40_000, 100_000)}


@pytest.mark.parametrize("name", ["evaluate_model", "relation_distribution"])
def test_transient_does_not_grow_with_triples(graphs, name, monkeypatch):
    # What a pass over the splits allocates beyond its result must not grow
    # with the triples; the answers evaluate_model filters are nearly the
    # same for both sizes.
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
    (small, small_kg), (large, large_kg) = graphs.items()
    model = init_model(small_kg, 4, 0)  # the same ids, so one model serves both
    run = {"evaluate_model": lambda kg: evaluate_model(model, kg),
           "relation_distribution": relation_distribution}[name]
    for kg in (small_kg, large_kg):  # warm what the first calls cache per graph
        run(kg)
    per_triple = (transient(lambda: run(large_kg))
                  - transient(lambda: run(small_kg))) / (large - small)
    assert per_triple <= 8, per_triple


@pytest.mark.parametrize("negatives", [1, 3])
def test_training_transient_grows_by_its_draws_alone(graphs, negatives):
    # One epoch over 40,000 and 100,000 train triples of the same entities:
    # train holds the epoch's draws, 17 B a (triple, negative) pair (its
    # order, whether the tail is corrupted, the corrupting entity), and
    # builds the pairs a block at a time into buffers made once per call.
    # Building an epoch's pairs whole grew the transient by 78-88 B a pair.
    (small, small_kg), (large, large_kg) = graphs.items()
    config = TrainConfig(dim=8, epochs=1, negatives_per_positive=negatives)
    train(small_kg, config)  # warm the first call's caches
    per_pair = (transient(lambda: train(large_kg, config))
                - transient(lambda: train(small_kg, config))) / ((large - small) * negatives)
    assert per_pair <= 18, per_pair


def test_load_transient_does_not_grow_with_description_characters(tmp_path, triples):
    # The same 8,000 entities and triples, descriptions of 50 and 550
    # characters: loading and validating them allocates at most a chunk of
    # descriptions beyond the graph it returns, never a copy of them all.
    n_entities, short, long = 8000, 50, 550
    roots = {length: write_graph(tmp_path / str(length), 2000, triples, n_entities,
                                 lambda i, length=length: (f"d{i} " * length)[:length])
             for length in (short, long)}
    load_dataset(roots[short])  # warm the first call's caches
    per_char = (transient(lambda: load_dataset(roots[long]))
                - transient(lambda: load_dataset(roots[short]))) / (n_entities * (long - short))
    assert per_char <= 0.5, per_char


def test_mention_table_holds_a_few_bytes_per_match_and_per_entity(tmp_path, triples):
    # 8,000 entities, each description mentioning two names, one run into a
    # word: the table holds a name id and an offset per entity and a start,
    # an end, a name id and a selection flag per match, and the index it was
    # scanned with is dropped. The dict of one match array per described
    # entity it replaced held 111 B per entity on a WN18RR-shaped graph.
    n = 8000
    kg = load_dataset(write_graph(
        tmp_path / "graph", 2000, triples, n,
        lambda i: f"entity {i * 7 % n} and entity {i * 13 % n}, not entity {i}x"))
    gc.collect()
    tracemalloc.start()
    try:
        table = kg.mentions
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matches = len(table.starts)
    assert matches == 2 * n
    assert held <= 13 * matches + 12 * n + (16 << 10), (held, matches)


def test_mention_table_build_transient_does_not_grow_with_descriptions():
    # 2,000 and 8,000 descriptions of about 100 characters over the same
    # 1,000 names, so both fill several blocks of characters: the build
    # allocates a block's code points, boundaries and hash terms at a
    # time, grows the match arrays it returns in place, and drops its index,
    # so beyond the table it returns it holds one int64 per description
    # (where the text ends in the joined descriptions). The build that
    # concatenated its blocks' matches and shifted them for one selection
    # grew by 42 B per description here.
    names = [f"entity {i}" for i in range(1000)]

    def build(n):
        rows = [names[i % 1000] for i in range(n)]
        texts = [f"entity {i * 7 % 1000} and entity {i * 13 % 1000}, not entity {i}x, "
                 f"nor (entity {i % 997}), a text of about a hundred characters"[:100]
                 for i in range(n)]
        return lambda: kgmod.MentionTable.build(rows, texts)

    small, large = build(2000), build(8000)
    small()  # warm the first call's imports and caches
    per_description = (transient(large) - transient(small)) / 6000
    assert per_description <= 9, per_description


def test_training_transient_does_not_grow_with_the_model(tmp_path, triples):
    # The same 2,000 train triples over 2,000 and 20,000 entities: one epoch
    # allocates its draws, a block of pairs, one batch's buffers and a block
    # of rows to renormalize beyond the model it returns, never a table the
    # model's size.
    small, large, dim = 2000, 20_000, 8
    graphs = {n: load_dataset(write_graph(tmp_path / str(n), 2000, triples, n))
              for n in (small, large)}
    config = TrainConfig(dim=dim, epochs=1)
    train(graphs[small], config)  # warm the first call's caches
    per_value = (transient(lambda: train(graphs[large], config))
                 - transient(lambda: train(graphs[small], config))) / ((large - small) * dim)
    assert per_value <= 1, per_value


def ranking_transient(kg, model):
    """What ``rank_queries`` allocates beyond the model and what
    ``rank_split`` itself holds, after a warm-up call."""
    evaluate_model(model, kg)  # warm what the first call caches per graph
    ranking = transient(lambda: transe.rank_queries(model, kg))
    return ranking - transient(lambda: evaluate.rank_split(kg, "test", True, lambda *_: 1))


def test_ranking_holds_a_float32_table_and_a_block_per_worker(tmp_path, triples, monkeypatch):
    # 50,000 and 100,000 entities, 100 queries and two workers. Ranking
    # allocates the float32 table, a float64 norm and a model row per entity
    # and, per worker, one (dim, _ENTITY_BLOCK) float32 buffer (the chunk's
    # comparison flags reuse it), one (QUERY_CHUNK, _ENTITY_BLOCK) float32
    # buffer of cheap distances, numpy's 32 KiB buffer for a broadcast
    # comparison, and the band's gathered rows. That is less than the |E|
    # float32 distances and their flags per worker that ranking a query at a
    # time held, and than the float64 (dim, |E|) table, the two (8,
    # _ENTITY_BLOCK) float64 buffers and the |E| float64 distances per
    # worker of the column kernel before it. Only the table, the norms and
    # the model rows grow with |E|.
    dim, workers, chunk = 16, 2, evaluate.QUERY_CHUNK
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: workers)
    held = {}
    for n in (50_000, 100_000):
        kg = load_dataset(write_graph(tmp_path / str(n), 2000, triples, n))
        held[n] = ranking_transient(kg, init_model(kg, dim, 0))
        block = min(transe._ENTITY_BLOCK, n)
        table = 4 * dim * n
        allowed = (table + 16 * n + workers * (4 * dim * block + 4 * chunk * block + (32 << 10))
                   + (64 << 10))
        query_at_a_time = table + 16 * n + workers * (4 * dim * block + 7 * n) + (64 << 10)
        column_kernel = 8 * dim * n + workers * (2 * 8 * 8 * block + 8 * n)
        assert table <= held[n] <= allowed <= query_at_a_time < column_kernel, (n, held[n])
    assert held[100_000] - held[50_000] <= (4 * dim + 16) * 50_000 + (64 << 10), held


def test_a_wide_band_is_re_scored_a_block_of_rows_at_a_time(tmp_path, triples, monkeypatch):
    # An L2 model scaled by 2^-80: its float32 squares underflow, so every
    # entity falls in every query's band and gets an exact distance. The
    # band is re-scored as it grows, a block of gathered rows at a time, so
    # the transient still grows only by the table, the norms and the model
    # rows per entity; gathering each query's band at once grew it by
    # several float64 rows per entity and worker.
    dim, workers = 16, 2
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(transe, "_ENTITY_BLOCK", 1024)
    held = {}
    for n in (4000, 8000):
        kg = load_dataset(write_graph(tmp_path / str(n), 2000, triples, n))
        model = init_model(kg, dim, 0, norm="L2")
        tiny = replace(model, entity_vectors=model.entity_vectors * 2.0 ** -80,
                       relation_vectors=model.relation_vectors * 2.0 ** -80)
        held[n] = ranking_transient(kg, tiny)
    assert held[8000] - held[4000] <= (4 * dim + 16) * 4000 + (64 << 10), held


def reference_filter_rows(kg, triples):
    """Each query's answers from ``answer_index``, as sorted entity rows: the
    tail query of each triple row, then its head query."""
    entity, relation = kg.entity_ids, kg.relation_ids
    return [np.array(sorted(kg.structure.entity_row[e] for e in kg.answer_index.get(
                (direction, entity[known], relation[r]), ())), dtype=np.int64)
            for h, r, t in triples.tolist() for direction, known in (("tail", h), ("head", t))]


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_filter_rows_matches_the_answer_index(monkeypatch, block):
    monkeypatch.setattr(evaluate, "_BLOCK_ROWS", block)
    rng = random.Random(block)
    seen = {"across splits": 0, "across blocks": 0, "gold only": 0, "none": 0}
    for trial in range(40):
        n_entities, n_relations = rng.randint(4, 10), rng.randint(1, 3)
        # room for every triple asked for, so no split comes out short
        n_train = rng.randint(1, min(30, n_entities * n_entities * n_relations - 12))
        kg = random_kg(rng, n_entities, n_relations, n_train,
                       n_valid=0 if trial % 4 == 0 else rng.randint(1, 6), n_test=rng.randint(1, 6))
        # the test and train rows, and a row (e, r, e) per entity and relation:
        # queries over every (entity, relation) key, most with no fact
        keys = [(e, r, e) for e in range(n_entities) for r in range(n_relations)]
        rows = kg.structure.split_rows
        triples = np.concatenate([rows["test"], rows["train"], keys])
        triples = triples[rng.sample(range(len(triples)), len(triples))]
        answers, starts, ends = filter_rows(kg, triples)
        want = reference_filter_rows(kg, triples)
        assert answers.dtype == np.int64
        assert len(starts) == len(ends) == len(want) == 2 * len(triples)
        for start, end, expected in zip(starts, ends, want):
            np.testing.assert_array_equal(answers[start:end], expected)
        # count the cases the blocks must get right; a query's gold is the
        # tail of its row for a tail query, the head for a head query
        for gold, expected in zip(triples[:, [2, 0]].ravel().tolist(), want):
            seen["none"] += not len(expected)
            seen["gold only"] += expected.tolist() == [gold]
        for column in (0, 2):  # known heads, then known tails
            places = {}
            for split, rows in kg.structure.split_rows.items():
                for i, (e, r) in enumerate(rows[:, [column, 1]].tolist()):
                    places.setdefault((e, r), set()).add((split, i // block))
            seen["across splits"] += sum(len({s for s, _ in p}) > 1 for p in places.values())
            seen["across blocks"] += sum(len(p) > 1 for p in places.values())
    assert all(seen.values()), seen


def reference_check_cells(table, cells, what):
    """The one-shot check: every cell joined, then the first bad row named."""
    has = kgmod._has_tab_or_newline
    if has("".join(cells)):
        row = next(i for i, text in enumerate(cells) if has(text))
        raise ValidationError(f"{what} contains a tab or newline: {cells[row]!r}", table, row)


def raised(check, *args):
    with pytest.raises(ValidationError) as info:
        check(*args)
    return str(info.value), info.value.table, info.value.row


def test_check_cells_names_the_first_bad_row_at_chunk_boundaries():
    chunk = kgmod._CHECK_CELLS
    n = 2 * chunk + 3
    for at in (0, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, n - 1):
        for char in ("\t", "\n", "\r"):
            cells = [f"cell {i}" for i in range(n)]
            cells[at] = f"bad{char}cell {at}"
            if at + 1 < n:  # a later bad cell must not be the one named
                cells[at + 1] = "also\tbad"
            args = ("descriptions", cells, "description")
            assert raised(kgmod._check_cells, *args) == raised(reference_check_cells, *args)
            kgmod._check_cells("descriptions", cells[:at], "description")  # clean before it


def test_validate_names_a_bad_description_after_a_chunk_boundary():
    n = kgmod._CHECK_CELLS + 2
    entities = tuple((f"e{i}", f"entity {i}") for i in range(n))
    descriptions = {f"e{i}": "" for i in range(n)}
    descriptions[f"e{n - 1}"] = "two\nlines"
    kg = from_triples(entities, (("r", "r"),), (("e0", "r", "e1"),), (), (), descriptions)
    assert raised(kg.validate) == (
        "descriptions: description contains a tab or newline: 'two\\nlines'",
        "descriptions", n - 1)


def reference_normalize_rows(matrix):
    """The one-shot renormalization over the whole matrix."""
    norms = np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))
    np.maximum(norms, transe._EPS, out=norms)
    rows = (np.abs(norms - 1.0) > 1e-12)[:, 0]
    if rows.any():
        matrix[rows] /= norms[rows]


@pytest.mark.parametrize("dim", [1, 7, 50, 200])
def test_blockwise_normalize_rows_is_bit_identical_to_one_shot(dim):
    rng = np.random.default_rng(dim)
    n = 3 * transe._NORM_ROWS + 7
    matrix = rng.uniform(-3, 3, size=(n, dim))
    kind = rng.choice(4, size=n, p=[0.6, 0.3, 0.05, 0.05])
    unit_rows = matrix[kind == 1]
    reference_normalize_rows(unit_rows)
    matrix[kind == 1] = unit_rows  # rows already unit-norm, to be left as they are
    matrix[kind == 2] = 0.0
    matrix[kind == 3] *= 1e-300
    expected = matrix.copy()
    for _ in range(2):  # the second pass skips the rows the first made unit-norm
        reference_normalize_rows(expected)
        transe._normalize_rows(matrix)
        assert matrix.tobytes() == expected.tobytes()
    assert matrix[kind == 1].tobytes() == unit_rows.tobytes()


def test_all_finite_agrees_with_isfinite():
    rng = np.random.default_rng(4)
    for value in (np.nan, np.inf, -np.inf, 1e308, -0.0):
        matrix = rng.uniform(-1, 1, size=(9, 3))
        assert transe._all_finite(matrix)
        matrix[rng.integers(9), rng.integers(3)] = value
        assert transe._all_finite(matrix) == bool(np.isfinite(matrix).all())


@pytest.mark.parametrize("block", [1, 2, 5])
def test_relation_distribution_is_the_same_block_by_block(monkeypatch, block):
    rng = random.Random(block)
    graphs = [random_kg(rng, n_entities=rng.randint(3, 12), n_relations=rng.randint(1, 4),
                        n_train=rng.randint(1, 40), n_valid=rng.randint(0, 5),
                        n_test=rng.randint(0, 5)) for _ in range(30)]
    expected = [relation_distribution(kg).to_text() for kg in graphs]
    monkeypatch.setattr(analysis, "_BLOCK_ROWS", block)
    assert [relation_distribution(kg).to_text() for kg in graphs] == expected
    for _ in range(30):
        chunks = [np.array([rng.randrange(20) for _ in range(rng.randint(0, 6))], dtype=np.int64)
                  for _ in range(rng.randint(0, 8))]
        want = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *chunks]))
        np.testing.assert_array_equal(analysis._distinct(chunks), want)
