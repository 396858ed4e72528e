import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from kgsynth.derangement import (
    _hopcroft_karp,
    bipartite_derange,
    build_removed_edges,
    derange,
)
from kgsynth.errors import InfeasibleError

from conftest import make_kg


# --- independent oracles -----------------------------------------------------

def brute_force_satisfiable(arr, removed):
    """Exhaustive permutation search for a valid constrained rearrangement."""
    n = len(arr)
    for perm in itertools.permutations(range(n)):
        if all(
            arr[perm[i]] != arr[i] and (arr[i], arr[perm[i]]) not in removed
            for i in range(n)
        ):
            return True
    return False


def brute_force_max_matching(left_size, edges):
    """Exponential search for the maximum matching cardinality."""
    adjacency = [[] for _ in range(left_size)]
    for l, r in edges:
        adjacency[l].append(r)

    best = 0

    def extend(u, used_right, size):
        nonlocal best
        if u == left_size:
            best = max(best, size)
            return
        extend(u + 1, used_right, size)
        for v in adjacency[u]:
            if v not in used_right:
                used_right.add(v)
                extend(u + 1, used_right, size + 1)
                used_right.remove(v)

    extend(0, set(), 0)
    return best


def check_result(arr, removed, result):
    assert Counter(result.res) == Counter(arr)
    assert all(result.res[i] != arr[i] for i in range(len(arr)))
    assert all((arr[i], result.res[i]) not in removed for i in range(len(arr)))
    assert sorted(result.permutation) == list(range(len(arr)))
    assert all(result.res[i] == arr[result.permutation[i]] for i in range(len(arr)))


# --- derange -----------------------------------------------------------------

def test_derange_size_two_is_the_swap():
    assert derange(["a", "b"], seed=1).res == ("b", "a")


def test_derange_size_three_hits_both_derangements():
    outcomes = {derange(["a", "b", "c"], seed=s).res for s in range(40)}
    assert outcomes == {("b", "c", "a"), ("c", "a", "b")}


def test_derange_singleton_is_infeasible():
    with pytest.raises(InfeasibleError):
        derange(["a"], seed=0)


def test_derange_empty_is_infeasible():
    with pytest.raises(InfeasibleError):
        derange([], seed=0)


def test_derange_dominant_value_is_infeasible():
    with pytest.raises(InfeasibleError):
        derange(["a", "a", "a", "b", "b"], seed=0)


def test_derange_is_uniform_over_derangements():
    # 4 distinct items have exactly 9 derangements; each should appear with
    # frequency 1/9 (6-sigma window over 9000 seeds).
    counts = Counter(derange(list("abcd"), seed=s).res for s in range(9000))
    assert len(counts) == 9
    for outcome, count in counts.items():
        assert abs(count / 9000 - 1 / 9) < 0.02, outcome


def test_derange_deterministic_per_seed():
    items = [f"v{i}" for i in range(30)]
    assert derange(items, seed=99).res == derange(items, seed=99).res
    assert derange(items, seed=99).permutation == derange(items, seed=99).permutation


def test_derange_skewed_multiset_falls_back_to_matching():
    # Rejection sampling essentially never lands here, so the fallback must
    # take over and still satisfy the value-level constraint.
    items = ["a"] * 12 + ["b"] * 12
    check_result(items, set(), derange(items, seed=5))


def test_derange_fallback_stays_small_when_one_name_repeats():
    # One name fills 10% of 1,000 places, so each rejection attempt succeeds
    # with probability about e^-11 and the fallback runs. A matching over
    # every pair of distinct values peaked at 8.5 MB here; the rotation of
    # value groups needs about 0.2 MB.
    items = [f"name{i}" for i in range(900)] + ["same"] * 100
    tracemalloc.start()
    try:
        result = derange(items, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    check_result(items, set(), result)


def test_derange_fallback_is_a_derangement_across_seeds():
    # One value fills half the places, so a random shuffle is a derangement
    # with probability at most 1 / C(n, n/2) and the fallback runs.
    rng = random.Random(77)
    for seed in range(40):
        n = 2 * rng.randint(10, 30)
        items = ["top"] * (n // 2) + [f"v{rng.randrange(n)}" for _ in range(n // 2)]
        rng.shuffle(items)
        result = derange(items, seed)
        check_result(items, set(), result)
        assert result == derange(items, seed)


def test_derange_random_trials_properties():
    rng = random.Random(1234)
    for _ in range(400):
        n = rng.randint(2, 60)
        items = [f"v{rng.randrange(n)}" for _ in range(n)]
        try:
            result = derange(items, seed=rng.randrange(2**62))
        except InfeasibleError:
            assert 2 * Counter(items).most_common(1)[0][1] > n
            continue
        check_result(items, set(), result)


# --- bipartite_derange --------------------------------------------------------

def test_bipartite_unique_solution_found():
    # Brute force over all 6 permutations leaves exactly one valid result.
    arr = ["r1", "r2", "r3"]
    removed = {("r1", "r2")}
    assert brute_force_satisfiable(arr, removed)
    for seed in range(10):
        assert bipartite_derange(arr, removed, seed).res == ("r3", "r1", "r2")


def test_bipartite_infeasible_repeats():
    with pytest.raises(InfeasibleError, match="unmatched positions"):
        bipartite_derange(["r1", "r1", "r2"], set(), seed=0)


def test_bipartite_size_two():
    assert bipartite_derange(["r1", "r2"], set(), seed=0).res == ("r2", "r1")


def test_bipartite_empty_array():
    with pytest.raises(InfeasibleError):
        bipartite_derange([], set(), seed=0)


def test_bipartite_seeds_reach_distinct_results():
    arr = [f"v{i}" for i in range(6)]
    outcomes = {bipartite_derange(arr, set(), seed=s).res for s in range(20)}
    assert len(outcomes) > 1


def test_bipartite_deterministic_per_seed():
    arr = [f"v{i}" for i in range(15)]
    removed = {("v0", "v1"), ("v3", "v2")}
    assert bipartite_derange(arr, removed, 7) == bipartite_derange(arr, removed, 7)


def test_bipartite_feasibility_agrees_with_brute_force_small():
    rng = random.Random(77)
    alphabet = ["a", "b", "c"]
    for n in range(2, 7):
        for arr in itertools.product(alphabet, repeat=n):
            values = sorted(set(arr))
            pairs = [(x, y) for x in values for y in values if x != y]
            removed_sets = [set(), set(rng.sample(pairs, min(2, len(pairs))))]
            for removed in removed_sets:
                expected = brute_force_satisfiable(arr, removed)
                try:
                    result = bipartite_derange(list(arr), removed, seed=rng.randrange(2**30))
                    check_result(list(arr), removed, result)
                    assert expected, (arr, removed)
                except InfeasibleError:
                    assert not expected, (arr, removed)


def test_bipartite_random_trials_properties():
    rng = random.Random(555)
    for _ in range(300):
        n = rng.randint(2, 80)
        arr = [f"v{rng.randrange(max(2, n))}" for _ in range(n)]
        values = sorted(set(arr))
        removed = set()
        for _ in range(rng.randrange(4)):
            x, y = rng.sample(values, 2) if len(values) >= 2 else (values[0], values[0])
            if x != y:
                removed.add((x, y))
        try:
            result = bipartite_derange(arr, removed, seed=rng.randrange(2**62))
        except InfeasibleError:
            continue
        check_result(arr, removed, result)


# --- _hopcroft_karp -----------------------------------------------------------

def match_edges(left_size, right_size, edges):
    """The matcher over an edge list, as ``bipartite_derange`` calls it over adjacency lists."""
    adjacency = [[] for _ in range(left_size)]
    for left, right in edges:
        adjacency[left].append(right)
    return _hopcroft_karp(adjacency, right_size)


def test_matching_complete_bipartite():
    edges = [(i, j) for i in range(3) for j in range(3)]
    matching = match_edges(3, 3, edges)
    assert len(matching) == 3
    assert len(set(matching.values())) == 3


def test_matching_shared_right_vertex():
    assert len(match_edges(2, 1, [(0, 0), (1, 0)])) == 1


def test_matching_empty_graph():
    assert match_edges(3, 3, []) == {}


def test_matching_cardinality_matches_brute_force():
    rng = random.Random(42)
    for _ in range(200):
        left = rng.randint(1, 8)
        right = rng.randint(1, 8)
        edges = [
            (i, j)
            for i in range(left)
            for j in range(right)
            if rng.random() < 0.4
        ]
        matching = match_edges(left, right, edges)
        assert len(set(matching.values())) == len(matching)  # no shared endpoints
        assert set(matching.items()) <= set(edges)
        assert len(matching) == brute_force_max_matching(left, edges)


# --- build_removed_edges --------------------------------------------------------

def test_removed_edges_cooccurring_relations(family_kg):
    removed = build_removed_edges(family_kg)
    assert ("wasBornIn", "diedIn") in removed
    assert ("diedIn", "wasBornIn") in removed
    assert ("hasChild", "wasBornIn") not in removed


def test_removed_edges_empty_when_no_cooccurrence():
    kg = make_kg(
        entities=["e1", "e2", "e3"],
        relations=["r1", "r2"],
        train=[("e1", "r1", "e2"), ("e2", "r2", "e3")],
    )
    assert build_removed_edges(kg) == set()


def test_removed_edges_matches_quadratic_scan():
    # with fewer names than relation ids, several relation ids share one name
    rng = random.Random(8)
    for n_names in [5] * 40 + [3] * 20 + [1] * 5:
        n_e, n_r = 6, 5
        entities = [f"e{i}" for i in range(n_e)]
        relations = [(f"r{i}", f"rel {i % n_names}") for i in range(n_r)]
        triples = set()
        while len(triples) < 18:
            triples.add(
                (f"e{rng.randrange(n_e)}", f"r{rng.randrange(n_r)}", f"e{rng.randrange(n_e)}")
            )
        triples = sorted(triples)
        kg = make_kg(entities, relations, train=triples[:12], valid=triples[12:15],
                     test=triples[15:])
        names = dict(relations)
        expected = set()
        for h1, r1, t1 in kg.all_triples:
            for h2, r2, t2 in kg.all_triples:
                if h1 == h2 and t1 == t2 and r1 != r2 and names[r1] != names[r2]:
                    expected.add((names[r1], names[r2]))
        assert build_removed_edges(kg) == expected
