"""Smoke tests of the benchmark itself, on tiny graph shapes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import gen
import layers
import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def bench(capsys, workload: str, seed: int, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    return result_line(capsys)


def record(workload: str, seed: int, trace: int) -> dict:
    path = run.WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(capsys):
    result = bench(capsys, "tiny-wn", 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    full = record("tiny-wn", 3, 0)
    assert full["failed_share"] == 0
    assert set(full["env"]) >= {"nproc", "cpu_model", "python", "numpy", "click", "git_commit",
                                "fs_type"}
    assert set(full["digests"][0]) == {"suite", "report"}


def test_traced_run_prints_every_per_layer_metric_with_its_unit(capsys):
    result = bench(capsys, "tiny-fb", 4, 1)
    assert result["correct"], record("tiny-fb", 4, 1)["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    metrics = result["metrics"]
    assert metrics["transe.probe_loss_final"]["value"] < metrics["transe.probe_loss_init"]["value"]


def test_same_seed_gives_identical_outputs(capsys):
    bench(capsys, "tiny-fb", 5, 0)
    first = record("tiny-fb", 5, 0)
    bench(capsys, "tiny-fb", 5, 0)
    assert record("tiny-fb", 5, 0)["digests"] == first["digests"]


def test_corrupted_triple_file_raises_failed_share(monkeypatch, capsys):
    kgsynth, _ = run.import_kgsynth()
    real = kgsynth.generate_suite

    def corrupting(kg, seed, output_dir, *args, **kwargs):
        results = real(kg, seed, output_dir, *args, **kwargs)
        if any(r.label == "vw-e" for r in results):
            path = Path(output_dir) / "vw-e" / "train.tsv"
            path.write_bytes(b"".join(reversed(path.read_bytes().splitlines(keepends=True))))
        return results

    monkeypatch.setattr(kgsynth, "generate_suite", corrupting)
    result = bench(capsys, "tiny-wn", 6, 0)
    assert not result["correct"] and result["failed"] > 0
    full = record("tiny-wn", 6, 0)
    assert full["failed_share"] > 0
    assert any("vw-e: train.tsv differs" in f for f in full["failures"])


def test_missing_layer_function_is_reported_not_fatal(monkeypatch, capsys):
    renamed = tuple(p.replace("transe.score_all", "transe.score_rows")
                    for p in layers.NEEDS["eval"])
    monkeypatch.setitem(layers.NEEDS, "eval", renamed)
    result = bench(capsys, "tiny-fb", 7, 1)
    assert result["correct"]
    assert "transe.score_ms_per_query" not in result["metrics"]
    assert "rewriter.rewrite_s" in result["metrics"]
    missing = record("tiny-fb", 7, 1)["missing"]
    assert "kgsynth.transe.score_rows is not defined" in missing["transe.score_ms_per_query"]


def test_generator_is_seeded(tmp_path):
    shape = gen.scaled(gen.SHAPES["fb"], 0.02)
    props = gen.generate(shape, 5, tmp_path / "a", n_test=20)
    gen.generate(shape, 5, tmp_path / "b", n_test=20)
    gen.generate(shape, 6, tmp_path / "c", n_test=20)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 6
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "train.tsv").read_bytes() != (tmp_path / "c" / "train.tsv").read_bytes()
    assert props["test_triples"] == 20
    assert props["triples"] == shape.n_train + shape.n_valid + shape.n_test
    assert props["multi_relation_pair_share"] > 0 and props["mentions_per_entity"] > 0


def test_compare_verdicts():
    base = [10.0 + 0.01 * i for i in range(10)]
    pairs = lambda new: list(zip(base, new))  # noqa: E731

    def verdict(new, bound=0.1, lower=True):
        return compare.verdict(base, new, pairs(new), bound, lower)[0]

    assert verdict([v - 1.0 for v in base]) == "improved"
    assert verdict([v * 1.3 for v in base]) == "worse"
    assert verdict([v * 1.01 for v in base]) == "within bound"
    assert verdict([v - 1.0 for v in base], lower=False) == "within bound"
    assert verdict([v * 0.7 for v in base], lower=False) == "worse"
    assert compare.verdict(base[:5], base[:5], pairs(base)[:5], 0.1, True)[0].startswith(
        "unresolved")
    wide = [5.0, 15.0] * 5
    assert compare.verdict(wide, wide, list(zip(wide, wide)), 0.1, True)[0].startswith(
        "unresolved")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wn", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
