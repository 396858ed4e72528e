"""Command-line entry point wiring the library into one workflow.

Every run that produces files also writes a manifest (flat key<TAB>value)
alongside them, echoing the command, paths, parameters, seed, tool version,
and timestamps. Exit codes: 0 success, 1 usage error, 2 data/validation
error, 3 infeasibility (derangement/uniqueness/sampling), 4 internal error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__, analysis, convert, evaluate, kg, transe, transform
from .errors import (
    InfeasibleError,
    KgsynthError,
    LoadError,
    SamplingError,
    UniquenessError,
    ValidationError,
)

_RECIPE_NAMES = {kind.replace("_", "-"): kind for kind in transform.RECIPES if kind != "base"}


@dataclass
class RunManifest:
    command: str
    input_path: str
    output_path: str
    seed: int | None = None
    params: dict[str, str] = field(default_factory=dict)
    started_at: str = ""
    finished_at: str = ""

    def write(self, path: Path) -> None:
        rows = [
            ("command", self.command),
            ("input", self.input_path),
            ("output", self.output_path),
            ("version", __version__),
        ]
        if self.seed is not None:
            rows.append(("seed", str(self.seed)))
        rows.extend(sorted(self.params.items()))
        rows.append(("started_at", self.started_at))
        rows.append(("finished_at", self.finished_at))
        kg.write_rows(path, rows)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _manifest_path(output: Path) -> Path:
    if output.is_dir():
        return output / "manifest.tsv"
    return output.parent / (output.name + ".manifest.tsv")


def _finish(manifest: RunManifest, output: Path) -> None:
    manifest.finished_at = _now()
    manifest.write(_manifest_path(output))


def _echo_text(text: str, output: Path | None, manifest: RunManifest | None = None) -> None:
    click.echo(text, nl=False)
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text, encoding="utf-8")
        if manifest is not None:
            _finish(manifest, output)


def _targets_set(text: str) -> frozenset[str]:
    targets = frozenset(part.strip() for part in text.split(",") if part.strip())
    bad = targets - transform.ALL_TARGETS
    if bad:
        raise click.BadParameter(f"unknown targets {sorted(bad)}")
    return targets


@click.group()
@click.version_option(version=__version__, prog_name="kgsynth")
def cli() -> None:
    """Synthetic KGC dataset construction and link-prediction evaluation."""


@cli.command()
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--stream", is_flag=True, help="Count lines without loading/validating the graph.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def stats(input_dir: str, stream: bool, output: str | None) -> None:
    """Print dataset statistics (entities/relations/train/valid/test)."""
    manifest = RunManifest("stats", input_dir, output or "-", params={"stream": str(stream).lower()},
                           started_at=_now())
    if stream:
        result = kg.stream_stats(input_dir)
    else:
        result = kg.compute_stats(kg.load_dataset(input_dir))
    lines = [
        f"n_entities\t{result.n_entities}",
        f"n_relations\t{result.n_relations}",
        f"n_train\t{result.n_train}",
        f"n_valid\t{result.n_valid}",
        f"n_test\t{result.n_test}",
    ]
    _echo_text("\n".join(lines) + "\n", Path(output) if output else None, manifest)


@cli.command("convert")
@click.option("--format", "source_format", required=True, type=click.Choice(convert.FORMATS))
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--gloss-split", is_flag=True,
              help="kgbert only: split 'name, gloss' entity text at the first comma.")
def convert_cmd(source_format: str, input_dir: str, output_dir: str, gloss_split: bool) -> None:
    """Convert a public distribution into the toolkit layout."""
    manifest = RunManifest("convert", input_dir, output_dir, started_at=_now(),
                           params={"format": source_format, "gloss_split": str(gloss_split).lower()})
    if source_format == "kgbert":
        result = convert.convert_kgbert(input_dir, output_dir, gloss_split=gloss_split)
    else:
        result = convert.convert_wikidata5m(input_dir, output_dir)
    _finish(manifest, Path(output_dir))
    click.echo(
        f"converted: {result.n_entities} entities, {result.n_relations} relations, "
        f"{result.n_train}/{result.n_valid}/{result.n_test} train/valid/test triples"
    )


@cli.command("transform")
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--recipe", required=True, type=click.Choice(sorted(_RECIPE_NAMES)))
@click.option("--targets", required=True, help="Comma-separated: entities,relations,descriptions.")
@click.option("--seed", type=int, default=0, show_default=True)
def transform_cmd(input_dir: str, output_dir: str, recipe: str, targets: str, seed: int) -> None:
    """Apply one perturbation recipe and write the variant dataset."""
    target_set = _targets_set(targets)
    manifest = RunManifest("transform", input_dir, output_dir, seed=seed, started_at=_now(),
                           params={"recipe": recipe, "targets": ",".join(sorted(target_set))})
    graph = kg.load_dataset(input_dir)
    try:
        out_kg, mapping = transform.apply_recipe(graph, _RECIPE_NAMES[recipe], target_set, seed)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    out = Path(output_dir)
    transform.write_variant(graph, out_kg, mapping, recipe, out)
    _finish(manifest, out)
    click.echo(f"wrote variant to {out}")


@cli.command()
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
def suite(input_dir: str, output_dir: str, seed: int) -> None:
    """Generate all 13 labeled variants (base + 12 perturbations)."""
    manifest = RunManifest("suite", input_dir, output_dir, seed=seed, started_at=_now())
    graph = kg.load_dataset(input_dir)
    results = transform.generate_suite(graph, seed, output_dir)
    failed = []
    for result in results:
        if result.ok:
            click.echo(f"{result.label}: ok ({result.path})")
        else:
            failed.append(result.label)
            click.echo(f"{result.label}: FAILED ({result.error})", err=True)
    _finish(manifest, Path(output_dir))
    if failed:
        raise InfeasibleError(f"{len(failed)} variant(s) failed: {', '.join(failed)}")


@cli.command("relation-dist")
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def relation_dist(input_dir: str, output: str | None) -> None:
    """Distinct-relation-count distribution per entity, per split."""
    manifest = RunManifest("relation-dist", input_dir, output or "-", started_at=_now())
    table = analysis.relation_distribution(kg.load_dataset(input_dir))
    _echo_text(table.to_text(), Path(output) if output else None, manifest)


@cli.command()
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def leakage(input_dir: str, output: str | None) -> None:
    """Share of queries answerable by reading the query entity's description."""
    manifest = RunManifest("leakage", input_dir, output or "-", started_at=_now())
    table = analysis.description_leakage(kg.load_dataset(input_dir))
    _echo_text(table.to_text(), Path(output) if output else None, manifest)


@cli.command("train-baseline")
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--dim", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--margin", type=float, default=1.0, show_default=True)
@click.option("--norm", type=click.Choice(["L1", "L2"]), default="L1", show_default=True)
@click.option("--learning-rate", type=float, default=0.01, show_default=True)
@click.option("--epochs", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--negatives", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--batch-size", type=click.IntRange(min=1), default=1024, show_default=True,
              help="(triple, negative) pairs per update; 1 is per-triple SGD.")
@click.option("--eval-split", type=click.Choice(["none", "valid", "test"]), default="none",
              show_default=True)
def train_baseline(input_dir: str, output_dir: str, dim: int, margin: float, norm: str,
                   learning_rate: float, epochs: int, negatives: int, seed: int,
                   batch_size: int, eval_split: str) -> None:
    """Train the structure-only baseline and checkpoint it."""
    manifest = RunManifest(
        "train-baseline", input_dir, output_dir, seed=seed, started_at=_now(),
        params={
            "dim": str(dim), "margin": repr(margin), "norm": norm,
            "learning_rate": repr(learning_rate), "epochs": str(epochs),
            "negatives": str(negatives), "batch_size": str(batch_size),
            "eval_split": eval_split,
        },
    )
    graph = kg.load_dataset(input_dir)
    for split in ("train", eval_split):
        if split != "none" and not graph.split(split):
            raise ValidationError(f"{split} split of {input_dir} is empty")
    config = transe.TrainConfig(
        dim=dim, margin=margin, norm=norm, learning_rate=learning_rate,
        epochs=epochs, negatives_per_positive=negatives, seed=seed, batch_size=batch_size,
    )
    model = transe.train(graph, config)
    out = Path(output_dir)
    transe.save_model(model, out)
    if eval_split != "none":
        report = transe.evaluate_model(model, graph, split=eval_split)
        (out / "metrics.tsv").write_text(report.to_text(), encoding="utf-8")
        click.echo(report.to_text(), nl=False)
    _finish(manifest, out)
    click.echo(f"checkpoint written to {out}")


@cli.command("evaluate")
@click.option("--input", "input_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--predictions", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--filtered/--raw", "filtered", default=True, show_default=True,
              help="Drop known-true rivals (any split) before ranking the gold; "
                   "--raw ranks by list position.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def evaluate_cmd(input_dir: str, predictions: str, filtered: bool, output: str | None) -> None:
    """Score an external system's ranked predictions on the test split."""
    manifest = RunManifest("evaluate", input_dir, output or "-", started_at=_now(),
                           params={"predictions": predictions, "filtered": str(filtered).lower()})
    graph = kg.load_dataset(input_dir)
    report = evaluate.evaluate_predictions(graph, predictions, filtered)
    _echo_text(report.to_text(), Path(output) if output else None, manifest)


@cli.command()
@click.option("--input", "input_file", required=True, type=click.Path(exists=True, dir_okay=False),
              help="TSV with a header of series names and one row of floats per observation.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def correlate(input_file: str, output: str | None) -> None:
    """Pairwise Pearson correlation matrix over named series."""
    manifest = RunManifest("correlate", input_file, output or "-", started_at=_now())
    rows = kg.read_rows(input_file)
    header_line, header = next(rows, (0, []))
    series: dict[str, list[float]] = {}
    for name in header:
        if name in series:
            raise ValidationError(
                f"{Path(input_file).name}:{header_line}: repeated column name {name!r}"
            )
        series[name] = []
    for lineno, cells in rows:
        for name, value in zip(header, kg.float_cells(input_file, lineno, cells)):
            series[name].append(value)
    try:
        matrix = analysis.pearson_matrix(series)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    _echo_text(matrix.to_text(), Path(output) if output else None, manifest)


@cli.command()
@click.argument("values", nargs=-1, type=float)
@click.option("--input", "input_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File with one value per line (alternative to positional values).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def outliers(values: tuple[float, ...], input_file: str | None, output: str | None) -> None:
    """IQR outlier detection over a list of values."""
    data = list(values)
    if input_file:
        for lineno, cells in kg.read_rows(input_file, 1):
            data.extend(kg.float_cells(input_file, lineno, cells))
    if len(data) < 4:
        raise click.BadParameter("need at least 4 values")
    manifest = RunManifest("outliers", input_file or "-", output or "-", started_at=_now())
    report = analysis.iqr_outliers(data)
    _echo_text(report.to_text(), Path(output) if output else None, manifest)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (LoadError, ValidationError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (InfeasibleError, UniquenessError, SamplingError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except KgsynthError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        click.echo(f"internal error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
