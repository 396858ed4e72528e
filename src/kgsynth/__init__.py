"""Structure-preserving text perturbations for knowledge-graph-completion
benchmarks, with link-prediction evaluation and a text-blind baseline."""

__version__ = "0.1.0"

from .analysis import (
    description_leakage,
    iqr_outliers,
    pearson_matrix,
    relation_distribution,
)
from .derangement import (
    DerangementResult,
    bipartite_derange,
    build_removed_edges,
    derange,
)
from .errors import (
    InfeasibleError,
    KgsynthError,
    LoadError,
    SamplingError,
    UniquenessError,
    ValidationError,
)
from .evaluate import (
    MetricsReport,
    Query,
    RankingRecord,
    compute_metrics,
    evaluate_predictions,
    rank_gold,
    rank_split,
)
from .kg import (
    DatasetStats,
    KnowledgeGraph,
    compute_stats,
    load_dataset,
    stream_stats,
    write_dataset,
)
from .rewriter import PatternIndex, build_index, find_keys, rewrite_descriptions, rewrite_text
from .textgen import UnigramModel, fit_unigram, sample_string, sample_unique_strings
from .transform import (
    SUITE_VARIANTS,
    TransformMapping,
    TransformRecipe,
    apply_recipe,
    generate_suite,
)
from .transe import (
    EmbeddingModel,
    TrainConfig,
    evaluate_model,
    init_model,
    score_triple,
    train,
)
