"""Cross-document coreference evaluation and clustering toolkit."""

from .baselines import head_lemma_baseline, singleton_baseline
from .clustering import (
    ClusteringConfig,
    ScoreTable,
    combine_pair_score,
    generate_training_pairs,
    prune_spans,
    read_mention_scores,
    read_score_file,
    write_score_file,
    write_training_pairs,
)
from .conll import (
    export_conll,
    import_partition_conll,
    read_conll_spans,
    write_partition_conll,
)
from .corpus import (
    Corpus,
    CorpusError,
    Document,
    InvariantError,
    Mention,
    Partition,
    SchemaError,
    Token,
    filter_singletons,
    load_corpus,
    save_corpus,
)
from .harness import (
    EvalConfig,
    build_response,
    evaluation_units,
    load_partition_file,
    partition_on_spans,
    run_evaluation,
    run_pipeline,
    run_pipeline_from_config,
    run_sweep_from_config,
    save_partition_file,
)
from .linkage import Merge, average_link
from .metrics import (
    PRF,
    MetricReport,
    b_cubed,
    ceaf_e,
    conll_f1,
    evaluate,
    lea,
    mention_detection_prf,
    muc,
    optimal_alignment,
)
from .topics import DocVector, cluster_documents, cosine, group_documents, tfidf_vectors, write_topics

__version__ = "0.1.0"
