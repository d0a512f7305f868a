"""Joint entity and relation extraction for cyber threat intelligence text.

Pipeline: annotated corpus -> multisequence labeling rows (one per
relation, with entity mask and entity-type features) -> BiGRU encoder
with a CRF tagging head and a softmax relation head trained on a joint
loss -> triple extraction and graph export.
"""

from .corpus import (
    AnnotatedSentence,
    Corpus,
    EntitySpan,
    EntityType,
    OntologySchema,
    RelationInstance,
    RelationType,
    TypeSystem,
    dataset_stats,
    load_corpus,
    validate_bio,
    validate_ontology,
)
from .errors import DataError
from .evaluation import (
    MetricReport,
    PairPrediction,
    SpanPrediction,
    decode_spans,
    evaluate_model,
    ner_metrics,
    re_metrics,
    run_ablation,
)
from .extract import ExtractionResult, Extractor, Triple, export_graph
from .model import (
    ModelConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .mslr import (
    Batch,
    MslrExample,
    MslrInstance,
    Vocabulary,
    build_vocab,
    encode,
    expand,
    make_batches,
    make_entity_mask,
)
from .train import AdamWState, TrainConfig, TrainingLog, adamw_step, split, train_loop

__version__ = "0.1.0"

__all__ = [
    "AdamWState",
    "AnnotatedSentence",
    "Batch",
    "Corpus",
    "DataError",
    "EntitySpan",
    "EntityType",
    "ExtractionResult",
    "Extractor",
    "MetricReport",
    "ModelConfig",
    "MslrExample",
    "MslrInstance",
    "OntologySchema",
    "PairPrediction",
    "RelationInstance",
    "RelationType",
    "SpanPrediction",
    "TrainConfig",
    "TrainingLog",
    "Triple",
    "TypeSystem",
    "Vocabulary",
    "adamw_step",
    "backward",
    "build_vocab",
    "dataset_stats",
    "decode_spans",
    "encode",
    "evaluate_model",
    "expand",
    "export_graph",
    "forward",
    "init_params",
    "load_checkpoint",
    "load_corpus",
    "make_batches",
    "make_entity_mask",
    "ner_metrics",
    "re_metrics",
    "run_ablation",
    "save_checkpoint",
    "split",
    "train_loop",
    "validate_bio",
    "validate_ontology",
]
