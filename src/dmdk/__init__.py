"""Radiology report generation fusing disease-topic labels and knowledge graphs."""

__version__ = "0.1.0"

from .config import RunConfig, load_config, parse_config
from .graph import KnowledgeGraph, build_specific_graph, load_base_graph
from .metrics import MetricReport, bleu, cider, evaluate_corpus, rouge_l
from .model import (
    AblationMode,
    FusionWeights,
    ModelSpec,
    ReportModel,
    TrainingDiverged,
    generate_for_records,
    load_model,
    run_gradient_check,
    save_model,
    train,
)
from .text import CorpusRecord, Entity, EntityType, Vocabulary, load_corpus, tokenize
from .topics import DiseaseTopicLabels, extract_topic_labels

__all__ = [
    "AblationMode",
    "CorpusRecord",
    "DiseaseTopicLabels",
    "Entity",
    "EntityType",
    "FusionWeights",
    "KnowledgeGraph",
    "MetricReport",
    "ModelSpec",
    "ReportModel",
    "RunConfig",
    "TrainingDiverged",
    "Vocabulary",
    "bleu",
    "build_specific_graph",
    "cider",
    "evaluate_corpus",
    "extract_topic_labels",
    "generate_for_records",
    "load_base_graph",
    "load_config",
    "load_corpus",
    "load_model",
    "parse_config",
    "rouge_l",
    "run_gradient_check",
    "save_model",
    "tokenize",
    "train",
]
