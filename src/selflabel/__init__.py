"""Iterative multi-modal pseudo-label bootstrapping.

Contrastive pretraining of a small embedding network, k-means pseudo-labels
with elbow-selected K, supervised re-training with label smoothing, cluster-
ensemble fusion across modalities, and verification-style scoring (EER,
minDCF, AS-Norm) on a synthetic paired-modality corpus.
"""

from .clustering import (
    Assignment,
    ClusterSettings,
    WssCurve,
    kmeans,
    select_k_elbow,
    sweep_k,
    wss,
)
from .encoder import (
    ClassifierConfig,
    ClassifierHead,
    ContrastiveConfig,
    EncoderParams,
    classifier_loss,
    contrastive_loss,
    embed,
    grad_check,
    train_classifier,
    train_contrastive,
)
from .ensemble import (
    Correspondence,
    FusedLabels,
    contingency,
    correspond,
    fuse_pseudo_labels,
    joint_embeddings,
    majority_vote,
    relabel,
)
from .errors import ConfigError, DataError, NumericError, SelfLabelError, TrainingError
from .metrics import DcfParams, eer, min_dcf, nmi, verification_metrics
from .pipeline import (
    EvalSettings,
    PipelineConfig,
    RoundArtifacts,
    run_pipeline,
    run_round,
    run_stage1,
)
from .scoring import Cohort, ScoreSet, Trials, as_norm, as_norm_scores, cosine_score, fuse_scores
from .synthdata import (
    MultiModalCorpus,
    SynthConfig,
    generate_corpus,
    perturb_two_views,
    read_corpus,
    write_corpus,
)

__version__ = "0.1.0"
