"""Desk-scale fine-tuning toolkit for condescending-language detection.

A from-scratch mini transformer with the training strategies needed for the
task: grouped layer-wise learning-rate decay, weighted random sampling for
class imbalance, binary and multi-label objectives, stratified k-fold model
selection and seed-ensemble voting.
"""

from .autograd import Tape, Tensor, backward
from .data import ParagraphRecord, Vocabulary, stratified_kfold
from .encoder import EncoderConfig, EncoderParams, encode_batch, pooler
from .ensemble import RunReport, select_top_k, vote_binary, vote_multilabel
from .metrics import macro_f1, prf1_positive
from .optim import AdamW, ParamGroup, build_grouped_llrd, cosine_warmup_multiplier
from .sampler import class_ratios, draw_epoch, wrs_weights
from .trainer import RunConfig, run_kfold, run_single_fold, train_fold

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "EncoderConfig",
    "EncoderParams",
    "ParagraphRecord",
    "ParamGroup",
    "RunConfig",
    "RunReport",
    "Tape",
    "Tensor",
    "Vocabulary",
    "backward",
    "build_grouped_llrd",
    "class_ratios",
    "cosine_warmup_multiplier",
    "draw_epoch",
    "encode_batch",
    "macro_f1",
    "pooler",
    "prf1_positive",
    "run_kfold",
    "run_single_fold",
    "select_top_k",
    "stratified_kfold",
    "train_fold",
    "vote_binary",
    "vote_multilabel",
    "wrs_weights",
]
