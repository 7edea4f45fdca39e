"""Two-stage vulnerability detection for C/C++ source.

A binary convolutional detector screens normalized token sequences; samples
it flags are handed to a convolutional-recurrent classifier that names the
weakness class.  Everything numeric runs on a small from-scratch layer
library over numpy arrays.
"""

__version__ = "0.1.0"

from .dataset import (
    CorpusSample,
    LabelMap,
    build_label_map,
    class_stats,
    load_corpus,
    split,
)
from .errors import PipelineError
from .models import (
    Model,
    ModelSpec,
    Prediction,
    Verdict,
    build_model,
    predict_two_stage,
    stage1_spec,
    stage2_spec,
)
from .normalizer import normalize, normalize_source, tokenize
from .serialize import load_model, save_model
from .smote import SmoteConfig, oversample
from .training import TrainConfig, TrainResult, train
from .vocab import Vocabulary, build_vocab, decode, encode, encode_batch

__all__ = [
    "CorpusSample",
    "LabelMap",
    "Model",
    "ModelSpec",
    "PipelineError",
    "Prediction",
    "SmoteConfig",
    "TrainConfig",
    "TrainResult",
    "Verdict",
    "Vocabulary",
    "build_label_map",
    "build_model",
    "build_vocab",
    "class_stats",
    "decode",
    "encode",
    "encode_batch",
    "load_corpus",
    "load_model",
    "normalize",
    "normalize_source",
    "oversample",
    "predict_two_stage",
    "save_model",
    "split",
    "stage1_spec",
    "stage2_spec",
    "tokenize",
    "train",
    "__version__",
]
