"""Streaming frequency-domain noise suppression toolkit.

Per-frame inference for the NSnet2 and CRUSE model families, a deterministic
MAC profiler, a reverb-aware training-data synthesis pipeline, and the loss
and validation metrics used to study the quality-vs-complexity tradeoff.
"""

from .dsp import (
    StftConfig,
    apply_gain,
    istft,
    log_power_features,
    make_window,
    stft,
)
from .macs import MacReport, macs_model
from .models import (
    ModelGraph,
    ModelSpec,
    build_model,
    cruse_spec,
    format_model_name,
    infer_frame,
    infer_utterance,
    init_test_weights,
    load_weights,
    nsnet2_spec,
    parse_model_name,
    save_weights,
)
from .streaming import StreamingEnhancer, enhance_signal

__version__ = "0.1.0"

__all__ = [
    "StftConfig",
    "apply_gain",
    "istft",
    "log_power_features",
    "make_window",
    "stft",
    "MacReport",
    "macs_model",
    "ModelGraph",
    "ModelSpec",
    "build_model",
    "cruse_spec",
    "format_model_name",
    "infer_frame",
    "infer_utterance",
    "init_test_weights",
    "load_weights",
    "nsnet2_spec",
    "parse_model_name",
    "save_weights",
    "StreamingEnhancer",
    "enhance_signal",
    "__version__",
]
