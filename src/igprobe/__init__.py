"""Attribution-based probe of classifier sensitivity to JPEG degradation.

The package measures how lossy compression moves a fixed-embedding
scorer's loss, explains the movement per pixel with integrated
gradients along the original-to-compressed path, and audits every
numeric building block (quadrature, backprop, codec, resampling)
against independent oracles.
"""

__version__ = "0.1.0"

from .attribution import (AttributionMap, PathSpec, PolarityMaps, integrated_gradients,
                          split_polarity)
from .codec import (ORIGINAL, QualityLevel, degrade_jpeg, psnr, quant_table,
                    resize_bicubic)
from .data import Dataset, DatasetItem, gen_synthetic, load_dataset
from .harness import (AttributionBatch, AttributionRecord, PrecisionRow, PrecisionTable,
                      accuracy, attribute_batch, macro_precision, sweep_precision)
from .model import (GradFn, LossGrads, Scorer, ScorerModel, TrainConfig, backward, forward,
                    gradient_check, load_model, new_scorer, save_model, train)
from .provider import ProviderClient, ProviderError, ProviderSpec, provider_connect
from .tensor import SeededRng, Tensor, argmax
from .viz import emit_chart_svg, emit_table, render_overlay

__all__ = [
    "AttributionBatch", "AttributionMap", "AttributionRecord",
    "Dataset", "DatasetItem", "GradFn", "LossGrads", "ORIGINAL",
    "PathSpec", "PolarityMaps", "PrecisionRow", "PrecisionTable", "ProviderClient",
    "ProviderError", "ProviderSpec", "QualityLevel", "Scorer", "ScorerModel", "SeededRng",
    "Tensor", "TrainConfig", "accuracy", "argmax", "attribute_batch", "backward",
    "degrade_jpeg", "emit_chart_svg", "emit_table", "forward", "gen_synthetic",
    "gradient_check", "integrated_gradients", "load_dataset", "load_model",
    "macro_precision", "new_scorer", "provider_connect", "psnr", "quant_table",
    "render_overlay", "resize_bicubic", "save_model", "split_polarity", "sweep_precision",
    "train", "__version__",
]
