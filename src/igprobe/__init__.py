"""Attribution-based probe of classifier sensitivity to JPEG degradation.

The package measures how lossy compression moves a fixed-embedding
scorer's loss, explains the movement per pixel with integrated
gradients along the original-to-compressed path, and audits every
numeric building block (quadrature, backprop, codec, resampling)
against independent oracles.

``import igprobe`` loads no submodule and so no numpy: each name below is
imported from its submodule when first used (PEP 562).  That lets
``python -m igprobe`` size OpenBLAS's thread pool before numpy loads it
(see ``__main__``).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("AttributionMap", "PathSpec", "PolarityMaps", "integrated_gradients",
                     "split_polarity"), "attribution"),
    **dict.fromkeys(("ORIGINAL", "QualityLevel", "degrade_jpeg", "psnr", "quant_table",
                     "resize_bicubic"), "codec"),
    **dict.fromkeys(("Dataset", "DatasetItem", "gen_synthetic", "load_dataset"), "data"),
    **dict.fromkeys(("PrecisionTable", "accuracy", "attribute_batch", "macro_precision",
                     "sweep_precision"), "harness"),
    **dict.fromkeys(("GradFn", "LossGrads", "Scorer", "ScorerModel", "TrainConfig", "backward",
                     "forward", "gradient_check", "load_model", "new_scorer", "save_model",
                     "train"), "model"),
    **dict.fromkeys(("ProviderClient", "ProviderError", "provider_connect"), "provider"),
    **dict.fromkeys(("SeededRng", "Tensor", "argmax"), "tensor"),
    **dict.fromkeys(("emit_chart_svg", "emit_table", "render_overlay"), "viz"),
}

__all__ = [
    "AttributionMap", "Dataset", "DatasetItem", "GradFn", "LossGrads", "ORIGINAL",
    "PathSpec", "PolarityMaps", "PrecisionTable", "ProviderClient",
    "ProviderError", "QualityLevel", "Scorer", "ScorerModel", "SeededRng",
    "Tensor", "TrainConfig", "accuracy", "argmax", "attribute_batch", "backward",
    "degrade_jpeg", "emit_chart_svg", "emit_table", "forward", "gen_synthetic",
    "gradient_check", "integrated_gradients", "load_dataset", "load_model",
    "macro_precision", "new_scorer", "provider_connect", "psnr", "quant_table",
    "render_overlay", "resize_bicubic", "save_model", "split_polarity", "sweep_precision",
    "train", "__version__",
]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later uses skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))
