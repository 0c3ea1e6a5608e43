"""desclite: learned low-dimensional projections of local patch descriptors.

Pipeline: synthesize or load 32x32 patches, extract 128-D descriptors,
compress them with PCA or an MLP encoder trained by one of three schemes
(autoencoder, cluster pseudo-labels, supervised triplets), then score the
compressed descriptors on patch verification, image matching and retrieval.
"""

__version__ = "0.1.0"

from .data import DescriptorSet, PatchDataset, generate_synthetic, \
    load_descriptors, save_descriptors, sift_like_descriptor, split_dataset
from .errors import ConfigError, DescliteError, FormatError, NumericError, \
    ShapeError, StateError
from .eval import EvalReport, average_precision, eval_matching, \
    eval_retrieval, eval_verification
from .nn import MlpModel, build_encoder, load_model, save_model
from .pca import PcaModel, fit_pca, load_pca, pca_transform, save_pca
from .train import TrainConfig, reduce, train

__all__ = [
    "__version__",
    "ConfigError", "DescliteError", "FormatError", "NumericError",
    "ShapeError", "StateError",
    "DescriptorSet", "PatchDataset", "generate_synthetic",
    "load_descriptors", "save_descriptors", "sift_like_descriptor",
    "split_dataset",
    "EvalReport", "average_precision", "eval_matching", "eval_retrieval",
    "eval_verification",
    "MlpModel", "build_encoder", "load_model", "save_model",
    "PcaModel", "fit_pca", "load_pca", "pca_transform", "save_pca",
    "TrainConfig", "reduce", "train",
]
