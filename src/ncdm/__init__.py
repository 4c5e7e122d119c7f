"""Compression-based similarity for multisets of byte strings.

The distance of a bag of objects is driven by the compressed size of the
whole bag relative to its members: similar objects compress well together.
This package provides the pairwise, un-maximized, exact, and greedy-chain
forms of that distance, plus classification, margin-guided partitioning,
confidence intervals, input converters, and a synthetic benchmark generator.
"""

__version__ = "0.1.0"

from .classify import (
    ClassificationReport,
    TestItem,
    classify_items,
    delta_ncd1,
    loocv,
    wilson_ci,
)
from .compressor import (
    Bz2Backend,
    CompressorBackend,
    ExternalBackend,
    NormalityReport,
    SizeCache,
    ZlibBackend,
    compress_len,
    get_backend,
    normality_report,
    serialize_multiset,
)
from .datagen import CellModelParams, CellTrack, cell_radius, simulate_population, write_population
from .errors import (
    BackendUnavailableError,
    CardinalityLimitError,
    CorpusError,
    DegenerateInputError,
    NcdmError,
    SeparatorCollisionError,
)
from .ingest import (
    GrayImage,
    QuantizerConfig,
    TimeSeries,
    fit_quantizer,
    image_to_bitstream,
    load_corpus,
    otsu_threshold,
    quantize_timeseries,
)
from .multiset import Element, Multiset
from .ncd import DistanceMatrix, GProfile, HeuristicResult, NcdCalculator, NcdValue
from .partition import (
    Margin,
    PartitionConfig,
    PartitionTree,
    klists_split,
    margin,
    min_class_distances,
    min_inter_class_margin,
    recursive_partition,
)

__all__ = [
    "__version__",
    "BackendUnavailableError",
    "Bz2Backend",
    "CardinalityLimitError",
    "CellModelParams",
    "CellTrack",
    "ClassificationReport",
    "CompressorBackend",
    "CorpusError",
    "DegenerateInputError",
    "DistanceMatrix",
    "Element",
    "ExternalBackend",
    "GProfile",
    "GrayImage",
    "HeuristicResult",
    "Margin",
    "Multiset",
    "NcdCalculator",
    "NcdValue",
    "NcdmError",
    "NormalityReport",
    "PartitionConfig",
    "PartitionTree",
    "QuantizerConfig",
    "SeparatorCollisionError",
    "SizeCache",
    "TestItem",
    "TimeSeries",
    "ZlibBackend",
    "cell_radius",
    "classify_items",
    "compress_len",
    "delta_ncd1",
    "fit_quantizer",
    "get_backend",
    "image_to_bitstream",
    "klists_split",
    "load_corpus",
    "loocv",
    "margin",
    "min_class_distances",
    "min_inter_class_margin",
    "normality_report",
    "otsu_threshold",
    "quantize_timeseries",
    "recursive_partition",
    "serialize_multiset",
    "simulate_population",
    "wilson_ci",
    "write_population",
]
