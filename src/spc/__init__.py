"""Sequential personalized classification over unit-normalized embeddings."""

from .core import (DimensionMismatchError, LabeledRecord, LabelRegistry,
                   NormalizationError, PrototypeSet, SpcError, UserStore,
                   normalize)
from .data_io import (FileFormatError, ReportTable, read_prototypes,
                      read_records, render_report, write_manifest,
                      write_prototypes, write_records, write_report)
from .engine import (DotCounter, Ranking, SpcConfig, SumConfig, register,
                     spc_rank)
from .prototypes import (SubsetSpec, TrainIndex, build_prototypes, coverage,
                         select_classes)
from .stream import (BucketReport, CvResult, Outcome, Strategy, UserResult,
                     bucket_report, cross_validate_w, group_by_user,
                     run_streams, run_user_stream, sweep_table, sweep_w,
                     sweep_ws)
from .synth import SynthConfig, generate_synthetic

__all__ = [
    "BucketReport", "CvResult", "DimensionMismatchError", "DotCounter",
    "FileFormatError", "LabelRegistry", "LabeledRecord",
    "NormalizationError", "Outcome", "PrototypeSet", "Ranking",
    "ReportTable", "SpcConfig", "SpcError", "Strategy", "SubsetSpec",
    "SumConfig", "SynthConfig", "TrainIndex", "UserResult", "UserStore",
    "bucket_report", "build_prototypes", "coverage",
    "cross_validate_w", "generate_synthetic", "group_by_user",
    "normalize", "read_prototypes", "read_records", "register",
    "render_report", "run_streams", "run_user_stream", "select_classes",
    "spc_rank", "sweep_table", "sweep_w", "sweep_ws",
    "write_manifest", "write_prototypes", "write_records", "write_report",
]
