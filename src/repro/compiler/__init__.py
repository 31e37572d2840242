"""The FlexNet compiler: placement, fungibility, optimization, and
incremental recompilation of fungible datapaths (§3.3)."""

from repro import _lazy_exports

__all__ = [
    "CompilationPlan",
    "DeviceSpec",
    "IncrementalCompiler",
    "IncrementalResult",
    "MergeCandidate",
    "MergeEvaluation",
    "NetworkSlice",
    "Objective",
    "ObjectiveKind",
    "PlacementEngine",
    "ReconfigPlan",
    "ReconfigStep",
    "StagePlan",
    "StepKind",
    "TableMerger",
    "convert",
    "decode",
    "diff_programs",
    "encode",
    "full_recompile_plan",
    "refine",
    "select_encoding",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "incremental": (
            "IncrementalCompiler",
            "IncrementalResult",
            "diff_programs",
            "full_recompile_plan",
        ),
        "optimizer": ("MergeCandidate", "MergeEvaluation", "TableMerger", "refine"),
        "placement": ("NetworkSlice", "Objective", "ObjectiveKind", "PlacementEngine"),
        "plan": (
            "CompilationPlan",
            "DeviceSpec",
            "ReconfigPlan",
            "ReconfigStep",
            "StagePlan",
            "StepKind",
        ),
        "state_encoding": ("convert", "decode", "encode", "select_encoding"),
    },
)
