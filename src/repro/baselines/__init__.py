"""The systems the paper positions FlexNet against."""

from repro import _lazy_exports

__all__ = [
    "ActivationResult",
    "CompileTimeNetwork",
    "EmulationReport",
    "Hyper4Device",
    "MantisDevice",
    "ProvisionedSlot",
    "ReflashEvent",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "compile_time": ("CompileTimeNetwork", "ReflashEvent"),
        "hyper4": ("EmulationReport", "Hyper4Device"),
        "mantis": ("ActivationResult", "MantisDevice", "ProvisionedSlot"),
    },
)
