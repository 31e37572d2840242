"""FlexNet: a runtime programmable network.

A reproduction of "A Vision for Runtime Programmable Networks"
(HotNets '21): the FlexBPF language and analyzer, a fungibility-aware
incremental compiler, simulated device architectures (RMT, dRMT, tiles,
SmartNIC, FPGA, host/eBPF), hitless runtime reconfiguration, and a
real-time controller with app-level management — all over a
discrete-event data plane simulator.

Quick start::

    from repro import FlexNet
    from repro.apps import base_infrastructure

    net = FlexNet.standard()
    net.install(base_infrastructure())
    report = net.run_traffic(rate_pps=1000, duration_s=1.0)
    assert report.metrics.loss_rate == 0.0
"""

import importlib
import sys
import types

__version__ = "0.1.0"

__all__ = [
    "FlexNet",
    "FlexNetError",
    "FungibleDatapath",
    "ProgramBuilder",
    "Slo",
    "apply_delta",
    "certify",
    "parse_delta",
    "parse_program",
    "__version__",
]


class _Package(types.ModuleType):
    """A package whose exports load on first use. Importing a submodule
    binds it on its package under its own name; where that name is also
    an export (``repro.targets.host`` the function, defined in the
    module of the same name), the package binds the export instead, so
    the name means the same whichever was imported first."""

    def __setattr__(self, name, value):
        if name in self.__all__ and value is sys.modules.get(f"{self.__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The module-level ``__getattr__`` (PEP 562) of ``package``, whose
    ``exports`` map each submodule to the names it gives the package.
    A name's first read imports its one submodule and stores the value
    in the package's globals, so every later read is a plain attribute
    load and a process loads only the submodules it reads from."""
    module = sys.modules[package]
    module.__class__ = _Package
    namespace = vars(module)
    source = {name: f"{package}.{sub}" for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(source[name]), name)
        return value

    return __getattr__


__getattr__ = _lazy_exports(
    __name__,
    {
        "core.datapath": ("FungibleDatapath",),
        "core.flexnet": ("FlexNet",),
        "core.slo": ("Slo",),
        "errors": ("FlexNetError",),
        "lang.analyzer": ("certify",),
        "lang.builder": ("ProgramBuilder",),
        "lang.delta": ("apply_delta",),
        "lang.parser": ("parse_delta", "parse_program"),
    },
)
