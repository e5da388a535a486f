"""entkit: entanglement measures, mixed-state families, channel analysis,
universal cloning, and protocol simulations for small quantum systems.

Importing the package loads `qcore` alone.  The other modules load on first
use: `entkit.channel`, `from entkit import channel` and `import entkit.channel`
all import the module once (PEP 562 `__getattr__`); after that it is a plain
attribute of the package.  So a command pays only for the modules it runs.
"""
import importlib

from . import qcore
from .qcore import DensityMatrix, DomainError, PureState

__all__ = [
    "channel", "cloning", "measures", "protocols", "qcore", "statezoo",
    "DensityMatrix", "DomainError", "PureState",
]


def __getattr__(name: str):
    # called only for a name not yet set, so a name in __all__ is a submodule
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
