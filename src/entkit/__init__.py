"""entkit: entanglement measures, mixed-state families, channel analysis,
universal cloning, and protocol simulations for small quantum systems."""

from . import channel, cloning, measures, protocols, qcore, statezoo
from .qcore import DensityMatrix, DomainError, PureState

__all__ = [
    "channel", "cloning", "measures", "protocols", "qcore", "statezoo",
    "DensityMatrix", "DomainError", "PureState",
]
