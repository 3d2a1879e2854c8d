"""The defense designs compared in the paper (Table V)."""

from .base import Defense, decide_batch
from .selective import SelectiveMaya
from .designs import (
    DESIGN_NAMES,
    Baseline,
    DefenseFactory,
    MayaDefense,
    NoisyBaseline,
    RandomInputs,
)

__all__ = [
    "Defense",
    "decide_batch",
    "DESIGN_NAMES",
    "Baseline",
    "DefenseFactory",
    "MayaDefense",
    "NoisyBaseline",
    "RandomInputs",
    "SelectiveMaya",
]
