"""Mask generators (Section IV-C) and the Table II property analyzer."""

from .base import (
    NHOLD_RANGE,
    MaskGenerator,
    SegmentedMask,
    next_targets,
)
from .generators import (
    MASK_FAMILIES,
    ConstantMask,
    GaussianMask,
    GaussianSinusoidMask,
    SinusoidMask,
    UniformRandomMask,
    make_mask,
)
from .properties import SignalProperties, analyze_signal

__all__ = [
    "NHOLD_RANGE",
    "MaskGenerator",
    "SegmentedMask",
    "next_targets",
    "MASK_FAMILIES",
    "ConstantMask",
    "GaussianMask",
    "GaussianSinusoidMask",
    "SinusoidMask",
    "UniformRandomMask",
    "make_mask",
    "SignalProperties",
    "analyze_signal",
]
