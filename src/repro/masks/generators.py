"""The five mask families of Table II / Figure 4.

Each generator mirrors one row of Table II:

==================  ===========  ===========  ==========  =========
Signal              mean change  var change   FFT spread  FFT peaks
==================  ===========  ===========  ==========  =========
Constant            no           no           no          no
Uniformly Random    yes          no           yes         no
Gaussian            yes          yes          yes         no
Sinusoid            yes          yes          no          yes
Gaussian Sinusoid   yes          yes          yes         yes
==================  ===========  ===========  ==========  =========

The Gaussian Sinusoid (Equation 4) is the mask Maya deploys:

    r(T) = Offset + Amp * sin(2 pi T / Period) + Noise(mu, sigma)

with every parameter re-drawn each N_hold samples, the target kept below
TDP, and the sinusoid period kept above two samples (Nyquist).
"""

from __future__ import annotations

import numpy as np

from .base import MaskGenerator, SegmentedMask

__all__ = [
    "ConstantMask",
    "UniformRandomMask",
    "GaussianMask",
    "SinusoidMask",
    "GaussianSinusoidMask",
    "MASK_FAMILIES",
    "make_mask",
]


class ConstantMask(MaskGenerator):
    """A fixed target power (the Maya Constant design of Table V)."""

    def __init__(
        self,
        power_range: tuple[float, float],
        rng: np.random.Generator,
        level_w: float | None = None,
    ) -> None:
        super().__init__(power_range, rng)
        if level_w is None:
            # A level the actuators can hold through both the hottest and
            # the idlest application phases, like the ~25 W constant level
            # visible in Figure 11c on Sys1.
            level_w = self.low_w + 0.45 * self.span_w
        self.level_w = self._clip(level_w)

    def next_target(self) -> float:
        return self.level_w


class UniformRandomMask(SegmentedMask):
    """A random level held for a random duration (Figure 4b)."""

    def _draw_parameters(self, rng: np.random.Generator) -> None:
        self._level_w = self.low_w + rng.uniform(0.0, 1.0) * self.span_w

    def _evaluate(self, sample_index: int, rng: np.random.Generator) -> float:
        return self._level_w


class GaussianMask(SegmentedMask):
    """Gaussian samples with mean/variance re-drawn per segment (Fig. 4c)."""

    def _draw_parameters(self, rng: np.random.Generator) -> None:
        self._mu_w = self.low_w + rng.uniform(0.2, 0.8) * self.span_w
        self._sigma_w = rng.uniform(0.02, 0.12) * self.span_w

    def _evaluate(self, sample_index: int, rng: np.random.Generator) -> float:
        return float(rng.normal(self._mu_w, self._sigma_w))


class _SinusoidParams:
    """Shared sinusoid parameter drawing with the Nyquist constraint."""

    def draw(self, mask: SegmentedMask, rng: np.random.Generator) -> None:
        span = mask.span_w
        # Offsets sit in the lower half of the band: the paper's deployed
        # mask averages well below the insecure Baseline's power (its
        # Figure 14a shows ~29% average power savings under Maya GS).
        self.offset_w = mask.low_w + rng.uniform(0.15, 0.45) * span
        self.amp_w = rng.uniform(0.08, 0.30) * span
        # Period in samples: >= 2 (Nyquist, Section V-B), and short enough
        # that every N_hold segment contains multiple cycles — that is what
        # imprints the discrete FFT lines of Figure 4d.
        self.period = rng.uniform(2.0, 32.0)
        self.phase = rng.uniform(0.0, 2.0 * np.pi)

    def value(self, sample_index: int) -> float:
        angle = 2.0 * np.pi * sample_index / self.period + self.phase
        return self.offset_w + self.amp_w * np.sin(angle)


class SinusoidMask(SegmentedMask):
    """Sinusoid with random frequency/amplitude/offset (Figure 4d)."""

    def _draw_parameters(self, rng: np.random.Generator) -> None:
        self._params = _SinusoidParams()
        self._params.draw(self, rng)

    def _evaluate(self, sample_index: int, rng: np.random.Generator) -> float:
        return float(self._params.value(sample_index))


class GaussianSinusoidMask(SegmentedMask):
    """The proposed mask: sinusoid plus gaussian noise (Equation 4)."""

    def _draw_parameters(self, rng: np.random.Generator) -> None:
        self._params = _SinusoidParams()
        self._params.draw(self, rng)
        self._mu_w = rng.uniform(-0.05, 0.05) * self.span_w
        self._sigma_w = rng.uniform(0.02, 0.10) * self.span_w

    def _evaluate(self, sample_index: int, rng: np.random.Generator) -> float:
        noise_w = rng.normal(self._mu_w, self._sigma_w)
        return float(self._params.value(sample_index) + noise_w)


MASK_FAMILIES = {
    "constant": ConstantMask,
    "uniform": UniformRandomMask,
    "gaussian": GaussianMask,
    "sinusoid": SinusoidMask,
    "gaussian_sinusoid": GaussianSinusoidMask,
}


def make_mask(
    family: str,
    power_range: tuple[float, float],
    rng: np.random.Generator,
    **kwargs: object,
) -> MaskGenerator:
    """Instantiate a mask generator by family name."""
    try:
        cls = MASK_FAMILIES[family]
    except KeyError:
        raise KeyError(
            f"unknown mask family {family!r}; known: {sorted(MASK_FAMILIES)}"
        ) from None
    return cls(power_range, rng, **kwargs)
