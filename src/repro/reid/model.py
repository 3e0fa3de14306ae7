"""The simulated ReID model.

A real ReID network (the paper uses OSNet retrained with triplet+softmax
loss) maps BBox crops of the same object to nearby feature vectors.  Our
simulator reproduces that contract directly: each GT object carries a
unit-norm latent appearance vector, and "extracting a feature" returns the
latent perturbed by noise whose magnitude grows as visibility drops (an
occluded crop is a worse crop).  Clutter detections get their own stable
pseudo-latents so false-positive tracks look like distinct objects.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.detect import Detection
from repro.synth.world import VideoGroundTruth


@dataclass(frozen=True)
class ReidParams:
    """Noise characteristics of the simulated embedding.

    Attributes:
        base_noise: feature noise magnitude for a fully visible crop
            (std-dev of the additive perturbation's norm).
        occlusion_noise: additional noise magnitude at zero visibility;
            effective noise is ``base + occlusion_noise * (1 - visibility)``.
        quality_sigma: log-normal σ of the per-crop quality multiplier.
            Real ReID embeddings vary strongly with crop quality (pose,
            blur, truncation); this heavy tail is what makes a *single*
            BBox-pair distance a noisy estimate of the pair score — the
            reason uniform sampling (PS) needs many draws per pair while
            the exhaustive baseline and adaptive sampling do not.
        outlier_prob: base probability a crop is garbage (mis-cropped box,
            motion blur): its feature carries ``outlier_noise``, swamping
            the identity signal.  Garbage crops make single BBox-pair
            distances *bimodal* — a clean pair of same-object crops scores
            low, any pair touching a garbage crop scores high — which is
            the dominant source of per-draw estimation noise and the reason
            every sampling method needs many draws per contested pair.
        occlusion_outlier: extra garbage probability at zero visibility
            (occluded crops are the classic garbage source).
        outlier_noise: noise magnitude of garbage crops.
        pose_scale: magnitude of the per-crop *pose* component.  Each object
            owns a random 2-D subspace; every crop's feature is displaced
            within it by a random phase.  Because the displacement is
            low-dimensional it does **not** concentrate away like isotropic
            noise: individual BBox-pair distances genuinely scatter around
            the pair score (std ≈ ``pose_scale``), which is why single-draw
            estimates misrank pairs and uniform sampling needs many draws
            per pair.  This models viewpoint/pose variation along a track.
        dim: embedding dimensionality (must match the world's latents).
    """

    base_noise: float = 0.15
    occlusion_noise: float = 0.3
    quality_sigma: float = 0.4
    outlier_prob: float = 0.25
    occlusion_outlier: float = 0.3
    outlier_noise: float = 2.2
    pose_scale: float = 0.35
    dim: int = 64

    def __post_init__(self) -> None:
        if self.base_noise < 0 or self.occlusion_noise < 0:
            raise ValueError("noise magnitudes must be non-negative")
        if self.quality_sigma < 0:
            raise ValueError("quality_sigma must be non-negative")
        if not 0 <= self.outlier_prob <= 1:
            raise ValueError("outlier_prob must be in [0, 1]")
        if self.occlusion_outlier < 0:
            raise ValueError("occlusion_outlier must be non-negative")
        if self.outlier_noise < 0:
            raise ValueError("outlier_noise must be non-negative")
        if self.pose_scale < 0:
            raise ValueError("pose_scale must be non-negative")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")


class SimReIDModel:
    """Feature extractor over a simulated world.

    Args:
        world: the GT video whose objects' latents back the features.
        params: noise configuration.
        seed: seed of the extraction noise stream — an ``int`` or a
            :class:`numpy.random.SeedSequence` substream (the parallel
            engine passes per-window children so every window's noise
            is independent of execution order).
    """

    def __init__(
        self,
        world: VideoGroundTruth,
        params: ReidParams | None = None,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        self.params = params or ReidParams(dim=world.config.appearance_dim)
        if self.params.dim != world.config.appearance_dim:
            raise ValueError(
                "ReID dim must match the world's appearance_dim "
                f"({self.params.dim} != {world.config.appearance_dim})"
            )
        self.world = world
        self._rng = np.random.default_rng(seed)
        self._clutter_latents: dict[int, np.ndarray] = {}
        self._pose_bases: dict[int, np.ndarray] = {}

    @staticmethod
    def world_view(world: VideoGroundTruth) -> VideoGroundTruth:
        """A copy of ``world`` with only what this model reads: the
        config and the objects (their appearance latents).

        The window-local regime ships this view across the pool seam
        instead of the whole video; frames, occluders and glare are
        ~90% of a pickled world.  A model that starts reading another
        field must keep it here.
        """
        return dataclasses.replace(world, frames=[], occluders=[], glare=[])

    def _pose_basis(self, object_id: int) -> np.ndarray:
        """The object's 2-D pose subspace, an orthonormal ``(2, dim)``."""
        basis = self._pose_bases.get(object_id)
        if basis is None:
            # Arithmetic seed (hash() is randomized per process).
            local = np.random.default_rng(70_003 + int(object_id) * 104_729)
            raw = local.normal(0.0, 1.0, size=(2, self.params.dim))
            q, _ = np.linalg.qr(raw.T)
            basis = q.T[:2]
            self._pose_bases[object_id] = basis
        return basis

    def _pose_offset(self, detection: Detection) -> np.ndarray:
        """Random-phase displacement in the source object's pose plane."""
        if self.params.pose_scale == 0 or detection.source_id is None:
            return np.zeros(self.params.dim)
        basis = self._pose_basis(detection.source_id)
        # uniform(0, 2π) is computed as 0 + 2π·next_double: the same value.
        phase = 2.0 * np.pi * self._rng.random()
        return self.params.pose_scale * (
            np.cos(phase) * basis[0] + np.sin(phase) * basis[1]
        )

    def _latent_for(self, detection: Detection) -> np.ndarray:
        if detection.source_id is not None:
            return self.world.objects[detection.source_id].appearance
        # Stable pseudo-latent per clutter detection, derived from geometry
        # so repeated extraction of the same detection is consistent.
        # (Arithmetic key — hash() is randomized per process.)
        key = (
            int(round(detection.bbox.x1 * 1000)) * 1_000_003
            + int(round(detection.bbox.y1 * 1000)) * 10_007
            + int(round(detection.bbox.x2 * 1000)) * 101
            + int(round(detection.bbox.y2 * 1000))
        )
        if key not in self._clutter_latents:
            local = np.random.default_rng(abs(key) % (2**63))
            vec = local.normal(0.0, 1.0, size=self.params.dim)
            self._clutter_latents[key] = vec / np.linalg.norm(vec)
        return self._clutter_latents[key]

    def extract(self, detection: Detection) -> np.ndarray:
        """Extract a feature vector for one detection (one "forward pass").

        The result is unit-norm.  Cost accounting is the caller's job (see
        :class:`~repro.reid.scorer.ReidScorer`), keeping the model pure.
        """
        params = self.params
        latent = self._latent_for(detection)
        # Scalar clip and ``sqrt(x.dot(x))`` are numpy's clip and 1-D norm
        # bit for bit, without the per-call overhead (DESIGN.md §9.3).
        occlusion = 1.0 - min(max(float(detection.visibility), 0.0), 1.0)
        noise_scale = params.base_noise + params.occlusion_noise * occlusion
        # Per-crop quality: heavy-tailed multiplier plus occasional garbage
        # crops, so individual BBox-pair distances scatter widely around
        # the pair score (see ReidParams.quality_sigma).
        if params.quality_sigma > 0:
            noise_scale *= float(
                self._rng.lognormal(0.0, params.quality_sigma)
            )
        garbage_prob = min(
            params.outlier_prob + params.occlusion_outlier * occlusion, 0.9
        )
        if garbage_prob > 0 and self._rng.random() < garbage_prob:
            noise_scale = max(noise_scale, params.outlier_noise)
        noise = self._rng.normal(0.0, 1.0, size=params.dim)
        noise_norm = math.sqrt(noise.dot(noise))
        if noise_norm > 0:
            noise = noise * (noise_scale / noise_norm)
        feature = latent + self._pose_offset(detection) + noise
        norm = math.sqrt(feature.dot(feature))
        if norm == 0:
            return latent.copy()
        return feature / norm

    def rng_state(self) -> dict:
        """JSON-able state of the extraction noise stream.

        Together with :meth:`set_rng_state` this lets the checkpoint
        layer resume a crashed window with the exact noise draws the
        uninterrupted run would have made.
        """
        return dict(self._rng.bit_generator.state)

    def set_rng_state(self, state: dict) -> None:
        """Restore a noise-stream state captured by :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    def tracker_embedder(
        self, noise_multiplier: float = 1.5
    ) -> Callable[[Detection], np.ndarray]:
        """A cheaper, noisier embedding head for the trackers themselves.

        DeepSORT/UMA run a lightweight appearance descriptor online; giving
        them a *noisier* view of the latents than the offline ReID model
        preserves the paper's premise that trackers alone cannot eliminate
        polyonymous tracks while TMerge's stronger model can.
        """
        base = self.params
        cheap = SimReIDModel(
            self.world,
            params=ReidParams(
                base_noise=base.base_noise * noise_multiplier,
                occlusion_noise=base.occlusion_noise * noise_multiplier,
                quality_sigma=base.quality_sigma,
                outlier_prob=min(base.outlier_prob * noise_multiplier, 0.9),
                occlusion_outlier=base.occlusion_outlier,
                outlier_noise=base.outlier_noise,
                pose_scale=base.pose_scale,
                dim=base.dim,
            ),
            seed=int(self._rng.integers(2**63)),
        )
        return cheap.extract
