"""Shipped defaults and model-size presets.

Values marked "engineering default" are not published numbers; they are
configuration choices documented here so nobody mistakes them for ones.
"""

from dataclasses import dataclass

# Lane-to-lane matching thresholds used by the evaluation protocol, meters.
EVAL_THRESHOLDS_M = (1.5, 0.5)

# Longitudinal boundary between "near" and "far" error pools, meters.
NEAR_FAR_SPLIT_M = 40.0

# Evaluation resampling grid: 1..100 m at 1 m spacing (engineering default;
# the protocol fixes the 0-100 m range but not the sample count).
EVAL_Y_MIN_M = 1.0
EVAL_Y_MAX_M = 100.0
EVAL_Y_STEP_M = 1.0


@dataclass(frozen=True)
class ModelConfig:
    """Post-processing configuration for one model size.

    ``max_keypoints`` is the number of keypoints kept after point NMS,
    ``repeats`` the number of proposals per target keypoint, and ``bev_shape``
    the (rows, cols) of the BEV anchor lattice.  The proposal budget is their
    product: ``proposal_count = max_keypoints * repeats``.
    """

    name: str
    max_keypoints: int
    repeats: int
    bev_shape: tuple[int, int]

    @property
    def proposal_count(self):
        return self.max_keypoints * self.repeats


MODEL_PRESETS = {
    "lite": ModelConfig(name="lite", max_keypoints=256, repeats=2, bev_shape=(56, 32)),
    "base": ModelConfig(name="base", max_keypoints=256, repeats=2, bev_shape=(56, 64)),
    "large": ModelConfig(name="large", max_keypoints=384, repeats=4, bev_shape=(72, 128)),
}
