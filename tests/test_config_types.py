"""Every typed config refuses a wrong type in each of its ``int``, ``float``
and ``bool`` fields, by the one rule of ``errors.check_field_types``."""
import dataclasses
import math
import re

import numpy as np
import pytest

from calibrefine.blocks import BlockGrid
from calibrefine.correction import CorrectionConfig
from calibrefine.matching import MatchGate
from calibrefine.pipeline import PipelineConfig
from calibrefine.ransac import RansacConfig
from calibrefine.refine import RefineConfig
from calibrefine.simulator import SceneConfig

#: Each config with the arguments it needs to construct.
CONFIGS = [
    (SceneConfig, {}),
    (BlockGrid, {"image_width": 1920, "image_height": 1080}),
    (RansacConfig, {}),
    (MatchGate, {}),
    (CorrectionConfig, {}),
    (RefineConfig, {}),
    (PipelineConfig, {}),
]

WRONG = {
    "int": ("an integer", [2.5, math.inf, True, "5"]),
    "float": ("a number", [True, "5", 10**400]),
    "bool": ("a boolean", [0]),
}


def kind(f: dataclasses.Field) -> str:
    return getattr(f.type, "__name__", f.type)


def wrong_cases():
    for cls, base in CONFIGS:
        for f in dataclasses.fields(cls):
            what, values = WRONG.get(kind(f), (None, []))
            for value in values:
                yield pytest.param(cls, base, f.name, what, value, id=f"{cls.__name__}.{f.name}={value!r:.10}")


def test_every_config_has_typed_fields():
    for cls, _ in CONFIGS:
        assert any(kind(f) in WRONG for f in dataclasses.fields(cls)), cls


@pytest.mark.parametrize("cls, base, name, what, value", list(wrong_cases()))
def test_field_refuses_the_wrong_type(cls, base, name, what, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {what}, got {value!r}')}$"):
        cls(**{**base, name: value})


def int_fields():
    for cls, base in CONFIGS:
        for f in dataclasses.fields(cls):
            if kind(f) == "int":
                for value in (2**63, -(2**63) - 1, 10**400):
                    yield pytest.param(cls, base, f.name, value, id=f"{cls.__name__}.{f.name}={value!r:.10}")


@pytest.mark.parametrize("cls, base, name, value", list(int_fields()))
def test_int_field_refuses_an_integer_past_int64(cls, base, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a 64-bit integer, got {value!r}')}$"):
        cls(**{**base, name: value})


def test_int64_bounds_pass_the_type_rule():
    assert RansacConfig(seed=2**63 - 1).seed == 2**63 - 1
    assert RansacConfig(seed=np.uint64(2**63 - 1)).seed == 2**63 - 1
    with pytest.raises(ValueError, match="seed must be non-negative"):  # not the type rule
        RansacConfig(seed=-(2**63))
    with pytest.raises(ValueError, match="must be a 64-bit integer"):
        RansacConfig(seed=np.uint64(2**63))


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (CorrectionConfig, "max_outer_rounds", 2.5),
        (CorrectionConfig, "min_pairs", 12.5),
        (CorrectionConfig, "max_iterations", math.inf),
        (RefineConfig, "recalib_interval", 2.5),
        (SceneConfig, "n_objects", 12.0),
        (BlockGrid, "image_width", 1920.0),
        (PipelineConfig, "coarse_frames", 100.0),
    ],
)
def test_whole_floats_are_not_integers(cls, name, value):
    base = {"image_width": 1920, "image_height": 1080} if cls is BlockGrid else {}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cls(**{**base, name: value})


def test_numpy_numbers_pass():
    SceneConfig(n_objects=np.int64(12), seed=np.uint32(3), pixel_noise_sigma=np.float64(0.5))
    RansacConfig(max_iterations=np.int32(10), inlier_threshold=np.int64(3))
    MatchGate(np.float32(40.0))

