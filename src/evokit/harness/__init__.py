"""Experiment execution layer: manifests, recording, replay, the run lifecycle."""

from .config import (
    DEFAULT_MAX_WALL_SECONDS,
    ExperimentConfig,
    ParseError,
    ValidationError,
    from_dict,
    load_config,
)
from .recorder import EVENT_KINDS, KEY_ORDER, RecorderClosed, TrajectoryRecorder
from .replay import ReplayReport, TrajectoryCorrupt, mask_volatile, masked_lines, replay
from .runner import ExperimentRecord, cache_root_for, run_experiment

__all__ = [
    "DEFAULT_MAX_WALL_SECONDS",
    "EVENT_KINDS",
    "ExperimentConfig",
    "ExperimentRecord",
    "KEY_ORDER",
    "ParseError",
    "RecorderClosed",
    "ReplayReport",
    "TrajectoryCorrupt",
    "TrajectoryRecorder",
    "ValidationError",
    "cache_root_for",
    "from_dict",
    "load_config",
    "mask_volatile",
    "masked_lines",
    "replay",
    "run_experiment",
]
