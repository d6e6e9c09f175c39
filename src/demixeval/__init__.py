"""Evaluation engine and challenge harness for four-stem music demixing.

The exported names load lazily (PEP 562): `import demixeval` imports no
layer and no numpy, so an entry point can configure the process first.
"""

import importlib

_EXPORTS = {
    "audio_io": (
        "DatasetManifest",
        "SongEntry",
        "StemKind",
        "ValidationReport",
        "Waveform",
        "load_manifest",
        "read_wav",
        "validate_song_audio",
        "write_wav",
    ),
    "metrics": (
        "Aggregation",
        "MetricConfig",
        "MetricId",
        "framewise",
        "global_sdr",
        "metric_suite",
    ),
    "oracle": (
        "OracleConfig",
        "Spectrogram",
        "ideal_mwf",
        "ideal_swf",
        "istft",
        "mixture_baseline",
        "stft",
        "swf_masks",
    ),
    "harness": (
        "Leaderboard",
        "LeaderboardEntry",
        "ScoreDocument",
        "SongScore",
        "evaluate_submission",
        "plan_rounds",
        "rank",
        "score_song",
    ),
    "analysis": (
        "CorrelationKind",
        "CorrelationMatrix",
        "MetricTable",
        "correlation_matrix",
        "pearson",
        "spearman",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        # also how `from demixeval import cli` falls through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
