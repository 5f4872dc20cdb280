"""Accuracy machinery: ULP metrics, sampling, scoring, local error."""

from .localerror import local_errors
from .sampler import SampleConfig, SampleSet, SamplingError, sample_core
from .scoring import pointwise_errors, score_program
from .ulp import bits_of_error, ulps_between

__all__ = [
    "ulps_between",
    "bits_of_error",
    "SampleConfig",
    "SampleSet",
    "SamplingError",
    "sample_core",
    "score_program",
    "pointwise_errors",
    "local_errors",
]
