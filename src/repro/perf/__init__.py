"""Performance simulation: a deterministic stand-in for the paper's testbed."""

from .simulator import PerfSimulator

__all__ = ["PerfSimulator"]
