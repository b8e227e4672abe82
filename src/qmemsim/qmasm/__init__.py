"""Extended-QASM toolchain: parser, validator, interpreter."""

from .interpreter import (RunConfig, RunResult, TimingProfile, aggregate_counts,
                          execute, iter_shots, parse_post_select, replay_trace,
                          run_shots)
from .parser import parse_program
from .validator import Diagnostic, has_errors, validate

__all__ = [
    "Diagnostic", "RunConfig", "RunResult", "TimingProfile", "aggregate_counts",
    "execute", "has_errors", "iter_shots", "parse_post_select", "parse_program",
    "replay_trace", "run_shots", "validate",
]
