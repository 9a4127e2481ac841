"""Shared exception types carrying the CLI exit-code convention.

Exit codes: 0 success / positive verdict, 1 negative analysis verdict
(not resilient, recordings without eps, non-natural data), 2 usage or
I/O error (including negative counts and non-trim simulate machines), 3
resource-guard abort, 4 internal error (any other exception; the CLI
prints its traceback).
"""

from __future__ import annotations


class FstlearnError(Exception):
    """Base class. exit_code is what the CLI returns when this surfaces."""

    exit_code = 2


class FormatError(FstlearnError):
    """Malformed machine file, dataset file, symbol token, or pattern string."""


class ResourceLimitError(FstlearnError):
    """A construction exceeded fst.MAX_STATES, fst.MAX_WORDS or hankel.MAX_BLOCK_CELLS."""

    exit_code = 3


class AnalysisError(FstlearnError):
    """The data or model fails a method precondition.

    This is a negative result about the inputs, not a tool failure, so it
    maps to exit code 1. The stage tag names the pipeline step that
    detected the problem.
    """

    exit_code = 1

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message


class ClosednessError(AnalysisError):
    """Some H_chi row leaves the row space of H_theta. No stage raises it; kept for importers."""


class DegenerateRankError(AnalysisError):
    """H_theta has numeric rank zero; nothing to factor."""


class NaturalityError(AnalysisError):
    """The decomposition or tuple cannot be put in natural form."""
