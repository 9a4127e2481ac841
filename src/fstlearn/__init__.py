"""Learn FST attacker models from recorded attack words and synthesize
resilient supervisors for clocked control loops under channel attacks."""

import importlib

from .errors import (
    AnalysisError,
    ClosednessError,
    DegenerateRankError,
    FormatError,
    FstlearnError,
    NaturalityError,
    ResourceLimitError,
)
from .formats import (
    fst_from_text,
    fst_to_text,
    load_dataset,
    load_fst,
    sampleset_from_text,
    sampleset_to_text,
    save_dataset,
    save_fst,
    word_from_text,
    word_to_text,
)
from .fst import (
    EPS,
    Fst,
    Letter,
    SampleSet,
    Word,
    accepts,
    compose,
    counterexample,
    equivalent,
    identity_fst,
    intersect,
    invert,
    is_prefix_closed,
    language_upto,
    minimize,
    trim,
)
from .loop import (
    LoopConfig,
    LoopState,
    LoopTrace,
    StepRecord,
    format_trace,
    initial_state,
    run,
    sample_attacker,
    step,
)
from .supervisor import (
    SynthesisResult,
    pattern_to_fst,
    supervised_language,
    synthesize,
    verify_resilient,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "ClosednessError",
    "DegenerateRankError",
    "FormatError",
    "FstlearnError",
    "NaturalityError",
    "ResourceLimitError",
    "fst_from_text",
    "fst_to_text",
    "load_dataset",
    "load_fst",
    "sampleset_from_text",
    "sampleset_to_text",
    "save_dataset",
    "save_fst",
    "word_from_text",
    "word_to_text",
    "EPS",
    "Fst",
    "Letter",
    "SampleSet",
    "Word",
    "accepts",
    "compose",
    "counterexample",
    "equivalent",
    "identity_fst",
    "intersect",
    "invert",
    "is_prefix_closed",
    "language_upto",
    "minimize",
    "trim",
    "TOL_BINARY",
    "TOL_RANK",
    "HankelSet",
    "Mask",
    "build_h_chi",
    "build_h_theta",
    "build_hankel_set",
    "check_closed",
    "find_basis",
    "numeric_rank",
    "LoopConfig",
    "LoopState",
    "LoopTrace",
    "StepRecord",
    "format_trace",
    "initial_state",
    "run",
    "sample_attacker",
    "step",
    "Decomposition",
    "LearnResult",
    "TransitionTuple",
    "eval_tuple",
    "extract_tuple",
    "full_rank_decompose",
    "is_natural",
    "learn_fst",
    "learn_pipeline",
    "naturalize",
    "tuple_to_fst",
    "SynthesisResult",
    "pattern_to_fst",
    "supervised_language",
    "synthesize",
    "verify_resilient",
    "__version__",
]

# Only learning needs numpy: hankel and spectral, which import it, load on first use (PEP 562).
_LAZY = {
    name: module
    for module, names in (
        ("hankel", "TOL_BINARY TOL_RANK HankelSet Mask build_h_chi build_h_theta build_hankel_set"
                   " check_closed find_basis numeric_rank"),
        ("spectral", "Decomposition LearnResult TransitionTuple eval_tuple extract_tuple"
                     " full_rank_decompose is_natural learn_fst learn_pipeline naturalize tuple_to_fst"),
    )
    for name in (module, *names.split())
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
