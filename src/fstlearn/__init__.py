"""Learn FST attacker models from recorded attack words and synthesize
resilient supervisors for clocked control loops under channel attacks."""

from types import ModuleType as _ModuleType

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
from .hankel import (
    TOL_BINARY,
    TOL_RANK,
    HankelSet,
    Mask,
    build_h_chi,
    build_h_theta,
    build_hankel_set,
    check_closed,
    find_basis,
    numeric_rank,
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
from .spectral import (
    Decomposition,
    LearnResult,
    TransitionTuple,
    eval_tuple,
    extract_tuple,
    full_rank_decompose,
    is_natural,
    learn_fst,
    learn_pipeline,
    naturalize,
    tuple_to_fst,
)
from .supervisor import (
    SynthesisResult,
    pattern_to_fst,
    supervised_language,
    synthesize,
    verify_resilient,
)

__version__ = "0.1.0"

# Every name imported above, less the submodules those imports bind.
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
__all__.append("__version__")
