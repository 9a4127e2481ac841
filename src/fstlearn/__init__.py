"""Learn FST attacker models from recorded attack words and synthesize
resilient supervisors for clocked control loops under channel attacks.

`errors`, `formats` and `fst` load with the package. The learner
(`hankel`, `spectral`), the loop and the supervisor load on first use of
one of their names or of the module itself (PEP 562), so a command
imports only the modules it runs.
"""

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

# The public names of each module loaded on first use.
_LAZY = {
    "hankel": ("TOL_BINARY TOL_RANK HankelSet Mask build_h_chi build_h_theta build_hankel_set "
               "check_closed find_basis numeric_rank").split(),
    "loop": "LoopConfig LoopState LoopTrace StepRecord format_trace initial_state run sample_attacker step".split(),
    "spectral": ("Decomposition LearnResult TransitionTuple eval_tuple extract_tuple full_rank_decompose "
                 "is_natural learn_fst learn_pipeline naturalize tuple_to_fst").split(),
    "supervisor": "SynthesisResult pattern_to_fst supervised_language synthesize verify_resilient".split(),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__version__ = "0.1.0"

# Every name imported above, less the submodules those imports bind, then the deferred ones.
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
__all__ += [*(n for names in _LAZY.values() for n in names), "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_HOME[name]}")
    globals().update((n, getattr(module, n)) for n in _LAZY[_HOME[name]])  # as `from .module import ...` would
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
