"""Shared fixtures: the running-example machines and dataset.

The attacker swaps the supervisor's a3 for a1 and then a1 for a2; the
plant answers every actuation with s2; the desired behavior alternates
(a1:s2)(a2:s2). Letters chi1=(a3:a1), chi2=(a1:a3), chi3=(a1:a2).
"""

from __future__ import annotations

import numpy as np
import pytest

from fstlearn import Fst, Mask, SampleSet, identity_fst, pattern_to_fst

CHI1 = ("a3", "a1")
CHI2 = ("a1", "a3")
CHI3 = ("a1", "a2")

# The running example's worked mask: three prefixes, four suffixes, the
# empty word leading both sides.
GOLDEN_MASK = Mask(
    prefixes=((), (CHI1,), (CHI2,)),
    suffixes=((), (CHI1,), (CHI2,), (CHI3,)),
)

# Hand-enumerated blocks: entry (psi, gamma) of h_theta is 1 iff the
# concatenation psi+gamma is a sample word, and of h_chi iff psi+chi+gamma
# is. Each row is checkable directly against DEMO_WORDS.
GOLDEN_H_THETA = np.array(
    [
        [1.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)
GOLDEN_H_CHI1 = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)
GOLDEN_H_CHI2 = GOLDEN_H_CHI1
GOLDEN_H_CHI3 = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 0.0],
    ]
)

DEMO_WORDS = frozenset(
    {
        (),
        (CHI1,),
        (CHI2,),
        (CHI1, CHI3),
        (CHI2, CHI3),
        (CHI1, CHI3, CHI1),
        (CHI1, CHI3, CHI2),
        (CHI2, CHI3, CHI1),
        (CHI2, CHI3, CHI2),
    }
)

XU, YU, XV, YV = ("x", "u"), ("y", "u"), ("x", "v"), ("y", "v")

# Two sets with a "stray" H_chi row, neither zero nor an H_Theta row. Both give the mask
# ([eps, xu], [eps, xu]). Here H_Theta is [11, 10] and H_xu is [10, 01]: 01 = 11 - 10 lies in
# the row space, so the data is closed but not natural.
STRAY_IN_SPAN_WORDS = frozenset({(), (XU,), (XU, XU, XU)})
# Here eps is not in D, H_Theta is [00, 01] and H_xu is [01, 11]: 11 leaves the row space,
# so the float reference finds the data not closed; learn_pipeline refuses the set first.
STRAY_OUT_OF_SPAN_WORDS = frozenset({(XU, XU), (XU, XU, XU)})


@pytest.fixture
def demo_attacker() -> Fst:
    return Fst(
        states=("0", "1"),
        initial="0",
        transitions=frozenset(
            {("0", "a3", "a1", "1"), ("0", "a1", "a3", "1"), ("1", "a1", "a2", "0")}
        ),
        finals=frozenset({"0", "1"}),
    )


@pytest.fixture
def demo_plant() -> Fst:
    return Fst(
        states=("0",),
        initial="0",
        transitions=frozenset({("0", "a1", "s2", "0"), ("0", "a2", "s2", "0")}),
        finals=frozenset({"0"}),
    )


@pytest.fixture
def demo_mk() -> Fst:
    return pattern_to_fst("((a1:s2)(a2:s2))*")


@pytest.fixture
def identity_sensor() -> Fst:
    return identity_fst(("s2",))


@pytest.fixture
def demo_dataset() -> SampleSet:
    return SampleSet.from_words(DEMO_WORDS)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of a run."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", None) != "call":
                continue
            name = rep.nodeid.rsplit("::", 1)[-1]
            if name.startswith("test_criterion_"):
                lines[name] = "PASS" if rep.passed else "FAIL"
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{lines[name]}  {name}")
