"""The package's public names: every one resolves when the package loads."""

from __future__ import annotations

import fstlearn
import fstlearn.cli


def test_every_exported_name_resolves():
    for name in fstlearn.__all__:
        assert getattr(fstlearn, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from fstlearn import *", namespace)
    assert set(fstlearn.__all__) <= set(namespace)


def test_learner_names_are_the_submodules_own_objects():
    assert fstlearn.learn_pipeline is fstlearn.spectral.learn_pipeline
    assert fstlearn.cli.learn_pipeline is fstlearn.spectral.learn_pipeline
    assert fstlearn.TOL_RANK is fstlearn.hankel.TOL_RANK


def test_supervisor_names_are_the_submodules_own_objects():
    # cli imports them when a command runs, and serves them as attributes.
    assert fstlearn.cli.synthesize is fstlearn.supervisor.synthesize
    assert fstlearn.cli.verify_resilient is fstlearn.supervisor.verify_resilient


def test_dir_lists_every_exported_name():
    assert set(fstlearn.__all__) <= set(dir(fstlearn))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(fstlearn, "nope")
    assert not hasattr(fstlearn.cli, "nope")
