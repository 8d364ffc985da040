"""Shared fixtures for the serving tests.

One small corpus and one trained model per session (training runs a
real sweep and dominates test time); each test that needs a daemon
boots its own on a free port via :func:`repro.serve.start_in_thread`
so admission/batching knobs can differ per test.
"""

from __future__ import annotations

import pytest

from repro.advisor import Advisor, train_model
from repro.generators import build_corpus
from repro.machine import get_architecture

ORDERINGS = ("RCM", "Gray")
ARCH_NAME = "Rome"


@pytest.fixture(scope="session")
def corpus():
    return build_corpus("tiny", seed=0)[:6]


@pytest.fixture(scope="session")
def corpus_names(corpus):
    return [e.name for e in corpus]


@pytest.fixture(scope="session")
def arch():
    return get_architecture(ARCH_NAME)


@pytest.fixture(scope="session")
def model(corpus, arch):
    return train_model(corpus=corpus[:4], architectures=[arch],
                       orderings=ORDERINGS, seed=0)


@pytest.fixture()
def advisor(model):
    return Advisor(model)


@pytest.fixture(scope="session")
def oracle(model):
    """A *separate* advisor instance: the unbatched reference answers
    must not share caches with the daemon under test."""
    return Advisor(model)
