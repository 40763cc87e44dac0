"""Shared fixtures for the table/figure benchmarks.

Two sweeps are built once per session and shared by every benchmark:

* ``full_sweep`` — the paper's main grid (11 variants x 17 problems x
  3 levels x 5 temperatures x n=10), feeding Tables III/IV, Fig. 6-left,
  Fig. 7 and the headline numbers;
* ``n_sweep`` — the completions-per-prompt grid (n in {1, 10, 25}) for
  Fig. 6-right.

A single caching :class:`Evaluator` is shared so identical completions
are compiled/simulated once across the whole benchmark session.
"""

import pytest

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import Evaluator, SweepConfig
from repro.models import paper_model_variants


def _sweep(config, evaluator):
    session = Session(
        backend=LocalZooBackend(paper_model_variants()), evaluator=evaluator
    )
    return session.run_sweep(config).sweep


@pytest.fixture(scope="session")
def evaluator():
    return Evaluator()


@pytest.fixture(scope="session")
def full_sweep(evaluator):
    return _sweep(SweepConfig(), evaluator)


@pytest.fixture(scope="session")
def n_sweep(evaluator):
    config = SweepConfig(
        temperatures=(0.1, 0.3),
        completions_per_prompt=(1, 10, 25),
    )
    return _sweep(config, evaluator)
