"""Model-vs-exact-simulator validation (the substitution's own test)."""

import pytest

from repro.errors import ArchitectureError
from repro.generators import (
    banded_matrix,
    fem_mesh_2d,
    kmer_graph,
    random_er,
    stencil_2d,
)
from repro.machine.validate import validate_x_traffic_model
from repro.reorder import compute_ordering


def test_rank_correlation_across_structures():
    """The model must rank matrices by x traffic like the simulator."""
    matrices = [
        banded_matrix(600, 6, density=1.0, seed=0),
        banded_matrix(600, 6, density=1.0, seed=0, scrambled=True),
        stencil_2d(24, seed=1),
        stencil_2d(24, seed=1, scrambled=True),
        random_er(600, 8.0, seed=2),
        kmer_graph(600, seed=3),
    ]
    report = validate_x_traffic_model(matrices, cache_lines=32)
    assert report.rank_correlation > 0.7


def test_rank_correlation_across_orderings():
    """Ordering comparisons on one matrix must agree with the simulator
    — that is precisely what the speedup studies rely on."""
    a = fem_mesh_2d(500, seed=4, scrambled=True)
    variants = [a]
    labels = ["original"]
    for o in ("RCM", "GP", "AMD", "Gray"):
        variants.append(compute_ordering(a, o, nparts=16).apply(a))
        labels.append(o)
    report = validate_x_traffic_model(variants, cache_lines=16,
                                      labels=labels)
    assert report.rank_correlation > 0.6
    # absolute level within a factor ~3 on average
    assert report.mean_abs_log_error < 1.2


def test_perfect_cache_fit_exactly_matched():
    """When everything fits, model loads == compulsory == exact misses."""
    a = banded_matrix(100, 3, density=1.0, seed=0)
    report = validate_x_traffic_model([a], cache_lines=1024)
    assert report.model_loads[0] == report.exact_misses[0]


def test_invalid_inputs_rejected():
    with pytest.raises(ArchitectureError):
        validate_x_traffic_model([], cache_lines=0)
    with pytest.raises(ArchitectureError):
        validate_x_traffic_model(["not a matrix"], cache_lines=8)


def test_report_fields():
    a = stencil_2d(10, seed=0)
    report = validate_x_traffic_model([a, a], cache_lines=8,
                                      labels=("a", "b"))
    assert report.labels == ("a", "b")
    assert report.model_loads.shape == (2,)
    # identical inputs -> identical outputs on both sides
    assert report.model_loads[0] == report.model_loads[1]
    assert report.exact_misses[0] == report.exact_misses[1]
