import numpy as np
import pytest

from repro.errors import MatrixFormatError, ReproError
from repro.util import (
    as_rng,
    check_index_array,
    check_positive,
    format_boxplot_rows,
    format_table,
    require,
    spawn_rng,
)


def test_as_rng_from_int_deterministic():
    a = as_rng(7).integers(0, 1000, 5)
    b = as_rng(7).integers(0, 1000, 5)
    assert np.array_equal(a, b)


def test_as_rng_passthrough():
    rng = np.random.default_rng(1)
    assert as_rng(rng) is rng


def test_spawn_rng_independent():
    rng = as_rng(3)
    children = spawn_rng(rng, 3)
    draws = [c.integers(0, 10**9) for c in children]
    assert len(set(draws)) == 3


def test_spawn_rng_negative_rejected():
    with pytest.raises(ValueError):
        spawn_rng(as_rng(0), -1)


def test_require_raises_repro_errors_only():
    with pytest.raises(TypeError):
        require(False, ValueError, "nope")
    with pytest.raises(MatrixFormatError):
        require(False, MatrixFormatError, "bad")
    require(True, MatrixFormatError, "fine")


def test_check_positive():
    assert check_positive("x", 3) == 3
    with pytest.raises(ReproError):
        check_positive("x", 0)


def test_check_index_array_converts_dtype():
    arr = check_index_array("a", np.array([0, 1], dtype=np.int32), 2)
    assert arr.dtype == np.int64


def test_check_index_array_rejects_out_of_range():
    with pytest.raises(MatrixFormatError):
        check_index_array("a", np.array([0, 5]), 3)


def test_format_table_alignment():
    out = format_table(["name", "v"], [["a", 1.5], ["bb", 2.0]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "1.500" in out
    assert lines[0].startswith("name")


def test_format_table_width_mismatch():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_format_boxplot_rows():
    out = format_boxplot_rows(
        ["RCM", "GP"],
        [[0.5, 0.8, 1.0, 1.2, 1.5], [0.7, 1.0, 1.2, 1.4, 2.0]],
        lower=0.0, upper=2.0)
    assert "RCM" in out and "GP" in out
    assert "med=1.00" in out


def test_format_boxplot_mismatched_lengths():
    with pytest.raises(ValueError):
        format_boxplot_rows(["a"], [], 0, 1)
