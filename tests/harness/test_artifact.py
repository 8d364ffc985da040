"""Tests for the paper's artifact-format writer/reader."""

import io

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.generators import build_corpus
from repro.harness import SweepEngine
from repro.harness.artifact import (
    ARTIFACT_ORDERINGS,
    artifact_filename,
    export_all_artifacts,
    read_artifact_file,
    speedups_from_artifact,
    write_artifact_file,
)
from repro.harness.experiments import REORDERINGS
from repro.machine import get_architecture


@pytest.fixture(scope="module")
def corpus():
    return build_corpus("tiny", seed=1)[:4]


@pytest.fixture(scope="module")
def sweep(corpus):
    return SweepEngine(corpus, [get_architecture("Rome")],
                       list(REORDERINGS)).run()


def test_filename_convention():
    assert artifact_filename("1d", "Milan B", 128, 490) == \
        "csr_1d_milanb_128_threads_ss490.txt"


def test_write_read_roundtrip(sweep, corpus):
    buf = io.StringIO()
    write_artifact_file(sweep, corpus, "1d", "Rome", buf)
    buf.seek(0)
    rows = read_artifact_file(buf)
    assert len(rows) == len(corpus)
    for row, entry in zip(rows, corpus):
        assert row["name"] == entry.name
        assert row["nnz"] == entry.nnz
        assert row["nthreads"] == 16
        for o in ARTIFACT_ORDERINGS:
            assert row[o]["imbalance"] >= 1.0
            assert row[o]["gflops_max"] > 0


def test_column_count_is_54(sweep, corpus):
    buf = io.StringIO()
    write_artifact_file(sweep, corpus, "1d", "Rome", buf)
    line = buf.getvalue().splitlines()[0]
    assert len(line.split()) == 54  # the artifact's documented layout


def test_speedups_match_sweep(sweep, corpus):
    buf = io.StringIO()
    write_artifact_file(sweep, corpus, "1d", "Rome", buf)
    rows = read_artifact_file(buf.getvalue())
    from_artifact = speedups_from_artifact(rows, "GP")
    direct = sweep.speedups("GP", "1d", "Rome")
    assert np.allclose(from_artifact, direct, rtol=1e-4)


def test_missing_record_rejected(sweep, corpus):
    from repro.generators import named_matrix

    other = [named_matrix("HV15R", scale=0.1)]
    with pytest.raises(HarnessError):
        write_artifact_file(sweep, other, "1d", "Rome", io.StringIO())


def test_malformed_line_rejected():
    with pytest.raises(HarnessError):
        read_artifact_file("a b c\n")


def test_unknown_ordering_rejected(sweep, corpus):
    buf = io.StringIO()
    write_artifact_file(sweep, corpus, "1d", "Rome", buf)
    rows = read_artifact_file(buf.getvalue())
    with pytest.raises(HarnessError):
        speedups_from_artifact(rows, "QuickSort")


def test_export_all(sweep, corpus, tmp_path):
    paths = export_all_artifacts(sweep, corpus,
                                 [get_architecture("Rome")], tmp_path)
    assert len(paths) == 2  # 1d + 2d
    for p in paths:
        rows = read_artifact_file(p)
        assert len(rows) == len(corpus)


def test_2d_imbalance_is_one_in_artifact(sweep, corpus):
    """Footnote 1 of the paper: the 2D kernel's imbalance factor is
    always ~1.0 in the artifact files."""
    buf = io.StringIO()
    write_artifact_file(sweep, corpus, "2d", "Rome", buf)
    for row in read_artifact_file(buf.getvalue()):
        for o in ARTIFACT_ORDERINGS:
            assert row[o]["imbalance"] <= 1.05
