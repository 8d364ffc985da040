"""Tests for the corpus registry and named stand-ins."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GeneratorError
from repro.generators import (
    build_corpus,
    corpus_names,
    named_matrix,
    split_corpus,
)
from repro.generators.suite import named_matrix_names
from repro.matrix import is_pattern_symmetric


def test_tiny_corpus_builds():
    corpus = build_corpus("tiny", seed=0)
    assert len(corpus) >= 25
    names = [e.name for e in corpus]
    assert len(set(names)) == len(names)  # unique names


def test_corpus_entries_square_and_nonempty():
    for e in build_corpus("tiny", seed=0):
        assert e.matrix.is_square
        assert e.nnz > 0
        assert e.nrows > 0


def test_corpus_deterministic():
    c1 = build_corpus("tiny", seed=7)
    c2 = build_corpus("tiny", seed=7)
    for a, b in zip(c1, c2):
        assert a.name == b.name
        assert np.array_equal(a.matrix.colidx, b.matrix.colidx)


def test_corpus_seed_changes_matrices():
    c1 = build_corpus("tiny", seed=1)
    c2 = build_corpus("tiny", seed=2)
    diffs = sum(
        not (a.matrix.nnz == b.matrix.nnz
             and np.array_equal(a.matrix.colidx, b.matrix.colidx))
        for a, b in zip(c1, c2))
    assert diffs > len(c1) // 2


def test_corpus_group_filter():
    corpus = build_corpus("tiny", seed=0, groups=("PDE",))
    assert all(e.group == "PDE" for e in corpus)
    assert len(corpus) >= 4


def test_corpus_empty_filter_rejected():
    with pytest.raises(GeneratorError):
        build_corpus("tiny", seed=0, groups=("NoSuchGroup",))


def test_unknown_tier_rejected():
    with pytest.raises(GeneratorError):
        build_corpus("gigantic")


def test_corpus_names_match_build():
    names = corpus_names("tiny")
    built = [e.name for e in build_corpus("tiny", seed=0)]
    assert names == built


def test_spd_entries_are_symmetric():
    for e in build_corpus("tiny", seed=0):
        if e.spd:
            assert is_pattern_symmetric(e.matrix), e.name


def test_all_named_matrices_build():
    for name in named_matrix_names():
        e = named_matrix(name, scale=0.25)
        assert e.nnz > 0, name
        assert e.matrix.is_square, name


def test_named_matrix_scale():
    small = named_matrix("europe_osm", scale=0.25)
    big = named_matrix("europe_osm", scale=0.5)
    assert big.nrows > small.nrows


def test_named_matrix_unknown_rejected():
    with pytest.raises(GeneratorError):
        named_matrix("not_a_matrix")


def test_named_matrix_deterministic():
    a = named_matrix("Freescale2", scale=0.25)
    b = named_matrix("Freescale2", scale=0.25)
    assert np.array_equal(a.matrix.colidx, b.matrix.colidx)


def test_named_matrix_deterministic_across_processes():
    # seed 0 derives the generator seed from the name; it must not
    # depend on the interpreter's hash randomisation
    script = ("import hashlib; from repro.generators import named_matrix; "
              "a = named_matrix('Freescale2', scale=0.25).matrix; "
              "print(hashlib.sha256(a.colidx.tobytes()"
              " + a.values.tobytes()).hexdigest())")
    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_figure1_and_table5_stand_ins_present():
    needed = {"Freescale2", "com-Amazon", "kmer_V1r", "delaunay_n24",
              "europe_osm", "Flan_1565", "HV15R", "indochina-2004",
              "kron_g500-logn21", "mycielskian19", "nlpkkt240",
              "vas_stokes_4M", "333SP", "nv2", "audikw_1"}
    assert needed <= set(named_matrix_names())


# ----------------------------------------------------------------------
# train/test splitting (advisor evaluation support)
# ----------------------------------------------------------------------
def test_split_is_disjoint_and_complete():
    corpus = build_corpus("tiny", seed=0)
    train, test = split_corpus(corpus, test_fraction=0.25, seed=0)
    train_names = {e.name for e in train}
    test_names = {e.name for e in test}
    assert not train_names & test_names
    assert train_names | test_names == {e.name for e in corpus}
    assert test


def test_split_is_deterministic():
    corpus = build_corpus("tiny", seed=0)
    a = split_corpus(corpus, test_fraction=0.3, seed=5)
    b = split_corpus(corpus, test_fraction=0.3, seed=5)
    assert [e.name for e in a[0]] == [e.name for e in b[0]]
    assert [e.name for e in a[1]] == [e.name for e in b[1]]
    c = split_corpus(corpus, test_fraction=0.3, seed=6)
    assert [e.name for e in c[1]] != [e.name for e in a[1]]


def test_split_is_stratified_by_group():
    corpus = build_corpus("tiny", seed=0)
    train, test = split_corpus(corpus, test_fraction=0.3, seed=0)
    train_groups = {e.group for e in train}
    sizes = {}
    for e in corpus:
        sizes[e.group] = sizes.get(e.group, 0) + 1
    # every family keeps at least one training member, and every
    # family with >= 2 members contributes to the test side
    assert train_groups == {e.group for e in corpus}
    test_groups = {e.group for e in test}
    for group, n in sizes.items():
        if n >= 2:
            assert group in test_groups


def test_split_preserves_corpus_order():
    corpus = build_corpus("tiny", seed=0)
    train, test = split_corpus(corpus, test_fraction=0.25, seed=3)
    order = {e.name: i for i, e in enumerate(corpus)}
    for part in (train, test):
        idx = [order[e.name] for e in part]
        assert idx == sorted(idx)


def test_split_rejects_bad_inputs():
    corpus = build_corpus("tiny", seed=0)
    with pytest.raises(GeneratorError):
        split_corpus([], 0.25)
    with pytest.raises(GeneratorError):
        split_corpus(corpus, 0.0)
    with pytest.raises(GeneratorError):
        split_corpus(corpus, 1.0)
