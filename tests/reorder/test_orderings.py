"""Behavioural tests for all six reordering algorithms."""

import numpy as np
import pytest

from repro.generators import (
    banded_matrix,
    circuit_matrix,
    fem_mesh_2d,
    random_er,
    stencil_2d,
)
from repro.matrix import csr_from_dense
from repro.reorder import (
    ALL_ORDERINGS,
    amd_ordering,
    compute_ordering,
    gp_ordering,
    gray_ordering,
    hp_ordering,
    nd_ordering,
    rcm_ordering,
)

from ..conftest import random_csr


def bandwidth(a):
    if a.nnz == 0:
        return 0
    return int(np.abs(a.row_of_entry() - a.colidx).max())


@pytest.fixture(scope="module")
def scrambled_mesh():
    return fem_mesh_2d(500, seed=3, scrambled=True)


@pytest.mark.parametrize("name", ALL_ORDERINGS)
def test_every_ordering_is_valid_permutation(name, scrambled_mesh):
    r = compute_ordering(scrambled_mesh, name, nparts=8)
    assert r.n == scrambled_mesh.nrows
    assert sorted(r.perm.tolist()) == list(range(scrambled_mesh.nrows))


@pytest.mark.parametrize("name", ["RCM", "AMD", "ND", "GP", "HP"])
def test_symmetric_orderings_flagged(name, scrambled_mesh):
    assert compute_ordering(scrambled_mesh, name, nparts=8).symmetric


def test_gray_is_row_only(scrambled_mesh):
    assert not compute_ordering(scrambled_mesh, "Gray").symmetric


@pytest.mark.parametrize("name", ["RCM", "AMD", "ND", "GP", "HP", "Gray"])
def test_orderings_work_on_unsymmetric_patterns(name, rng):
    a = random_er(150, 6.0, symmetric=False, seed=4)
    r = compute_ordering(a, name, nparts=4)
    assert sorted(r.perm.tolist()) == list(range(a.nrows))


def test_unknown_ordering_rejected(scrambled_mesh):
    from repro.errors import ReorderingError

    with pytest.raises(ReorderingError):
        compute_ordering(scrambled_mesh, "SuperSort")


def test_ordering_records_time(scrambled_mesh):
    assert compute_ordering(scrambled_mesh, "RCM").seconds >= 0


@pytest.mark.parametrize("name", [o for o in ALL_ORDERINGS
                                  if o != "original"])
def test_compute_ordering_is_the_reordering_clock(name, scrambled_mesh):
    """``compute_ordering`` stamps the algorithm's time; a direct call
    of the algorithm carries none, and the baseline costs nothing."""
    assert compute_ordering(scrambled_mesh, name, nparts=8).seconds > 0
    assert rcm_ordering(scrambled_mesh).seconds == 0.0
    assert compute_ordering(scrambled_mesh, "original").seconds == 0.0


# --- RCM -------------------------------------------------------------
def test_rcm_reduces_bandwidth_dramatically(scrambled_mesh):
    r = rcm_ordering(scrambled_mesh)
    assert bandwidth(r.apply(scrambled_mesh)) < 0.3 * bandwidth(scrambled_mesh)


def test_rcm_on_path_is_near_optimal():
    # a shuffled path graph has bandwidth 1 under the right order
    n = 50
    dense = np.zeros((n, n))
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = 1.0
    a = csr_from_dense(dense)
    from repro.matrix import permute_symmetric

    shuffled = permute_symmetric(a, np.random.default_rng(0).permutation(n))
    r = rcm_ordering(shuffled)
    assert bandwidth(r.apply(shuffled)) == 1


def test_rcm_handles_disconnected():
    dense = np.zeros((6, 6))
    dense[0, 1] = dense[1, 0] = 1.0
    dense[3, 4] = dense[4, 3] = 1.0
    r = rcm_ordering(csr_from_dense(dense))
    assert sorted(r.perm.tolist()) == list(range(6))


def test_rcm_deterministic(scrambled_mesh):
    r1 = rcm_ordering(scrambled_mesh)
    r2 = rcm_ordering(scrambled_mesh)
    assert np.array_equal(r1.perm, r2.perm)


# --- AMD -------------------------------------------------------------
def test_amd_greedy_plus_postorder_invariants():
    # the final AMD perm is a postorder of its elimination tree, so the
    # first pivot is an etree leaf; and AMD must reduce fill vs original
    a = stencil_2d(8, seed=0)
    r = amd_ordering(a)
    from repro.cholesky import elimination_tree, fill_ratio
    from repro.matrix import permute_symmetric

    b = permute_symmetric(a.pattern_only(), r.perm)
    parent = elimination_tree(b)
    assert 0 not in parent  # first vertex is a leaf (no children)
    assert fill_ratio(a, r) <= fill_ratio(a)


def test_amd_eliminates_chain_cheaply():
    # a path graph eliminated by minimum degree produces no fill; AMD
    # must pick endpoints (degree 1) early, never a middle vertex first
    n = 30
    dense = np.zeros((n, n))
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = 1.0
    r = amd_ordering(csr_from_dense(dense))
    assert r.perm[0] in (0, n - 1)


def test_amd_valid_on_dense_block():
    a = csr_from_dense(np.ones((12, 12)))
    r = amd_ordering(a)
    assert sorted(r.perm.tolist()) == list(range(12))


# --- ND --------------------------------------------------------------
def test_nd_separator_goes_last():
    # on a scrambled grid, the last vertices of the ND order form a
    # separator: removing them must disconnect the rest into >= 2 parts
    a = stencil_2d(12, seed=5, scrambled=True)
    r = nd_ordering(a, leaf_size=16)
    n = a.nrows
    kept = r.perm[: n - max(4, n // 12)]
    import networkx as nx

    dense = a.to_dense() != 0
    gx = nx.from_numpy_array(dense)
    sub = gx.subgraph(kept.tolist())
    assert nx.number_connected_components(sub) >= 2


def test_nd_deterministic(scrambled_mesh):
    r1 = nd_ordering(scrambled_mesh, seed=1)
    r2 = nd_ordering(scrambled_mesh, seed=1)
    assert np.array_equal(r1.perm, r2.perm)


# --- GP / HP ---------------------------------------------------------
def test_gp_groups_partition_blocks(scrambled_mesh):
    from repro.graph import graph_from_matrix
    from repro.partition import partition_graph

    g = graph_from_matrix(scrambled_mesh)
    part = partition_graph(g, 8, rng=np.random.default_rng(0))
    # the grouping permutation must make part ids contiguous blocks
    from repro.reorder.gp import perm_from_parts

    p2 = perm_from_parts(part)
    blocks = part[p2]
    assert np.all(np.diff(blocks) >= 0)


def test_gp_reduces_offdiagonal_nonzeros(scrambled_mesh):
    r = gp_ordering(scrambled_mesh, nparts=8, seed=0)
    b = r.apply(scrambled_mesh)
    nblocks = 8
    size = (scrambled_mesh.nrows + nblocks - 1) // nblocks

    def offdiag(m):
        rows = m.row_of_entry()
        return int(np.sum((rows // size) != (m.colidx // size)))

    assert offdiag(b) < 0.7 * offdiag(scrambled_mesh)


def test_gp_nparts_capped_at_n():
    a = stencil_2d(3, seed=0)
    r = gp_ordering(a, nparts=1000, seed=0)
    assert r.n == a.nrows


def test_hp_valid_and_symmetric(scrambled_mesh):
    r = hp_ordering(scrambled_mesh, nparts=8, seed=0)
    assert r.symmetric
    assert sorted(r.perm.tolist()) == list(range(scrambled_mesh.nrows))


def test_hp_rejects_rectangular(rng):
    from repro.errors import ReorderingError

    a = random_csr(10, 30, rng, ncols=12)
    with pytest.raises(ReorderingError):
        hp_ordering(a)


# --- Gray ------------------------------------------------------------
def test_gray_dense_rows_first():
    a = circuit_matrix(400, rail_rows=3, rail_fanout=0.2, seed=0,
                       scrambled=False)
    r = gray_ordering(a)
    lengths = a.row_lengths()
    ndense = int((lengths > 20).sum())
    assert ndense > 0
    # the first ndense rows of the new order are exactly the dense rows
    assert set(r.perm[:ndense].tolist()) == set(
        np.flatnonzero(lengths > 20).tolist())
    # and they are sorted by descending density
    dl = lengths[r.perm[:ndense]]
    assert np.all(np.diff(dl) <= 0)


def test_gray_rank_is_gray_code_inverse():
    from repro.reorder.gray import gray_rank

    # gray code of i is i ^ (i >> 1); rank must invert it
    i = np.arange(1 << 10)
    gray = i ^ (i >> 1)
    assert np.array_equal(gray_rank(gray, bits=16), i)


def test_gray_bitmaps():
    from repro.reorder.gray import row_bitmaps

    dense = np.zeros((2, 16))
    dense[0, 0] = 1.0   # section 0
    dense[1, 15] = 1.0  # section 15
    bm = row_bitmaps(csr_from_dense(dense), bits=16)
    assert bm[0] == 1
    assert bm[1] == 1 << 15


def test_gray_groups_similar_sparse_rows():
    # rows with identical bitmaps must end up adjacent
    a = banded_matrix(100, 3, density=1.0, seed=0)
    r = gray_ordering(a)
    from repro.reorder.gray import gray_rank, row_bitmaps

    bm = row_bitmaps(a)
    ranks = gray_rank(bm[r.perm])
    assert np.all(np.diff(ranks) >= 0)  # sorted by gray rank


def test_gray_does_not_increase_adjacent_row_length_changes():
    """Density grouping puts rows of equal length next to each other,
    so consecutive rows change length no more often than before."""
    a = circuit_matrix(600, seed=0)
    b = gray_ordering(a).apply(a)

    def changes(m):
        return int(np.count_nonzero(np.diff(m.row_lengths())))

    assert changes(b) <= changes(a)
