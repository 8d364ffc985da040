import pytest

from repro.errors import ArchitectureError
from repro.machine import LRUCache
from repro.machine.cache import simulate_x_misses


def test_basic_hit_miss():
    c = LRUCache(size=2 * 64, line_size=64, associativity=2)  # 2 lines
    assert not c.access(0)     # miss
    assert c.access(8)         # same line -> hit
    assert not c.access(64)    # second line -> miss
    assert c.access(0)         # still resident
    assert c.hits == 2 and c.misses == 2


def test_lru_eviction_order():
    # direct-mapped-free: one set, 2 ways
    c = LRUCache(size=2 * 64, line_size=64, associativity=2)
    c.access(0)      # line 0
    c.access(64)     # line 1
    c.access(0)      # touch line 0 (line 1 now LRU)
    c.access(128)    # evicts line 1
    assert c.access(0)          # line 0 still here
    assert not c.access(64)     # line 1 was evicted


def test_set_mapping():
    # 2 sets x 1 way: lines 0, 2 map to set 0; lines 1, 3 to set 1
    c = LRUCache(size=2 * 64, line_size=64, associativity=1)
    c.access(0)
    c.access(64)          # set 1, no conflict
    assert c.access(0)    # both resident
    c.access(128)         # conflicts with line 0 (set 0)
    assert not c.access(0)


def test_invalid_parameters():
    with pytest.raises(ArchitectureError):
        LRUCache(size=0)
    with pytest.raises(ArchitectureError):
        LRUCache(size=100, line_size=64, associativity=2)  # not divisible


def test_flush_and_reset():
    c = LRUCache(size=128, line_size=64, associativity=2)
    c.access(0)
    c.flush()
    assert not c.access(0)  # flushed
    c.reset_counters()
    assert c.hits == 0 and c.misses == 0


def test_access_many_counts_misses():
    c = LRUCache(size=4 * 64, line_size=64, associativity=4)
    misses = c.access_many([0, 64, 0, 128, 192, 256])
    assert misses == 5  # all distinct lines except the repeated 0


def test_simulate_x_misses_banded_vs_scattered(rng):
    """The exact simulator agrees with the model's qualitative claim:
    a banded matrix misses less on x than its scrambled version."""
    from repro.generators import banded_matrix

    a = banded_matrix(512, 6, density=1.0, seed=0)
    b = banded_matrix(512, 6, density=1.0, seed=0, scrambled=True)
    cache_a = LRUCache(size=32 * 64, line_size=64, associativity=8)
    cache_b = LRUCache(size=32 * 64, line_size=64, associativity=8)
    m_a = simulate_x_misses(a, cache_a)
    m_b = simulate_x_misses(b, cache_b)
    assert m_a < 0.5 * m_b


def test_model_tracks_exact_simulator_ranking():
    """Windowed model and exact LRU rank orderings identically on a
    band/scatter contrast (validation of the analytical substitution)."""
    from repro.generators import banded_matrix
    from repro.machine import PerfModel, get_architecture

    arch = get_architecture("Rome")
    model = PerfModel(arch)
    a = banded_matrix(1024, 8, density=0.8, seed=1)
    b = banded_matrix(1024, 8, density=0.8, seed=1, scrambled=True)
    # exact
    misses = []
    for m in (a, b):
        c = LRUCache(size=64 * 64, line_size=64, associativity=8)
        misses.append(simulate_x_misses(m, c))
    # model (single thread to mirror the sequential simulator)
    loads = [model._x_line_loads(m.colidx) for m in (a, b)]
    assert (misses[0] < misses[1]) == (loads[0] < loads[1])



def test_set_associative_access_many_unchanged(rng):
    """On a multi-set geometry, ``access_many`` equals one ``access``
    call per address, final set contents and recency included."""
    addrs = rng.integers(0, 64, 800) * 64
    c1 = LRUCache(size=16 * 64, line_size=64, associativity=4)  # 4 sets
    c2 = LRUCache(size=16 * 64, line_size=64, associativity=4)
    misses = sum(not c2.access(int(a)) for a in addrs)
    assert c1.access_many(addrs) == misses
    assert c1._sets == c2._sets
