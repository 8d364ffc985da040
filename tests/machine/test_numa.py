import numpy as np
import pytest

from repro.errors import ArchitectureError
from repro.generators import random_er
from repro.machine import NumaModel, PerfModel, get_architecture
from repro.reorder import gp_ordering
from repro.spmv import schedule_1d


@pytest.fixture(scope="module")
def milan():
    return get_architecture("Milan B")


@pytest.fixture(scope="module")
def scattered():
    return random_er(1500, 8.0, seed=0)


def test_local_only_matches_base_model(milan, scattered):
    base = PerfModel(milan)
    numa = NumaModel(milan, placement="local_only")
    s = schedule_1d(scattered, milan.threads)
    assert numa.predict(scattered, s).seconds == pytest.approx(
        base.predict(scattered, s).seconds)


def test_interleaved_slowest(milan, scattered):
    s = schedule_1d(scattered, milan.threads)
    times = {p: NumaModel(milan, placement=p).predict(
        scattered, s).seconds for p in
        ("local_only", "first_touch", "interleaved")}
    assert times["local_only"] <= times["first_touch"]
    assert times["first_touch"] <= times["interleaved"]


def test_first_touch_rewards_block_local_orderings(milan):
    """GP reordering concentrates each thread's x accesses in its own
    block, so first-touch NUMA hurts it less than the scattered
    original order (relative surcharge comparison)."""
    a = random_er(2000, 8.0, seed=1)
    r = gp_ordering(a, nparts=milan.gp_parts, seed=0)
    b = r.apply(a)
    s_a = schedule_1d(a, milan.threads)
    s_b = schedule_1d(b, milan.threads)
    local = NumaModel(milan, placement="local_only")
    ft = NumaModel(milan, placement="first_touch")
    surcharge_orig = (ft.predict(a, s_a).seconds
                      / local.predict(a, s_a).seconds)
    surcharge_gp = (ft.predict(b, s_b).seconds
                    / local.predict(b, s_b).seconds)
    assert surcharge_gp <= surcharge_orig + 1e-9


def test_single_socket_has_no_surcharge(scattered):
    rome = get_architecture("Rome")  # 1 socket
    s = schedule_1d(scattered, rome.threads)
    base = PerfModel(rome).predict(scattered, s).seconds
    ft = NumaModel(rome, placement="first_touch").predict(
        scattered, s).seconds
    assert ft == pytest.approx(base)


def test_invalid_placement_rejected(milan):
    with pytest.raises(ArchitectureError):
        NumaModel(milan, placement="magic")


def test_remote_fraction_bounds(milan, scattered):
    s = schedule_1d(scattered, milan.threads)
    fracs = {p: NumaModel(milan, placement=p)._remote_fraction(scattered, s)
             for p in ("local_only", "first_touch", "interleaved")}
    for f in fracs.values():
        assert f.shape == (milan.threads,)
        assert np.all((f >= 0.0) & (f <= 0.5))
    assert not fracs["local_only"].any()
    assert np.all(fracs["interleaved"] == 0.5)
    # first touch: half the share of each thread's columns outside its
    # own column block
    block = scattered.ncols / milan.threads
    for t in range(milan.threads):
        lo, hi = s.thread_entry_range(t)
        cols = scattered.colidx[lo:hi]
        own = (cols >= t * block) & (cols < (t + 1) * block)
        assert fracs["first_touch"][t] == 0.5 * (1.0 - own.mean())
