import pytest

from repro.errors import ArchitectureError
from repro.machine import architecture_names, get_architecture
from repro.machine.arch import Architecture


def test_eight_architectures():
    names = architecture_names()
    assert len(names) == 8
    assert names == ["Skylake", "Ice Lake", "Naples", "Rome", "Milan A",
                     "Milan B", "TX2", "Hi1620"]


def test_table2_core_counts():
    # paper Table 2 totals
    expected = {"Skylake": 32, "Ice Lake": 72, "Naples": 64, "Rome": 16,
                "Milan A": 48, "Milan B": 128, "TX2": 64, "Hi1620": 128}
    for name, cores in expected.items():
        assert get_architecture(name).cores == cores


def test_gp_parts_match_core_counts():
    # §3.3: partitioning into 16, 32, 48, 64, 72 or 128 parts
    parts = {get_architecture(n).gp_parts for n in architecture_names()}
    assert parts == {16, 32, 48, 64, 72, 128}


def test_milan_b_largest_llc():
    sizes = {n: get_architecture(n).l3_total for n in architecture_names()}
    assert max(sizes, key=sizes.get) == "Milan B"
    assert sizes["Milan B"] == 2 * 256 * 1024 * 1024  # 512 MiB total


def test_isas():
    assert get_architecture("TX2").isa == "ARMv8.1"
    assert get_architecture("Hi1620").isa == "ARMv8.2"
    assert get_architecture("Skylake").isa == "x86-64"


def test_per_thread_bandwidth_contention():
    a = get_architecture("Rome")
    assert a.per_thread_bandwidth(16) == pytest.approx(a.bandwidth / 16)
    assert a.per_thread_bandwidth(1) == pytest.approx(a.bandwidth)
    # more threads than cores cannot create bandwidth
    assert a.per_thread_bandwidth(64) == pytest.approx(a.bandwidth / 16)


def test_unknown_architecture():
    with pytest.raises(ArchitectureError):
        get_architecture("M1 Max")


def test_invalid_architecture_rejected():
    with pytest.raises(ArchitectureError):
        Architecture(name="bad", cpu="x", isa="x86-64", microarch="x",
                     sockets=2, cores=7, freq_ghz=1.0, l1d_per_core=1,
                     l2_per_core=1, l3_per_socket=1, bandwidth=1.0)
    with pytest.raises(ArchitectureError):
        Architecture(name="bad", cpu="x", isa="x86-64", microarch="x",
                     sockets=1, cores=4, freq_ghz=0.0, l1d_per_core=1,
                     l2_per_core=1, l3_per_socket=1, bandwidth=1.0)


def test_per_thread_cache_positive():
    for n in architecture_names():
        assert get_architecture(n).per_thread_cache() > 0
