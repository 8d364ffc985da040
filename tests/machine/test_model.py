import pytest

from repro.generators import banded_matrix, circuit_matrix, stencil_2d
from repro.machine import PerfModel, get_architecture, simulate_measurement
from repro.matrix import tall_skinny_dense_csr
from repro.spmv import schedule_1d, schedule_2d

from ..conftest import random_csr


@pytest.fixture(scope="module")
def rome():
    return get_architecture("Rome")


def test_prediction_fields(rome, rng):
    a = random_csr(100, 800, rng)
    pred = PerfModel(rome).predict(a, schedule_1d(a, rome.threads))
    assert pred.seconds > 0
    assert pred.gflops > 0
    assert pred.thread_seconds.shape == (rome.threads,)
    assert 0.0 <= pred.llc_residency <= 1.0
    assert pred.seconds == pytest.approx(pred.thread_seconds.max())


def test_imbalanced_matrix_slower_1d(rome):
    """A hub row stretches the 1D time but not the 2D time."""
    model = PerfModel(rome)
    a = circuit_matrix(1500, rail_rows=2, rail_fanout=0.4, seed=0,
                       scrambled=False)
    t1 = model.predict(a, schedule_1d(a, rome.threads)).seconds
    t2 = model.predict(a, schedule_2d(a, rome.threads)).seconds
    assert t2 < t1


def test_locality_matters(rome):
    """Scrambling a banded matrix must slow the modelled SpMV."""
    model = PerfModel(rome)
    a = banded_matrix(3000, 10, seed=0)
    b = banded_matrix(3000, 10, seed=0, scrambled=True)
    ta = model.predict(a, schedule_1d(a, rome.threads)).seconds
    tb = model.predict(b, schedule_1d(b, rome.threads)).seconds
    assert ta < tb


def test_locality_ablation_removes_ordering_effect(rome):
    model = PerfModel(rome, locality_term=False)
    a = banded_matrix(2000, 8, seed=0)
    b = banded_matrix(2000, 8, seed=0, scrambled=True)
    ta = model.predict(a, schedule_1d(a, rome.threads)).seconds
    tb = model.predict(b, schedule_1d(b, rome.threads)).seconds
    # same nnz, same rows; only x locality differed
    assert ta == pytest.approx(tb, rel=0.05)


def test_imbalance_ablation(rome):
    model_imb = PerfModel(rome, imbalance_term=True)
    model_no = PerfModel(rome, imbalance_term=False)
    a = circuit_matrix(1500, rail_rows=2, rail_fanout=0.4, seed=0,
                       scrambled=False)
    s = schedule_1d(a, rome.threads)
    assert model_no.predict(a, s).seconds <= model_imb.predict(a, s).seconds


def test_more_threads_faster(rome):
    a = stencil_2d(60, seed=0)
    m = PerfModel(rome)
    t1 = m.predict(a, schedule_1d(a, 1)).seconds
    t16 = m.predict(a, schedule_1d(a, 16)).seconds
    assert t16 < t1


def test_dense_reference_hits_bandwidth_roof():
    """§4.2 calibration: the tall-skinny dense matrix must be DRAM
    bandwidth bound and achieve close to BANDWIDTH_EFFICIENCY."""
    from repro.machine.model import BANDWIDTH_EFFICIENCY, BYTES_PER_NNZ

    arch = get_architecture("Milan B")
    model = PerfModel(arch)
    from repro.machine.model import RESIDENCY_FLOOR

    a = tall_skinny_dense_csr(nrows=9600, ncols=400, seed=0)
    pred = model.predict(a, schedule_1d(a, arch.threads))
    assert pred.llc_residency <= RESIDENCY_FLOOR + 0.01
    achieved_bw = BYTES_PER_NNZ * a.nnz / pred.seconds
    assert achieved_bw > 0.5 * BANDWIDTH_EFFICIENCY * arch.bandwidth


def test_empty_matrix(rome):
    from repro.matrix import coo_from_arrays, csr_from_coo

    a = csr_from_coo(coo_from_arrays(10, 10, [], []))
    pred = PerfModel(rome).predict(a, schedule_1d(a, 4))
    assert pred.seconds > 0  # clamped, no division by zero
    assert pred.x_line_loads == 0


def test_simulate_measurement_record(rome, rng):
    a = random_csr(64, 512, rng)
    rec = simulate_measurement(a, rome, "1d", "m", "RCM")
    assert rec.architecture == "Rome"
    assert rec.kernel == "1d"
    assert rec.nthreads == rome.threads
    assert rec.nnz_min <= rec.nnz_mean <= rec.nnz_max
    assert rec.imbalance >= 1.0
    assert rec.gflops_mean < rec.gflops_max
    assert (rec.matrix, rec.ordering) == ("m", "RCM")
    assert rec == simulate_measurement(a, rome, "1d", "m", "RCM")


def test_simulate_measurement_2d_balanced(rome, rng):
    a = random_csr(64, 512, rng)
    rec = simulate_measurement(a, rome, "2d", "m", "o")
    assert rec.imbalance <= 1.1


def test_unknown_kernel_rejected(rome, rng):
    from repro.errors import ScheduleError

    a = random_csr(10, 30, rng)
    with pytest.raises(ScheduleError):
        simulate_measurement(a, rome, "3d")


def test_arm_slower_per_core():
    """ISA constants: ARM archs pay more cycles per nonzero (paper §4.3)."""
    a = stencil_2d(40, seed=0)
    tx2 = get_architecture("TX2")
    rome = get_architecture("Rome")
    # compare single-thread compute-bound runs (tiny matrix, 1 thread)
    t_arm = PerfModel(tx2).predict(a, schedule_1d(a, 1)).seconds
    t_x86 = PerfModel(rome).predict(a, schedule_1d(a, 1)).seconds
    assert t_arm > t_x86
