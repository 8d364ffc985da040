from repro.analysis import CLASS_DESCRIPTIONS, classify_matrix
from repro.analysis.classes import ClassificationInput


def obs(s1, s2, i0, i1):
    return ClassificationInput(speedup_1d=s1, speedup_2d=s2,
                               imbalance_before=i0, imbalance_after=i1)


def test_class1_locality_win():
    # balanced before & after, both kernels speed up (333SP scenario)
    assert classify_matrix(obs(1.4, 1.3, 1.0, 1.0)) == 1


def test_class2_locality_and_balance():
    # imbalance improves and both kernels speed up (nv2 scenario)
    assert classify_matrix(obs(1.5, 1.2, 1.8, 1.05)) == 2


def test_class3_balance_only():
    # 1D speeds up, 2D flat (audikw_1 scenario)
    assert classify_matrix(obs(1.3, 1.0, 1.6, 1.1)) == 3


def test_class4_neutral():
    # no change anywhere (HV15R scenario)
    assert classify_matrix(obs(1.0, 1.01, 1.05, 1.05)) == 4


def test_class5_introduced_imbalance():
    # reordering provokes 1D imbalance; 2D unaffected
    assert classify_matrix(obs(0.6, 1.0, 1.05, 2.4)) == 5


def test_class6_mixed():
    # slowdown in both kernels without imbalance change: not classes 1-5
    assert classify_matrix(obs(0.6, 0.6, 1.0, 1.0)) == 6


def test_descriptions_cover_all_classes():
    assert set(CLASS_DESCRIPTIONS) == {1, 2, 3, 4, 5, 6}
    for c in range(1, 7):
        assert len(CLASS_DESCRIPTIONS[c]) > 10


def test_boundary_neutral_band():
    # within +-5% counts as flat
    assert classify_matrix(obs(1.04, 1.04, 1.0, 1.0)) == 4


def test_class_is_deterministic():
    o = obs(1.2, 1.15, 1.3, 1.1)
    assert classify_matrix(o) == classify_matrix(o)
