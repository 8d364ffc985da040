import pytest

from repro.advisor import Advisor, AdvisorModel, evaluate_advisor
from repro.errors import AdvisorError
from repro.generators import split_corpus

from .conftest import ORDERINGS


@pytest.fixture(scope="module")
def report(corpus, arch, ordering_cache, dataset):
    # train on the first eight matrices (the shared dataset fixture),
    # evaluate on four unseen ones from the same corpus
    advisor = Advisor(AdvisorModel(k=3).fit(dataset))
    return evaluate_advisor(advisor, corpus[8:12], [arch],
                            orderings=ORDERINGS, cache=ordering_cache,
                            seed=0)


def test_report_shape(report):
    assert report.cases == 4 * 2
    assert 0.0 <= report.top1_accuracy <= 1.0
    assert 0.0 <= report.within_5pct <= 1.0
    assert report.top1_accuracy <= report.within_5pct
    assert sum(report.picks.values()) == report.cases


def test_oracle_bounds_everything(report):
    # the oracle includes "original", so its geomean is >= 1 and no
    # policy can beat it
    assert report.geomean_oracle >= 1.0
    assert report.geomean_advisor <= report.geomean_oracle + 1e-12
    assert report.geomean_rcm <= report.geomean_oracle + 1e-12
    assert report.geomean_rules <= report.geomean_oracle + 1e-12
    assert report.geomean_natural == 1.0
    assert 0.0 < report.fraction_of_oracle <= 1.0 + 1e-12


def test_report_rows_render(report):
    rows = report.rows()
    assert [r[0] for r in rows] == ["oracle-best", "advisor",
                                    "always-RCM", "rules",
                                    "natural order"]
    assert rows[0][2] == 1.0


def test_split_feeds_evaluation(corpus):
    train, test = split_corpus(corpus, test_fraction=0.25, seed=7)
    train_names = {e.name for e in train}
    assert all(e.name not in train_names for e in test)


def test_empty_evaluation_rejected(advisor, arch):
    with pytest.raises(AdvisorError):
        evaluate_advisor(advisor, [], [arch])
