import pytest

from repro.advisor import Advisor, AdvisorModel
from repro.advisor.cache import LRUCache
from repro.errors import AdvisorError
from repro.serve import AdviseRequest, AdvisorDaemon, ServeConfig


def test_untrained_model_rejected():
    with pytest.raises(AdvisorError):
        Advisor(AdvisorModel())


def test_advise_returns_ranked_advice(advisor, corpus, arch):
    e = corpus[0]
    ranked = advisor.advise(e.matrix, arch, "1d", matrix_name=e.name)
    assert {a.ordering for a in ranked} == set(advisor.model.orderings)
    top2 = advisor.advise(e.matrix, arch, "1d", matrix_name=e.name, top=2)
    assert top2 == ranked[:2]


def test_advise_is_deterministic(advisor, corpus, arch):
    e = corpus[1]
    first = advisor.advise(e.matrix, arch, "2d", matrix_name=e.name)
    assert advisor.advise(e.matrix, arch, "2d", matrix_name=e.name) == first


def test_caches_hit_on_repeat_requests(model, corpus, arch):
    advisor = Advisor(model)
    e = corpus[2]
    advisor.advise(e.matrix, arch, "1d", matrix_name=e.name)
    assert advisor.stats["advice"]["hits"] == 0
    advisor.advise(e.matrix, arch, "1d", matrix_name=e.name)
    assert advisor.stats["advice"]["hits"] == 1
    # same matrix, other kernel: advice missed, features reused
    advisor.advise(e.matrix, arch, "2d", matrix_name=e.name)
    assert advisor.stats["features"]["hits"] >= 1


def test_iteration_budget_changes_cache_key(model, corpus, arch):
    advisor = Advisor(model)
    e = corpus[0]
    free = advisor.advise(e.matrix, arch, "1d", matrix_name=e.name)
    gated = advisor.advise(e.matrix, arch, "1d", matrix_name=e.name,
                           iterations=1e-9)
    assert gated[0].ordering == "original"
    assert gated != free or free[0].ordering == "original"


def test_advise_many_matches_single_requests(model, corpus, arch):
    """One batch through the daemon's batch path answers each request
    as a direct advise() call on a fresh advisor would."""
    entries = corpus[:4]
    daemon = AdvisorDaemon(Advisor(model), entries,
                           ServeConfig(default_arch=arch.name))
    requests = [AdviseRequest(id=i, matrix=e.name, arch=None, kernel="1d",
                              iterations=None, top=None, client="test")
                for i, e in enumerate(entries)]
    batch = daemon._advise_batch(requests)
    assert len(batch) == len(entries)
    fresh = Advisor(model)
    for e, ranked in zip(entries, batch):
        assert ranked == fresh.advise(e.matrix, arch, "1d",
                                      matrix_name=e.name)


def test_lru_cache_evicts_and_counts():
    c = LRUCache(capacity=2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == 1          # refreshes "a"
    c.put("c", 3)                   # evicts "b"
    assert c.get("b") is None
    assert c.get_or_compute("d", lambda: 4) == 4
    s = c.stats
    assert s["evictions"] >= 1
    assert s["hits"] == 1 and s["misses"] == 2
    assert s["size"] == 2 and s["capacity"] == 2
    with pytest.raises(AdvisorError):
        LRUCache(capacity=0)
