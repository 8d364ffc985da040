import pytest

from repro.advisor import Advisor, AdvisorModel
from repro.advisor.cache import LRUCache
from repro.errors import AdvisorError


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
    entries = corpus[:4]
    with Advisor(model, workers=4) as advisor:
        batch = advisor.advise_many(entries, arch, "1d")
        assert len(batch) == len(entries)
        for e, ranked in zip(entries, batch):
            assert ranked == advisor.advise(e.matrix, arch, "1d",
                                            matrix_name=e.name)


def test_advise_many_single_matrix_runs_on_caller_thread(model, corpus,
                                                         arch):
    """One matrix is advised inline: same answer as advise(), and no
    pool is created for it."""
    e = corpus[0]
    reference = Advisor(model).advise(e.matrix, arch, "2d",
                                      matrix_name=e.name)
    with Advisor(model, workers=2) as advisor:
        assert advisor.advise_many([e], arch, "2d") == [reference]
        assert advisor._pool is None


def test_advise_many_accepts_bare_matrices(advisor, corpus, arch):
    mats = [e.matrix for e in corpus[:2]]
    names = [e.name for e in corpus[:2]]
    batch = advisor.advise_many(mats, arch, "1d", names=names)
    assert len(batch) == 2
    assert advisor.advise_many([], arch) == []


def test_advise_many_reuses_instance_pool(model, corpus, arch):
    """The reusable pool is created once, survives repeated batches,
    and close() tears it down."""
    advisor = Advisor(model, workers=2)
    try:
        assert advisor._pool is None          # lazy until first batch
        advisor.advise_many(corpus[:2], arch, "1d")
        pool = advisor._pool
        assert pool is not None
        advisor.advise_many(corpus[:2], arch, "2d")
        assert advisor._pool is pool          # same pool, not per-call
    finally:
        advisor.close()
    assert advisor._pool is None
    advisor.close()                           # idempotent


def test_advise_many_after_close_recreates_pool(model, corpus, arch):
    advisor = Advisor(model, workers=1)
    advisor.advise_many(corpus[:1], arch, "1d")
    advisor.close()
    batch = advisor.advise_many(corpus[:2], arch, "1d")
    assert len(batch) == 2
    advisor.close()


def test_advisor_context_manager_closes_pool(model, corpus, arch):
    with Advisor(model, workers=2) as advisor:
        advisor.advise_many(corpus[:2], arch, "1d")
        assert advisor._pool is not None
    assert advisor._pool is None


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
