"""Advisor quality: learned selection vs oracle-best, always-RCM and rules.

The product question behind :mod:`repro.advisor`: if a service had to
pick ONE ordering per (matrix, architecture, kernel) request without
running the six-ordering sweep, how much of the achievable speedup
would it keep?  The corpus is split by structural family (train/test
disjoint), the model is trained on the training side of the shared
full sweep, and scored on the held-out matrices across all eight
machines and both kernels.

Acceptance: the advisor's picks must achieve >= 90% of the oracle-best
geomean modeled speedup and beat both the always-RCM single-default
baseline and the hand-written rule baseline.
"""

from repro.advisor import Advisor, AdvisorModel, build_dataset, \
    evaluate_advisor
from repro.generators import split_corpus
from repro.util import format_table

from conftest import SEED


def test_advisor_vs_oracle(benchmark, corpus, full_sweep, ordering_cache,
                           all_architectures, emit):
    train, test = split_corpus(corpus, test_fraction=0.3, seed=SEED)

    def run():
        rows = build_dataset(train, all_architectures, sweep=full_sweep,
                             cache=ordering_cache, seed=SEED)
        advisor = Advisor(AdvisorModel(k=5).fit(rows))
        report = evaluate_advisor(advisor, test, all_architectures,
                                  sweep=full_sweep, cache=ordering_cache,
                                  seed=SEED)
        return advisor, report

    advisor, report = benchmark.pedantic(run, rounds=1, iterations=1)

    policy_rows = [[name, f"{gm:.4f}", f"{frac:.1%}"]
                   for name, gm, frac in report.rows()]
    picks = ", ".join(f"{o}:{n}" for o, n in
                      sorted(report.picks.items(), key=lambda kv: -kv[1]))
    emit("advisor_vs_oracle",
         f"Advisor evaluation — {len(train)} train / {len(test)} test "
         f"matrices, {report.cases} (matrix, arch, kernel) cells\n"
         + format_table(["policy", "geomean speedup", "vs oracle"],
                        policy_rows)
         + f"\ntop-1 accuracy: {report.top1_accuracy:.1%}"
         + f"   within 5% of oracle: {report.within_5pct:.1%}"
         + f"\npicks: {picks}")

    assert report.geomean_oracle >= 1.0
    assert report.geomean_advisor >= 0.90 * report.geomean_oracle
    assert report.geomean_advisor > report.geomean_rcm
    assert report.geomean_advisor > report.geomean_rules
    assert report.geomean_advisor > report.geomean_natural
