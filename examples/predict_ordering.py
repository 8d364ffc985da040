#!/usr/bin/env python3
"""Predicting the best reordering from matrix features (paper §6).

The paper's future-work list ends with "use machine learning to predict
the most effective reordering algorithm".  This example does exactly
that with the advisor's supervised selector (``repro.advisor``)
*trained on an actual sweep* of the corpus, evaluated on held-out
matrices.  ``repro.advisor.evaluate_advisor`` compares the same
selector against the oracle, always-RCM and rule baselines.

Run:  python examples/predict_ordering.py
"""

import numpy as np

from repro.advisor import Advisor, train_model
from repro.generators import build_corpus
from repro.harness import OrderingCache, SweepEngine
from repro.harness.experiments import REORDERINGS
from repro.machine import get_architecture
from repro.util import format_table


def main() -> None:
    arch = get_architecture("Milan B")
    corpus = build_corpus("tiny", seed=0)
    rng = np.random.default_rng(0)
    idx = rng.permutation(len(corpus))
    train = [corpus[i] for i in idx[: 2 * len(corpus) // 3]]
    test = [corpus[i] for i in idx[2 * len(corpus) // 3:]]

    print(f"sweeping {len(train)} training matrices on {arch.name} ...")
    model = train_model(corpus=train, architectures=[arch],
                        kernels=("1d",), cache=OrderingCache())
    advisor = Advisor(model)
    print(f"trained on {model.trained_on['rows']} labeled rows")

    # evaluate on held-out matrices: does the predicted ordering come
    # close to the best achievable speedup?
    test_sweep = SweepEngine(test, [arch], list(REORDERINGS)).run()
    rows = []
    regrets = []
    for entry in test:
        perf = {"original": test_sweep.lookup(
            entry.name, "original", "1d", arch.name).gflops_max}
        for o in REORDERINGS:
            perf[o] = test_sweep.lookup(entry.name, o, "1d",
                                        arch.name).gflops_max
        truth = max(perf, key=perf.get)
        learned = advisor.advise(entry.matrix, arch, "1d",
                                 matrix_name=entry.name)[0].ordering
        regret = perf[truth] / perf[learned]
        regrets.append(regret)
        rows.append([entry.name, truth, learned, f"{regret:.2f}x"])
    print(format_table(
        ["matrix", "actual best", "learned pick", "best/learned"], rows))
    print(f"\nmean regret of the learned predictor: "
          f"{np.mean(regrets):.2f}x (1.00x = always picked the best)")


if __name__ == "__main__":
    main()
