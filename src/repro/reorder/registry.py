"""Uniform access to the six orderings + the original baseline."""

from __future__ import annotations

import time

from ..errors import ReorderingError
from ..matrix.csr import CSRMatrix
from ..obs.metrics import REGISTRY
from ..obs.trace import span
from .amd import amd_ordering
from .gp import gp_ordering
from .gray import gray_ordering
from .hp import hp_ordering
from .nd import nd_ordering
from .perm import OrderingResult, identity_ordering
from .rcm import cm_ordering, rcm_ordering
from .gps import gps_ordering
from .sfc import sfc_ordering
from .tsp import tsp_ordering

#: Ordering names in the paper's canonical column order.
ALL_ORDERINGS = ("original", "RCM", "ND", "AMD", "GP", "HP", "Gray")

#: Additional orderings from the paper's background/related-work survey
#: (§2.1.1, §2.1.3-2.1.4, §5): plain Cuthill-McKee,
#: Gibbs-Poole-Stockmeyer, space-filling curve, and the TSP-based
#: locality ordering.  (The two-sided SBD form lives in
#: :mod:`repro.reorder.sbd` because its result type differs.)
EXTRA_ORDERINGS = ("CM", "GPS", "SFC", "TSP")

ORDERING_FUNCS = {
    "RCM": rcm_ordering,
    "AMD": amd_ordering,
    "ND": nd_ordering,
    "GP": gp_ordering,
    "HP": hp_ordering,
    "Gray": gray_ordering,
    "CM": cm_ordering,
    "GPS": gps_ordering,
    "SFC": sfc_ordering,
    "TSP": tsp_ordering,
}


def check_ordering_names(names) -> None:
    """Raise :class:`ReorderingError` naming every entry of ``names``
    that is neither ``"original"`` nor in :data:`ORDERING_FUNCS`, with
    the known names.  The live dict is read, so orderings registered
    at run time pass."""
    unknown = [n for n in names if n != "original" and n not in ORDERING_FUNCS]
    if unknown:
        raise ReorderingError(
            f"unknown ordering {', '.join(map(repr, unknown))}; known: "
            f"{', '.join(('original', *ORDERING_FUNCS))}")


def compute_ordering(a: CSRMatrix, name: str, nparts: int = 64,
                     seed=0) -> OrderingResult:
    """Compute ordering ``name`` for matrix ``a``.

    ``nparts`` applies to GP (core count of the target machine) and is
    ignored by the others; HP uses its own 128-way default per the
    paper unless GP-style part matching is requested explicitly through
    :func:`repro.reorder.hp.hp_ordering`.

    The result's ``seconds`` is the algorithm's wall-clock time (Table
    5), read here and nowhere else.
    """
    if name == "original":
        return identity_ordering(a.nrows)
    check_ordering_names((name,))
    REGISTRY.counter(f"reorder.computed.{name}").inc()
    with span("ordering.compute", algo=name, nrows=a.nrows, nnz=a.nnz):
        t0 = time.perf_counter()
        if name == "GP":
            result = gp_ordering(a, nparts=nparts, seed=seed)
        elif name == "HP":
            result = hp_ordering(a, seed=seed)
        elif name == "ND":
            result = nd_ordering(a, seed=seed)
        elif name == "TSP":
            result = tsp_ordering(a, seed=seed)
        else:
            result = ORDERING_FUNCS[name](a)
        seconds = time.perf_counter() - t0
    # the result is fresh and unshared, and its permutation was checked
    # when it was built: stamp the time in place rather than rebuild it
    object.__setattr__(result, "seconds", seconds)
    return result
