"""Hypergraph partition metrics.

* **cut-net**: sum of weights of nets with pins in ≥ 2 parts — the
  objective the study's HP ordering minimises.  In the column-net model
  this counts columns whose nonzeros span multiple row blocks.
* **balance**: max part weight over average part weight.
"""

from __future__ import annotations

import numpy as np

from ..errors import PartitionError
from ..graph.hypergraph import Hypergraph


def _check(h: Hypergraph, part: np.ndarray) -> np.ndarray:
    part = np.asarray(part, dtype=np.int64)
    if part.shape != (h.nvertices,):
        raise PartitionError(
            f"assignment length {part.size} != nvertices {h.nvertices}")
    return part


def _parts_per_net(h: Hypergraph, part: np.ndarray) -> np.ndarray:
    """Number of distinct parts each net's pins touch (0 for empty nets)."""
    pin_parts = part[h.net_pins]
    net_of_pin = np.repeat(np.arange(h.nnets, dtype=np.int64),
                           h.net_sizes())
    if pin_parts.size == 0:
        return np.zeros(h.nnets, dtype=np.int64)
    order = np.lexsort((pin_parts, net_of_pin))
    ne = net_of_pin[order]
    pp = pin_parts[order]
    first = np.empty(pp.size, dtype=bool)
    first[0] = True
    first[1:] = (ne[1:] != ne[:-1]) | (pp[1:] != pp[:-1])
    counts = np.zeros(h.nnets, dtype=np.int64)
    np.add.at(counts, ne[first], 1)
    return counts


def cutnet(h: Hypergraph, part: np.ndarray) -> int:
    """Weight of nets spanning more than one part."""
    part = _check(h, part)
    spans = _parts_per_net(h, part)
    return int(h.nwgt[spans >= 2].sum())


def hyper_balance(h: Hypergraph, part: np.ndarray, nparts: int) -> float:
    """Max part weight over average part weight."""
    part = _check(h, part)
    if part.size and part.max() >= nparts:
        raise PartitionError(
            f"part id {int(part.max())} out of range for nparts={nparts}")
    w = np.zeros(nparts, dtype=np.int64)
    np.add.at(w, part, h.vwgt)
    avg = w.sum() / max(nparts, 1)
    return float(w.max() / avg) if avg else 1.0
