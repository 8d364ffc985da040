"""Approximate minimum degree ordering (paper §2.1.2).

A quotient-graph minimum-degree implementation in the style of
Amestoy, Davis & Duff [TOMS 2004]:

* Eliminated pivots become **elements**; a variable's adjacency is the
  union of its remaining variable neighbours and the variables of its
  elements, tracked without ever materialising fill edges.
* Degrees are **approximated** from above by
  ``d(v) ≈ |A(v)| + Σ_{e ∈ E(v)} |L(e)|`` — the bound AMD uses instead
  of the exact (expensive) union size.  This is what makes the
  algorithm near-linear in practice.
* **Element absorption**: when pivot p's element list includes an old
  element e, e's variables are folded into L(p) and e disappears, so
  element lists stay short.
* **Mass elimination**: variables whose adjacency becomes exactly
  {p's element} are eliminated together with p — they would be chosen
  next anyway.
* **Assembly-tree postordering**: like SuiteSparse AMD, the raw
  elimination order is postprocessed by a depth-first postorder of its
  elimination tree.  Postordering does not change the fill (it is an
  equivalent reordering of the same etree) but clusters each subtree's
  variables contiguously, which is where AMD orderings get the data
  locality the paper observes.

Supervariable (indistinguishable-node) detection is omitted; it is an
optimisation that changes runtime, not the ordering quality class.

The fast path (:func:`amd_ordering` with
:func:`repro.util.fastpath.fast_enabled`) keeps the reference's exact
quotient-graph set operations — the mass-elimination output order
depends on set iteration order, so the operation sequence must be
byte-for-byte the same — but replaces the two per-pivot O(|E(v)|)
degree recomputations with incrementally maintained element-size sums,
and moves all bookkeeping (alive flags, approximate degrees) off numpy
scalars onto plain Python lists.  Element sets only ever shrink at
their creation-time mass discard, so ``Σ (|L(e)|−1)`` can be carried
per variable and patched in O(1) when elements are absorbed or lose
mass-eliminated members.  The postorder chain is rebuilt from the
already-symmetrised ordering graph (one vectorised edge-relabel pass
instead of symmetrise → permute → CSR rebuild).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..matrix.csr import CSRMatrix
from ..util.fastpath import fast_enabled, reference_mode
from .base import complete_partial_order, ordering_graph
from .perm import OrderingResult

#: element-size discount applied to surviving variables of an element
#: that just mass-eliminated ``dm`` members; the reference recomputes
#: degrees from live element sizes, so the discount must be exactly 1
#: (the mutation smoke patches this to 0 to simulate a stale-degree bug)
AMD_MASS_DISCOUNT = 1

#: above this vertex count pivot selection falls back from the O(n)
#: argmin scan to the reference's lazy heap (identical pivot sequence)
_AMD_ARGMIN_LIMIT = 1 << 14


def amd_ordering(a: CSRMatrix) -> OrderingResult:
    """Compute the AMD ordering (symmetric permutation)."""
    if not fast_enabled():
        return amd_ordering_reference(a)
    g = ordering_graph(a)
    order = _amd_eliminate_fast(g)
    perm = complete_partial_order(order, g.nvertices)
    perm = _postorder_elimination_fast(g, perm)
    return OrderingResult("AMD", perm, symmetric=True)


def _amd_eliminate_fast(g) -> np.ndarray:
    """Quotient-graph elimination; byte-identical order to the reference.

    The set operation sequence mirrors :func:`amd_ordering_reference`
    exactly (same constructions, same update order) because the output
    order of mass-eliminated variables follows set iteration order.
    Only the degree arithmetic differs: ``esum[v]`` carries
    ``Σ_{e ∈ E(v)} (|L(e)| − 1)`` incrementally instead of recomputing
    it from the live element sets at every touch.
    """
    n = g.nvertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    xl = g.xadj.tolist()
    al = g.adjncy.tolist()
    var_adj = [set(al[xl[v]:xl[v + 1]]) for v in range(n)]
    elem_of = [set() for _ in range(n)]   # elements adjacent to variable
    elem_vars: dict = {}                  # element id -> set of variables
    alive = bytearray(b"\x01") * n
    esize = [0] * n                       # |L(e)| for live elements
    esum = [0] * n                        # Σ (|L(e)|-1) over elem_of[v]
    approx_deg = [len(s) for s in var_adj]
    # pivot selection is min over alive v of (approx_deg[v], v).  The
    # reference's lazy heap realises exactly that (every alive vertex
    # always has its current entry in the heap; stale entries are
    # skipped), so an argmin over a composite (deg, id) key array picks
    # the identical pivot sequence.  The O(n) scan per pivot wins below
    # ~16k vertices; beyond that fall back to the lazy heap.
    use_heap = n > _AMD_ARGMIN_LIMIT
    if use_heap:
        heap = [(approx_deg[v], v) for v in range(n)]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        key = None
    else:
        key = (np.array(approx_deg, dtype=np.int64) * n
               + np.arange(n, dtype=np.int64))
    dead_key = np.iinfo(np.int64).max
    order = []
    remaining = n
    while remaining:
        if use_heap:
            while True:
                d, p = heappop(heap)
                if alive[p] and d == approx_deg[p]:
                    break
        else:
            p = int(key.argmin())
            key[p] = dead_key
        # eliminate p: L(p) = A(p) ∪ (∪ L(e) for e ∈ E(p)) minus dead
        lp = set(v for v in var_adj[p] if alive[v])
        for e in elem_of[p]:
            lp.update(v for v in elem_vars[e] if alive[v])
            del elem_vars[e]  # absorption: e folds into p
        lp.discard(p)
        alive[p] = 0
        order.append(p)
        remaining -= 1
        if not lp:
            continue
        absorbed = set(elem_of[p])
        elem_vars[p] = lp
        sz1 = len(lp) - 1  # every member's contribution of element p
        mass = []
        for v in lp:
            # v's element lists lose absorbed elements, gain p
            ev = elem_of[v]
            if absorbed:
                rem = ev & absorbed
                if rem:
                    ev -= rem
                    s = esum[v] + len(rem)
                    for e in rem:
                        s -= esize[e]
                    esum[v] = s
            ev.add(p)
            # remove p and L(p) members from v's variable adjacency:
            # those connections now flow through element p
            va = var_adj[v]
            va.discard(p)
            va -= lp
            # mass elimination: v adjacent only through element p
            if not va and len(ev) == 1:
                mass.append(v)
                continue
            es = esum[v] + sz1
            esum[v] = es
            nd = len(va) + es
            approx_deg[v] = nd
            if use_heap:
                heappush(heap, (nd, v))
            else:
                key[v] = nd * n + v
        esize[p] = sz1 + 1
        if mass:
            lpv = elem_vars[p]
            for m in mass:
                alive[m] = 0
                order.append(m)
                lpv.discard(m)
                if not use_heap:
                    key[m] = dead_key
            remaining -= len(mass)
            # p just shrank: patch the carried sums of its survivors
            # (the reference reads live |L(p)| on the next touch; it
            # does not repush, so approx_deg stays stale here too)
            dm = len(mass) * AMD_MASS_DISCOUNT
            esize[p] -= len(mass)
            if dm:
                for v in lpv:
                    esum[v] -= dm
    return np.array(order, dtype=np.int64)


def _postorder_elimination_fast(g, perm: np.ndarray) -> np.ndarray:
    """Postorder the elimination tree of the permuted pattern.

    Equivalent to :func:`_postorder_elimination`: the etree consults
    only the strict lower triangle of the permuted symmetrised pattern,
    which is exactly the edge set of ``g`` relabelled through ``perm``
    — no symmetrise / permute / CSR rebuild needed.
    """
    from ..matrix.permute import invert_permutation

    n = g.nvertices
    if n == 0:
        return perm
    inv = invert_permutation(perm)
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    ri = inv[src]
    ci = inv[g.adjncy]
    keep = ci < ri
    ri = ri[keep]
    ci = ci[keep]
    grouped = np.argsort(ri, kind="stable")
    cols = ci[grouped].tolist()
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ri, minlength=n), out=rowptr[1:])
    rp = rowptr.tolist()
    # Liu's etree with path compression (order-independent result)
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        for idx in range(rp[i], rp[i + 1]):
            k = cols[idx]
            while True:
                r = ancestor[k]
                ancestor[k] = i
                if r == -1:
                    parent[k] = i
                    break
                if r == i:
                    break
                k = r
    return perm[_postorder_forest_fast(parent)]


def _postorder_forest_fast(parent: list) -> np.ndarray:
    """DFS postorder of a parent forest; children and roots ascending.

    Matches :func:`repro.cholesky.postorder.etree_postorder` (a stable
    argsort of the parent array yields children grouped per parent in
    ascending id order, which is the reference's visit order).
    """
    pa = np.asarray(parent, dtype=np.int64)
    n = pa.size
    grouped = np.argsort(pa, kind="stable")
    nroots = int(np.searchsorted(pa[grouped], 0))
    children = grouped[nroots:].tolist()
    head = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pa + 1, minlength=n + 1)[1:], out=head[1:])
    head = head.tolist()
    post = np.empty(n, dtype=np.int64)
    out = 0
    for root in grouped[:nroots].tolist():
        stack = [(root, 0)]
        while stack:
            v, ci = stack.pop()
            lo = head[v]
            if ci < head[v + 1] - lo:
                stack.append((v, ci + 1))
                stack.append((children[lo + ci], 0))
            else:
                post[out] = v
                out += 1
    if out != n:  # pragma: no cover - etree parents are always > child
        from ..errors import CholeskyError
        raise CholeskyError("parent array contains a cycle")
    return post


def amd_ordering_reference(a: CSRMatrix) -> OrderingResult:
    """Scalar reference AMD (pre-vectorisation implementation)."""
    with reference_mode():
        g = ordering_graph(a)
        n = g.nvertices
        # variable adjacency (sets of variable ids) and element lists
        var_adj = [set(g.neighbours(v).tolist()) for v in range(n)]
        elem_of = [set() for _ in range(n)]  # elements adjacent to variable
        elem_vars: dict = {}                 # element id -> set of variables
        alive = np.ones(n, dtype=bool)
        approx_deg = np.array([len(s) for s in var_adj], dtype=np.int64)
        heap = [(int(approx_deg[v]), v) for v in range(n)]
        heapq.heapify(heap)
        order = []

        while heap:
            d, p = heapq.heappop(heap)
            if not alive[p] or d != approx_deg[p]:
                continue
            # eliminate p: L(p) = A(p) ∪ (∪ L(e) for e ∈ E(p)) minus dead
            lp = set(v for v in var_adj[p] if alive[v])
            for e in elem_of[p]:
                lp.update(v for v in elem_vars[e] if alive[v])
                del elem_vars[e]  # absorption: e folds into p
            lp.discard(p)
            alive[p] = False
            order.append(p)
            if not lp:
                continue
            absorbed = set(elem_of[p])
            elem_vars[p] = lp
            mass = []
            for v in lp:
                # v's element lists lose absorbed elements, gain p
                elem_of[v] -= absorbed
                elem_of[v].add(p)
                # remove p and L(p) members from v's variable adjacency:
                # those connections now flow through element p
                var_adj[v].discard(p)
                var_adj[v] -= lp
                # mass elimination: v adjacent only through element p
                if not var_adj[v] and elem_of[v] == {p}:
                    mass.append(v)
                    continue
                nd = len(var_adj[v])
                for e in elem_of[v]:
                    nd += len(elem_vars[e]) - 1
                approx_deg[v] = nd
                heapq.heappush(heap, (nd, v))
            for v in mass:
                alive[v] = False
                order.append(v)
                elem_vars[p].discard(v)
        perm = complete_partial_order(np.array(order, dtype=np.int64), n)
        perm = _postorder_elimination(a, perm)
    return OrderingResult("AMD", perm, symmetric=True)


def _postorder_elimination(a: CSRMatrix, perm: np.ndarray) -> np.ndarray:
    """Postorder the elimination tree of A permuted by ``perm``.

    Returns the composed permutation.  Falls back to ``perm`` unchanged
    if the etree cannot be built (defensive; the symmetrised pattern
    always admits one).
    """
    from ..cholesky.etree import elimination_tree
    from ..cholesky.postorder import etree_postorder
    from ..matrix.permute import permute_symmetric
    from ..matrix.symmetry import is_pattern_symmetric, symmetrize_pattern

    pattern = a if is_pattern_symmetric(a) else symmetrize_pattern(a)
    permuted = permute_symmetric(pattern.pattern_only(), perm)
    parent = elimination_tree(permuted)
    post = etree_postorder(parent)
    return perm[post]
