"""Bucket iteration orders.

The order in which edge buckets are trained affects embedding quality:
for every bucket ``(p1, p2)`` except the first, some earlier bucket must
have touched ``p1`` or ``p2`` so that all partitions end up aligned in a
single embedding space (paper Section 4.1). The 'inside-out' order from
Figure 1 satisfies this while minimising partition swaps; we also provide
the alternatives the paper compares against ('random' and others) for the
ordering ablation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Bucket",
    "Visit",
    "inside_out_order",
    "outside_in_order",
    "chained_order",
    "random_order",
    "bucket_order",
    "check_seen_partition_invariant",
    "count_partition_swaps",
    "lookahead_loads",
]


class Bucket(NamedTuple):
    """A bucket of the edge grid: (lhs partition, rhs partition)."""

    lhs: int
    rhs: int


class Visit(NamedTuple):
    """One entry of an epoch's round: bucket ``(lhs, rhs)`` in stratum
    pass ``stratum`` (the unit the lock server grants exactly once)."""

    lhs: int
    rhs: int
    stratum: int = 0

    @property
    def bucket(self) -> Bucket:
        return Bucket(self.lhs, self.rhs)


def inside_out_order(
    nparts_lhs: int,
    nparts_rhs: int,
    rng: np.random.Generator | None = None,
) -> "list[Bucket]":
    """The paper's inside-out order (Figure 1, right).

    Buckets are visited in shells of increasing ``max(lhs, rhs)``;
    within shell ``n`` the off-diagonal buckets ``(n, j<n)`` and
    ``(i<n, n)`` come first — each touches an already-trained partition
    ``< n`` — interleaved as ``(n, m), (m, n)`` pairs that share both
    partitions (zero swaps between them); the diagonal ``(n, n)`` comes
    last, sharing partition ``n`` with its predecessors. Hence the
    seen-partition invariant holds at every step and disk swaps are
    minimised.
    """
    del rng  # deterministic order; parameter kept for a uniform signature
    order: list[Bucket] = []
    for n in range(max(nparts_lhs, nparts_rhs)):
        shell: list[Bucket] = []
        for m in range(n - 1, -1, -1):
            if n < nparts_lhs and m < nparts_rhs:
                shell.append(Bucket(n, m))
            if m < nparts_lhs and n < nparts_rhs:
                shell.append(Bucket(m, n))
        if n < nparts_lhs and n < nparts_rhs:
            shell.append(Bucket(n, n))
        order.extend(shell)
    return order


def outside_in_order(
    nparts_lhs: int,
    nparts_rhs: int,
    rng: np.random.Generator | None = None,
) -> "list[Bucket]":
    """Reverse of inside-out — the outer shells are trained first.

    A control for the ordering ablation. It satisfies the letter of the
    seen-partition invariant (as checked by
    :func:`check_seen_partition_invariant`, exhaustively swept over
    grids up to 6x6 in the tests), but for different reasons depending
    on the grid shape:

    - On a *symmetric* grid the outermost shell touches every partition
      up front, so every later bucket trivially shares a seen partition.
    - On an *asymmetric* ``L x R`` grid (say ``L < R``) the first shell
      does **not** touch every partition — it only covers the ``L`` lhs
      partitions plus the single outermost rhs partition. The remaining
      rhs partitions only enter the seen set one shell at a time,
      immediately before their heaviest use, via buckets whose lhs
      partition was already seen.

    Either way the alignment it provides is much weaker than
    inside-out's (partitions are pulled into the embedding space late,
    by a single bucket, instead of early with progressive refinement),
    it front-loads the largest shells, trains the diagonal-heavy early
    shells last, and costs the same swaps as inside-out without its
    locality benefits. Callers that rely on the invariant should gate
    with ``bucket_order(..., require_invariant=True)`` rather than
    trust any particular order by name.
    """
    return list(reversed(inside_out_order(nparts_lhs, nparts_rhs, rng)))


def chained_order(
    nparts_lhs: int,
    nparts_rhs: int,
    rng: np.random.Generator | None = None,
) -> "list[Bucket]":
    """Boustrophedon (snake) order: consecutive buckets share the lhs
    partition within a row and meet at row boundaries, so only one
    partition is swapped per step and the invariant holds.
    """
    del rng
    order: list[Bucket] = []
    for i in range(nparts_lhs):
        cols = range(nparts_rhs) if i % 2 == 0 else range(nparts_rhs - 1, -1, -1)
        order.extend(Bucket(i, j) for j in cols)
    return order


def random_order(
    nparts_lhs: int,
    nparts_rhs: int,
    rng: np.random.Generator | None = None,
) -> "list[Bucket]":
    """Uniformly random bucket permutation (the paper's 'random' control)."""
    if rng is None:
        rng = np.random.default_rng()
    all_buckets = [
        Bucket(i, j) for i in range(nparts_lhs) for j in range(nparts_rhs)
    ]
    perm = rng.permutation(len(all_buckets))
    return [all_buckets[k] for k in perm]


_ORDERS = {
    "inside_out": inside_out_order,
    "outside_in": outside_in_order,
    "chained": chained_order,
    "random": random_order,
}


def bucket_order(
    name: str,
    nparts_lhs: int,
    nparts_rhs: int,
    rng: np.random.Generator | None = None,
    *,
    require_invariant: bool = False,
    symmetric: bool = True,
) -> "list[Bucket]":
    """Dispatch on order ``name`` (see :data:`repro.config.BUCKET_ORDER_NAMES`).

    With ``require_invariant`` the produced order is gated through
    :func:`check_seen_partition_invariant` (under the given
    ``symmetric`` interpretation) and a :class:`ValueError` is raised
    if it violates the paper's alignment requirement — useful for the
    'random' control, which violates it with high probability on large
    grids.
    """
    try:
        fn = _ORDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown bucket order {name!r}; expected one of {sorted(_ORDERS)}"
        ) from None
    order = fn(nparts_lhs, nparts_rhs, rng)
    if len(order) != nparts_lhs * nparts_rhs:
        raise AssertionError(
            f"order {name!r} produced {len(order)} buckets, "
            f"expected {nparts_lhs * nparts_rhs}"
        )
    if require_invariant and not check_seen_partition_invariant(
        order, symmetric
    ):
        raise ValueError(
            f"bucket order {name!r} violates the seen-partition invariant "
            f"on a {nparts_lhs}x{nparts_rhs} grid"
        )
    return order


def check_seen_partition_invariant(
    order: "list[Bucket]", symmetric: bool = True
) -> bool:
    """Check the paper's alignment invariant on a bucket order.

    Every bucket after the first must share a partition with some earlier
    bucket. When ``symmetric`` (same partitioned entity type on both edge
    sides — the common case), a partition counts as seen regardless of the
    side it appeared on; otherwise lhs and rhs partition spaces are
    disjoint.
    """
    if not order:
        return True
    seen_lhs: set[int] = set()
    seen_rhs: set[int] = set()
    for k, bucket in enumerate(order):
        if k > 0:
            if symmetric:
                seen = seen_lhs | seen_rhs
                if bucket.lhs not in seen and bucket.rhs not in seen:
                    return False
            else:
                if bucket.lhs not in seen_lhs and bucket.rhs not in seen_rhs:
                    return False
        seen_lhs.add(bucket.lhs)
        seen_rhs.add(bucket.rhs)
    return True


def lookahead_loads(
    order: "list[Bucket]", symmetric: bool = True
) -> "list[set]":
    """Per-step partition loads along an order (the prefetch plan).

    Entry ``k`` is the set of partitions bucket ``order[k]`` needs that
    are not resident after bucket ``order[k-1]`` — the trainer keeps
    only the current bucket's partitions live, so these are exactly the
    loads that hit the I/O path at step ``k``. Entry 0 is the first
    bucket's full partition set.

    A pipelined trainer overlaps step ``k``'s training with the loads
    in entry ``k+1``: an empty entry means the next bucket reuses the
    current partitions (inside-out's paired ``(n, m), (m, n)`` steps),
    and :func:`count_partition_swaps` equals the sum of entry sizes.
    """
    resident: set = set()
    plan: list[set] = []
    for bucket in order:
        if symmetric:
            needed = {bucket.lhs, bucket.rhs}
        else:
            needed = {("lhs", bucket.lhs), ("rhs", bucket.rhs)}
        plan.append(needed - resident)
        resident = needed
    return plan


def count_partition_swaps(order: "list[Bucket]", symmetric: bool = True) -> int:
    """Number of partition loads along an order (I/O cost proxy).

    A step from bucket ``a`` to bucket ``b`` must load each of ``b``'s
    partitions not already resident. The first bucket costs its distinct
    partitions. Lower is better: the paper picks inside-out partly to
    minimise disk swaps. Defined as the total size of the
    :func:`lookahead_loads` prefetch plan, so the two are consistent by
    construction.
    """
    return sum(len(loads) for loads in lookahead_loads(order, symmetric))
