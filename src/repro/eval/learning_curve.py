"""Learning-curve harness: metric vs epoch and vs wallclock time.

Figures 5–7 of the paper plot test MRR after each epoch against both
epoch number and elapsed training time, for PBG under different machine
counts and for the DeepWalk / MILE baselines. This module provides a
small recorder that plugs into any trainer's ``after_epoch`` callback
(or is driven manually for external baselines).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.edgelist import EdgeList

__all__ = ["CurvePoint", "LearningCurve"]


@dataclass
class CurvePoint:
    """One evaluation point on a learning curve."""

    epoch: int
    wallclock: float
    mrr: float
    hits_at_10: float


@dataclass
class LearningCurve:
    """Accumulates per-epoch evaluation points.

    Wallclock excludes evaluation time itself: the clock pauses while
    the metric is computed, so the curve reflects training cost only
    (matching how the paper reports the x-axis).
    """

    label: str = ""
    points: "list[CurvePoint]" = field(default_factory=list)
    _start: float = field(default_factory=time.perf_counter)
    _eval_overhead: float = 0.0

    def restart_clock(self) -> None:
        self._start = time.perf_counter()
        self._eval_overhead = 0.0
        self.points.clear()

    def record(self, epoch: int, mrr: float, hits_at_10: float) -> None:
        """Record a point with the current (training-only) wallclock."""
        now = time.perf_counter()
        self.points.append(
            CurvePoint(
                epoch=epoch,
                wallclock=now - self._start - self._eval_overhead,
                mrr=mrr,
                hits_at_10=hits_at_10,
            )
        )

    def make_callback(
        self,
        model,
        eval_edges: EdgeList,
        num_candidates: int | None = 200,
        candidate_sampling: str = "uniform",
        train_edges: EdgeList | None = None,
        max_eval_edges: int = 2000,
        seed: int = 0,
    ) -> Callable:
        """Build an ``after_epoch(epoch, stats)`` callback for a Trainer.

        Evaluates MRR/Hits@10 on (a sample of) ``eval_edges`` after each
        epoch; evaluation time is subtracted from the recorded clock.
        """
        rng = np.random.default_rng(seed)
        if len(eval_edges) > max_eval_edges:
            idx = rng.choice(len(eval_edges), max_eval_edges, replace=False)
            eval_edges = eval_edges[idx]

        def callback(epoch: int, _stats) -> None:
            t0 = time.perf_counter()
            evaluator = LinkPredictionEvaluator(model)
            metrics = evaluator.evaluate(
                eval_edges,
                num_candidates=num_candidates,
                candidate_sampling=candidate_sampling,
                train_edges=train_edges,
                rng=np.random.default_rng(seed),
            )
            self._eval_overhead += time.perf_counter() - t0
            self.record(epoch, metrics.mrr, metrics.hits_at[10])

        return callback

    def best_mrr(self) -> float:
        return max((p.mrr for p in self.points), default=0.0)

    def time_to_mrr(self, target: float) -> float | None:
        """Training seconds until MRR first reached ``target`` (None if never)."""
        for p in self.points:
            if p.mrr >= target:
                return p.wallclock
        return None
