"""Training losses over (positive, negatives) score sets.

PBG's default objective is the margin ranking loss (paper Section 3.1):

    L = Σ_e Σ_{e'} max(0, λ − f(e) + f(e'))

with logistic and softmax losses available to reproduce other models
(e.g. the ComplEx FB15k configuration trains with a softmax loss).

Every loss takes the positive scores ``pos`` (n,), the negative score
matrix ``neg`` (n, k) and a boolean ``mask`` (n, k) marking *valid*
negatives (False entries are induced positives from batched sampling,
Figure 3, and are ignored). Per-edge weights implement the per-relation
edge weight configuration; ``weights=None`` means all ones and skips
the multiplies. Returns the scalar loss and the gradients
``(dL/dpos, dL/dneg)`` — masked entries receive zero gradient.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "Loss",
    "RankingLoss",
    "LogisticLoss",
    "SoftmaxLoss",
    "LOSSES",
    "make_loss",
]


def _check_inputs(
    pos: np.ndarray, neg: np.ndarray, mask: np.ndarray | None
) -> np.ndarray:
    if pos.ndim != 1:
        raise ValueError(f"pos must be 1-D, got shape {pos.shape}")
    if neg.ndim != 2 or neg.shape[0] != pos.shape[0]:
        raise ValueError(
            f"neg must be (n, k) with n == len(pos); got {neg.shape} "
            f"vs n={len(pos)}"
        )
    if mask is None:
        return np.ones(neg.shape, dtype=bool)
    if mask.shape != neg.shape or mask.dtype != bool:
        raise ValueError("mask must be a boolean array shaped like neg")
    return mask


def _weighted(x: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """``x`` scaled per edge (row); ``x`` itself for ``weights=None``."""
    if weights is None:
        return x
    return x * (weights if x.ndim == 1 else weights[:, None])


def _softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(x))."""
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Loss(abc.ABC):
    """A ranking-style objective over positives and their negatives."""

    @abc.abstractmethod
    def forward_backward(
        self,
        pos: np.ndarray,
        neg: np.ndarray,
        mask: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Return ``(loss, dL/dpos, dL/dneg)``."""


class RankingLoss(Loss):
    """Margin ranking: ``Σ_i w_i Σ_j max(0, margin − pos_i + neg_ij)``."""

    def __init__(self, margin: float = 0.1) -> None:
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.margin = margin

    def forward_backward(self, pos, neg, mask=None, weights=None):
        mask = _check_inputs(pos, neg, mask)
        # One (n, k) temporary, ``violation``, overwritten in place.
        violation = np.add((self.margin - pos)[:, None], neg)
        active = np.greater(violation, 0)
        active &= mask
        grad_neg = _weighted(active.astype(pos.dtype), weights)
        violation *= grad_neg
        loss = float(violation.sum())
        grad_pos = -grad_neg.sum(axis=1)
        return loss, grad_pos, grad_neg


class LogisticLoss(Loss):
    """Binary cross-entropy with logits: positives → 1, negatives → 0.

    This is the independent positive/negative loss mentioned in the
    paper's footnote 2 (under which partition-restricted negatives would
    not bias the objective).
    """

    def forward_backward(self, pos, neg, mask=None, weights=None):
        mask = _check_inputs(pos, neg, mask)
        pos_loss = _weighted(_softplus(-pos), weights).sum()
        neg_loss = _weighted(_softplus(neg) * mask, weights).sum()
        grad_pos = _weighted(-_sigmoid(-pos), weights)
        grad_neg = _weighted(_sigmoid(neg) * mask, weights)
        return float(pos_loss + neg_loss), grad_pos, grad_neg


class SoftmaxLoss(Loss):
    """Cross-entropy of the positive within ``[pos_i; neg_i,:]``.

    ``L_i = −log softmax(pos_i | pos_i, neg_i1 … neg_ik)`` — the
    multi-class objective used for the PBG ComplEx configuration on
    FB15k (Section 5.4.1). Masked negatives are excluded from the
    partition function.
    """

    def forward_backward(self, pos, neg, mask=None, weights=None):
        mask = _check_inputs(pos, neg, mask)
        neg_masked = np.where(mask, neg, -np.inf)
        # Stable log-sum-exp over [pos, negs] per row.
        m = np.maximum(pos, neg_masked.max(axis=1, initial=-np.inf))
        exp_pos = np.exp(pos - m)
        exp_neg = np.exp(neg_masked - m[:, None])
        z = exp_pos + exp_neg.sum(axis=1)
        log_z = np.log(z) + m
        loss = float(_weighted(log_z - pos, weights).sum())
        grad_pos = _weighted(exp_pos / z - 1.0, weights)
        grad_neg = _weighted(exp_neg / z[:, None], weights)
        return loss, grad_pos, grad_neg


LOSSES: "dict[str, type[Loss]]" = {
    "ranking": RankingLoss,
    "logistic": LogisticLoss,
    "softmax": SoftmaxLoss,
}


def make_loss(name: str, margin: float = 0.1) -> Loss:
    """Instantiate the loss registered under ``name``."""
    if name == "ranking":
        return RankingLoss(margin)
    try:
        cls = LOSSES[name]
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; expected one of {sorted(LOSSES)}"
        ) from None
    return cls()
