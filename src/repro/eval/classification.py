"""Node classification on embedding features (the YouTube protocol).

The paper (Section 5.3) evaluates embeddings as features for multi-label
user-category prediction: 10-fold cross-validation, a one-vs-rest
logistic regression per label, micro- and macro-F1. Since scikit-learn
is not a dependency, the estimator is implemented here: per-class binary
logistic regression with L2 regularisation fitted by L-BFGS (scipy).

Prediction follows the protocol of Perozzi et al. (2014) used by both
DeepWalk and MILE: for a node with ``k`` true labels, the top-``k``
scoring classes are predicted (the label count is assumed known, which
makes methods comparable independent of threshold calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "LogisticRegressionOvR",
    "f1_scores",
    "multilabel_cross_validation",
    "ClassificationResult",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logistic_objective(w, X, y, l2):
    """Binary logistic loss + L2; returns (value, gradient)."""
    bias, coef = w[0], w[1:]
    z = X @ coef + bias
    # log(1 + exp(-y z)) with y in {-1, +1}
    yz = y * z
    loss = np.logaddexp(0.0, -yz).sum() + 0.5 * l2 * coef @ coef
    dz = -y * _sigmoid(-yz)
    grad = np.empty_like(w)
    grad[0] = dz.sum()
    grad[1:] = X.T @ dz + l2 * coef
    return loss, grad


class LogisticRegressionOvR:
    """One-vs-rest L2 logistic regression fitted with L-BFGS.

    Parameters
    ----------
    l2:
        L2 penalty on the coefficients (not the intercept).
    max_iter:
        L-BFGS iteration cap per class.
    """

    def __init__(self, l2: float = 1.0, max_iter: int = 200) -> None:
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None  # (num_classes, d)
        self.intercept_: np.ndarray | None = None  # (num_classes,)

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "LogisticRegressionOvR":
        """Fit on features ``X`` (n, d) and multi-hot labels ``Y`` (n, c)."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y)
        if X.ndim != 2 or Y.ndim != 2 or len(X) != len(Y):
            raise ValueError(
                f"X {X.shape} and Y {Y.shape} must be (n, d) and (n, c)"
            )
        n, d = X.shape
        num_classes = Y.shape[1]
        self.coef_ = np.zeros((num_classes, d))
        self.intercept_ = np.zeros(num_classes)
        for c in range(num_classes):
            y = np.where(Y[:, c] > 0, 1.0, -1.0)
            if (y > 0).all() or (y < 0).all():
                # Degenerate class: constant prediction via intercept.
                frac = float((y > 0).mean())
                self.intercept_[c] = 20.0 if frac == 1.0 else -20.0
                continue
            res = minimize(
                _logistic_objective,
                np.zeros(d + 1),
                args=(X, y, self.l2),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.max_iter},
            )
            self.intercept_[c] = res.x[0]
            self.coef_[c] = res.x[1:]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class scores (n, c)."""
        if self.coef_ is None:
            raise RuntimeError("fit() must be called first")
        return np.asarray(X, dtype=np.float64) @ self.coef_.T + self.intercept_

    def predict_top_k(
        self, X: np.ndarray, label_counts: np.ndarray
    ) -> np.ndarray:
        """Predict the top-``k_i`` classes per row (multi-hot output)."""
        scores = self.decision_function(X)
        n, c = scores.shape
        pred = np.zeros((n, c), dtype=bool)
        order = np.argsort(-scores, axis=1)
        for i in range(n):
            k = int(label_counts[i])
            if k > 0:
                pred[i, order[i, :k]] = True
        return pred


def f1_scores(
    true: np.ndarray, pred: np.ndarray
) -> tuple[float, float]:
    """(micro-F1, macro-F1) for multi-hot ``true``/``pred`` (n, c).

    Macro-F1 averages per-class F1 over classes that appear in the true
    labels (classes absent from the fold contribute no signal).
    """
    true = np.asarray(true, dtype=bool)
    pred = np.asarray(pred, dtype=bool)
    if true.shape != pred.shape or true.ndim != 2:
        raise ValueError("true and pred must both be (n, c) boolean")
    tp = (true & pred).sum(axis=0).astype(np.float64)
    fp = (~true & pred).sum(axis=0).astype(np.float64)
    fn = (true & ~pred).sum(axis=0).astype(np.float64)

    micro_tp, micro_fp, micro_fn = tp.sum(), fp.sum(), fn.sum()
    micro_denominator = 2 * micro_tp + micro_fp + micro_fn
    micro = 2 * micro_tp / micro_denominator if micro_denominator else 0.0

    present = true.any(axis=0)
    denominator = 2 * tp + fp + fn
    per_class = np.divide(
        2 * tp, denominator, out=np.zeros_like(tp), where=denominator > 0
    )
    macro = float(per_class[present].mean()) if present.any() else 0.0
    return float(micro), macro


@dataclass
class ClassificationResult:
    """Cross-validated classification metrics."""

    micro_f1: float
    macro_f1: float
    micro_std: float
    macro_std: float
    num_folds: int

    def __str__(self) -> str:
        return (
            f"micro-F1={self.micro_f1:.3f}±{self.micro_std:.3f} "
            f"macro-F1={self.macro_f1:.3f}±{self.macro_std:.3f} "
            f"({self.num_folds} folds)"
        )


def multilabel_cross_validation(
    features: np.ndarray,
    labels: np.ndarray,
    num_folds: int = 10,
    l2: float = 1.0,
    rng: np.random.Generator | None = None,
) -> ClassificationResult:
    """K-fold CV with top-k prediction, as in the YouTube evaluation.

    ``labels`` is a multi-hot (n, c) matrix. Only labelled nodes (at
    least one label) participate, matching the protocol of selecting
    "90% of the labeled data as training data".
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    labels = np.asarray(labels, dtype=bool)
    labelled = labels.any(axis=1)
    X = np.asarray(features)[labelled]
    Y = labels[labelled]
    n = len(X)
    if n < num_folds:
        raise ValueError(f"{n} labelled nodes cannot form {num_folds} folds")
    perm = rng.permutation(n)
    folds = np.array_split(perm, num_folds)
    micros, macros = [], []
    for f in range(num_folds):
        test_idx = folds[f]
        train_idx = np.concatenate(
            [folds[g] for g in range(num_folds) if g != f]
        )
        clf = LogisticRegressionOvR(l2=l2).fit(X[train_idx], Y[train_idx])
        counts = Y[test_idx].sum(axis=1)
        pred = clf.predict_top_k(X[test_idx], counts)
        micro, macro = f1_scores(Y[test_idx], pred)
        micros.append(micro)
        macros.append(macro)
    return ClassificationResult(
        micro_f1=float(np.mean(micros)),
        macro_f1=float(np.mean(macros)),
        micro_std=float(np.std(micros)),
        macro_std=float(np.std(macros)),
        num_folds=num_folds,
    )
