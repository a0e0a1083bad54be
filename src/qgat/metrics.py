"""Evaluation metrics: accuracy, micro-F1, Hits@K, MRR.

All values land in [0, 1].  MRR averages reciprocal ranks with
exactly-rounded summation so the result is independent of ordering.
"""

from __future__ import annotations

import math

import numpy as np


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer label."""
    if logits.shape[0] == 0:
        raise ValueError("empty evaluation set")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def micro_f1(logits: np.ndarray, labels: np.ndarray) -> float:
    """F1 with TP/FP/FN pooled over every (node, class) cell; threshold logit > 0."""
    if logits.shape[0] == 0:
        raise ValueError("empty evaluation set")
    pred = logits > 0
    truth = labels.astype(bool)
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


def hits_at_k(pos_scores: np.ndarray, neg_scores: np.ndarray, k: int) -> float:
    """Fraction of positives scoring strictly above the k-th best negative.

    With fewer than k negatives every positive trivially clears the bar.
    """
    if k < 1:
        raise ValueError(f"hits@k needs k >= 1, got {k}")
    if len(pos_scores) == 0:
        raise ValueError("empty positive set")
    if len(neg_scores) < k:
        return 1.0
    threshold = np.sort(neg_scores)[-k]
    return float(np.mean(pos_scores > threshold))


def mrr(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean reciprocal rank of each positive against the shared negative set.

    rank = 1 + number of negatives scoring strictly higher (ties favor the
    positive).
    """
    if len(pos_scores) == 0:
        raise ValueError("empty positive set")
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    ranks = 1 + len(neg) - np.searchsorted(neg, pos_scores, side="right")
    return math.fsum((1.0 / ranks).tolist()) / len(ranks)
