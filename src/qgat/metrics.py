"""Evaluation metrics: accuracy, micro-F1, ROC-AUC, Hits@K, MRR.

All values land in [0, 1].  ROC-AUC on a single-class label set is
undefined and reported as NaN.  MRR averages reciprocal ranks with
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


def _midranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC (Mann-Whitney with midranks for ties).

    Returns NaN when only one class is present.
    """
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _midranks(np.asarray(scores, dtype=np.float64))
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def hits_at_k(pos_scores: np.ndarray, neg_scores: np.ndarray, k: int) -> float:
    """Fraction of positives scoring strictly above the k-th best negative.

    With fewer than k negatives every positive trivially clears the bar.
    """
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
    return math.fsum(1.0 / r for r in ranks) / len(ranks)


def task_metric(task: str, predictions, labels) -> float:
    """Primary metric per task; link prediction expects (pos, neg) score arrays."""
    if task == "node-class":
        return accuracy(predictions, labels)
    if task == "multi-label":
        return micro_f1(predictions, labels)
    if task == "link-pred":
        pos_scores, neg_scores = predictions
        return mrr(pos_scores, neg_scores)
    raise ValueError(f"unknown task {task!r}")
