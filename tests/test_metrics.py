"""Metric implementations against brute-force reference computations."""

import numpy as np
import pytest

from qgat.metrics import accuracy, hits_at_k, micro_f1, mrr
from qgat.training import TASKS, TrainConfig

from oracles import (
    accuracy_reference,
    hits_at_k_reference,
    micro_f1_reference,
    mrr_reference,
)

rng = np.random.default_rng(99)


class TestTrivialCases:
    def test_perfect_accuracy(self):
        logits = np.array([[2.0, -1.0], [-1.0, 3.0], [5.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 0])) == 1.0

    def test_hits_at_one_perfect(self):
        assert hits_at_k(np.array([5.0]), np.array([1.0, 2.0, 3.0]), 1) == 1.0

    def test_hits_with_few_negatives(self):
        assert hits_at_k(np.array([0.0]), np.array([9.0]), 5) == 1.0

    @pytest.mark.parametrize("k", [0, -3])
    def test_hits_needs_positive_k(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            hits_at_k(np.array([1.0]), np.array([0.0, 2.0, 3.0]), k)

    def test_mrr_top_rank(self):
        assert mrr(np.array([10.0]), np.array([1.0, 2.0])) == 1.0

    def test_mrr_buried_positive(self):
        assert mrr(np.array([0.0]), np.array([1.0, 2.0, 3.0])) == 0.25

    def test_micro_f1_all_empty_is_perfect(self):
        assert micro_f1(np.full((3, 2), -1.0), np.zeros((3, 2))) == 1.0

    def test_empty_eval_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.empty((0, 2)), np.empty(0))

    def test_task_dispatch(self):
        logits = np.array([[1.0, 0.0]])
        assert TASKS["node-class"].metric(logits, np.array([0])) == 1.0
        assert TASKS["multi-label"].metric(logits, np.array([[1, 0]])) == 1.0
        with pytest.raises(ValueError, match="task must be one of"):
            TrainConfig(task="regression").validate()


class TestOracleAgreement:
    def test_accuracy_random_instances(self):
        for _ in range(50):
            n, c = rng.integers(1, 30), rng.integers(2, 6)
            logits = rng.standard_normal((n, c))
            labels = rng.integers(0, c, n)
            assert accuracy(logits, labels) == accuracy_reference(logits, labels)

    def test_micro_f1_random_instances(self):
        for _ in range(50):
            n, c = rng.integers(1, 30), rng.integers(2, 6)
            logits = rng.standard_normal((n, c))
            labels = rng.integers(0, 2, (n, c))
            assert micro_f1(logits, labels) == micro_f1_reference(logits, labels)

    def test_hits_random_instances(self):
        for _ in range(50):
            n_pos, n_neg = rng.integers(1, 20), rng.integers(1, 40)
            k = int(rng.integers(1, 10))
            pos = np.round(rng.standard_normal(n_pos), 1)
            neg = np.round(rng.standard_normal(n_neg), 1)
            assert hits_at_k(pos, neg, k) == hits_at_k_reference(pos, neg, k)

    def test_mrr_random_instances(self):
        for _ in range(50):
            n_pos, n_neg = rng.integers(1, 20), rng.integers(1, 40)
            pos = np.round(rng.standard_normal(n_pos), 1)
            neg = np.round(rng.standard_normal(n_neg), 1)
            assert mrr(pos, neg) == mrr_reference(pos, neg)

    def test_link_pred_task_metric_random_instances(self):
        local = np.random.default_rng(7)
        for _ in range(50):
            n_pos, n_neg = local.integers(1, 20), local.integers(1, 40)
            scores = np.round(local.standard_normal(n_pos + n_neg), 1)
            targets = local.permutation(np.r_[np.ones(n_pos), np.zeros(n_neg)])
            assert TASKS["link-pred"].metric(scores, targets) == mrr_reference(
                scores[targets == 1], scores[targets == 0])

    def test_all_metrics_in_unit_interval(self):
        for _ in range(20):
            n = rng.integers(2, 30)
            scores = rng.standard_normal(n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos, neg = scores[labels == 1], scores[labels == 0]
            assert 0.0 <= hits_at_k(pos, neg, 3) <= 1.0
            assert 0.0 <= mrr(pos, neg) <= 1.0
