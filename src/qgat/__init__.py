"""Quantum graph attention at desk scale.

A self-contained differentiable statevector simulator fused with one graph
attention layer whose logit scorer is quantum (QGAT) or classical (the GAT and
GATv2 baselines), with synthetic datasets, noise-robustness protocols, link
prediction, and a CLI.
"""

from .attention import CircuitScorer, GatScorer, Gatv2Scorer
from .graph import Graph, load_graph, synth_sbm
from .training import TrainConfig, build_model, run_training, train
from .vqc import EntanglingLayout, build_layout

__version__ = "0.1.0"

__all__ = [
    "CircuitScorer",
    "EntanglingLayout",
    "GatScorer",
    "Gatv2Scorer",
    "Graph",
    "TrainConfig",
    "build_layout",
    "build_model",
    "load_graph",
    "run_training",
    "synth_sbm",
    "train",
]
