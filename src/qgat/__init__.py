"""Quantum graph attention at desk scale.

A self-contained differentiable statevector simulator fused with graph
attention layers (quantum QGAT plus classical GAT/GATv2 baselines), with
synthetic datasets, noise-robustness protocols, link prediction, and a CLI.
"""

from .attention import GatLayer, Gatv2Layer, QgatLayer
from .graph import Graph, load_graph, synth_sbm
from .training import TrainConfig, build_model, run_training, train
from .vqc import EntanglingLayout, build_layout

__version__ = "0.1.0"

__all__ = [
    "EntanglingLayout",
    "GatLayer",
    "Gatv2Layer",
    "Graph",
    "QgatLayer",
    "TrainConfig",
    "build_layout",
    "build_model",
    "load_graph",
    "run_training",
    "synth_sbm",
    "train",
]
