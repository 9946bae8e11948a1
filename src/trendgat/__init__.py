"""Stock trend classification with energy-based dynamic graphs and parallel
graph attention."""

from .energy_graph import sector_adjacency, snapshot
from .market_data import load_panel, select_indicators
from .model import ModelConfig, build_datasets, load_model, predict, save_model, train

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "build_datasets",
    "load_model",
    "load_panel",
    "predict",
    "save_model",
    "sector_adjacency",
    "select_indicators",
    "snapshot",
    "train",
    "__version__",
]
