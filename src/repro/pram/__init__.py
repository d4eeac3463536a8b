"""Simulated-PRAM primitives, sorting, and execution backends."""

from .connectivity import connected_components
from .executor import RungTask, SerialExecutor
from .primitives import (
    arbitrary_winners,
    pack,
    parallel_map,
    semisort,
)
from .sorting import parallel_sort

__all__ = [
    "RungTask",
    "SerialExecutor",
    "arbitrary_winners",
    "connected_components",
    "pack",
    "parallel_map",
    "parallel_sort",
    "semisort",
]
