"""Biased Maker-Breaker Hamilton cycle game on the complete graph.

Simulator, two-phase Maker strategy, Breaker policy zoo, and an audit
layer that checks the strategy's structural invariants while games run.
"""

from .board import AuditLevel, Board, BoardError, GameConfig

__all__ = [
    "AuditLevel",
    "Board",
    "BoardError",
    "GameConfig",
]

__version__ = "0.1.0"
