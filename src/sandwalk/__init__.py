"""Bipedal walking dynamics on granular terrain: simulation and analysis."""

__version__ = "0.1.0"
