"""Experiment orchestration: configuration, caching, the privacy game and
its CLI."""
