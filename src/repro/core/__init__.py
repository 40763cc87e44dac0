"""The end-to-end VGen pipeline facade (paper Fig. 1)."""

from .pipeline import VGenConfig, VGenPipeline, VGenResult

__all__ = ["VGenConfig", "VGenPipeline", "VGenResult"]
