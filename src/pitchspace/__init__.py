"""Interpretable spatiotemporal state variables for football tactics.

From synchronized tracking/event data: velocity-aware dominance regions and
weighted space scores, pass-success feature tables, an in-repo gradient-
boosted tree classifier, and exact Shapley attributions.
"""

__version__ = "0.1.0"
