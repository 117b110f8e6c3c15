"""Persistent Sullivan minimal models of Vietoris-Rips filtrations.

Computes degree-truncated minimal models of the per-stage cohomology
rings of a filtration (or of user-supplied CDGAs), extracts the
rational-homotopy barcode V and the cohomology barcode H, and evaluates
the lower-bound chain for the interleaving distance of persistent CDGAs
against an exact branch-and-bound Gromov-Hausdorff upper bound.
"""

__version__ = "0.1.0"
