"""Run configuration shared by the pipeline and the CLI."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import InputError


@dataclass
class Config:
    max_degree: int = 4
    max_dim: Optional[int] = None  # defaults to max_degree + 1
    deg1_cap: int = 8
    simplex_cap: int = 2_000_000
    gh_cap: int = 30

    def __post_init__(self):
        if self.max_dim is None:
            self.max_dim = self.max_degree + 1
        for name in ("max_degree", "deg1_cap", "simplex_cap", "gh_cap"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.max_dim < self.max_degree - 1:
            warnings.warn("max_dim < max_degree - 1: top cohomology degrees "
                          "will be truncated away")
