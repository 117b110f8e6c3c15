"""Graded vector spaces and degree-preserving linear maps."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch
from .ratlin import RatMatrix


@dataclass(frozen=True)
class GradedVectorSpace:
    """Nonnegatively graded vector space given by its dimensions.

    Only nonzero degrees are stored.
    """

    dims: tuple = ()  # tuple of (degree, dim) pairs, sorted

    @staticmethod
    def from_dims(dims: dict) -> "GradedVectorSpace":
        items = tuple(sorted((k, d) for k, d in dims.items() if d))
        if any(k < 0 or d < 0 for k, d in items):
            raise DimensionMismatch("negative degree or dimension")
        return GradedVectorSpace(items)

    def dim(self, k: int) -> int:
        for deg, d in self.dims:
            if deg == k:
                return d
        return 0

    def degrees(self) -> list:
        return [k for k, _ in self.dims]


@dataclass
class GradedLinearMap:
    """Degree-0 linear map between graded vector spaces.

    Matrices are stored sparsely by degree; absent degrees are zero
    maps of the appropriate shape.
    """

    source: GradedVectorSpace
    target: GradedVectorSpace
    mats: dict = field(default_factory=dict)  # degree -> RatMatrix

    def __post_init__(self):
        for k, m in self.mats.items():
            if m.rows != self.target.dim(k) or m.cols != self.source.dim(k):
                raise DimensionMismatch(f"matrix shape at degree {k}")

    def matrix(self, k: int) -> RatMatrix:
        m = self.mats.get(k)
        if m is None:
            return RatMatrix.zeros(self.target.dim(k), self.source.dim(k))
        return m

    def compose_after(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other."""
        degrees = set(k for k, _ in self.source.dims) | set(k for k, _ in other.source.dims)
        mats = {}
        for k in degrees:
            m = self.matrix(k).matmul(other.matrix(k))
            if not m.is_zero():
                mats[k] = m
        return GradedLinearMap(other.source, self.target, mats)

    @staticmethod
    def identity(space: GradedVectorSpace) -> "GradedLinearMap":
        return GradedLinearMap(space, space, {k: RatMatrix.identity(d) for k, d in space.dims})

    def equals(self, other: "GradedLinearMap") -> bool:
        degrees = {k for k, _ in self.source.dims} | {k for k, _ in other.source.dims}
        return all(self.matrix(k) == other.matrix(k) for k in degrees)
