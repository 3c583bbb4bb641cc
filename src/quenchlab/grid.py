"""Uniform isotropic spatial grids."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError

_ISO_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box [origin, origin + extent] with a uniform node grid.

    Each axis k carries cells[k] cells, hence cells[k] + 1 nodes.  All axes
    must share one spacing (relative tolerance 1e-12); quenching is spatially
    smooth at the resolutions targeted here, so anisotropy buys nothing.
    """

    origin: Tuple[float, ...]
    extent: Tuple[float, ...]
    cells: Tuple[int, ...]
    time_start: float
    time_end: float

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in np.atleast_1d(self.origin)))
        object.__setattr__(self, "extent", tuple(float(v) for v in np.atleast_1d(self.extent)))
        object.__setattr__(self, "cells", tuple(int(v) for v in np.atleast_1d(self.cells)))
        if not (len(self.origin) == len(self.extent) == len(self.cells)):
            raise ValidationError("origin, extent and cells must have one entry per axis")
        if not np.all(np.isfinite(self.origin + self.extent + (self.time_start, self.time_end))):
            raise ValidationError("origin, extent, time_start and time_end must be finite")
        if any(e <= 0 for e in self.extent):
            raise ValidationError(f"extent must be positive, got {self.extent}")
        if any(c < 1 for c in self.cells):
            raise ValidationError(f"cells must be >= 1 per axis, got {self.cells}")
        hs = [e / c for e, c in zip(self.extent, self.cells)]
        if max(hs) - min(hs) > _ISO_RTOL * max(hs):
            raise ValidationError(f"grid must be isotropic: spacings {hs}")
        if not self.time_start < self.time_end:
            raise ValidationError("time_start < time_end required")

    @property
    def n(self) -> int:
        return len(self.origin)

    @property
    def spacing(self) -> float:
        return self.extent[0] / self.cells[0]

    @property
    def node_shape(self) -> Tuple[int, ...]:
        return tuple(c + 1 for c in self.cells)

    def axis_nodes(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * np.arange(self.cells[k] + 1)

    def node_points(self) -> np.ndarray:
        """Coordinates of every node, shape (nodes, n), in C (row-major) order."""
        axes = np.meshgrid(*[self.axis_nodes(k) for k in range(self.n)], indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def axis_cell_centers(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * (np.arange(self.cells[k]) + 0.5)

    def upper(self) -> Tuple[float, ...]:
        return tuple(o + e for o, e in zip(self.origin, self.extent))

    def contains(self, xs: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
        """Boolean mask: which rows of xs (m, n) lie inside the box."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        lo = np.asarray(self.origin)
        hi = np.asarray(self.upper())
        slack = rtol * max(self.extent)
        return np.all((xs >= lo - slack) & (xs <= hi + slack), axis=-1)
