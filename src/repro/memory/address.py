"""Matrix memory layouts and tile address generation.

The DMA engine and the matrix-unit FSMs generate addresses for rectangular
tiles of row-major (or column-major) matrices; the SIMT kernels generate
per-lane addresses for the same tiles.  This module provides the shared
address arithmetic so the coalescer, shared-memory and DMA models all agree
on what traffic a tile move produces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List


class MatrixLayout(enum.Enum):
    ROW_MAJOR = "row_major"
    COL_MAJOR = "col_major"


@dataclass(frozen=True)
class TileSpec:
    """A rectangular tile of a larger matrix stored in memory.

    Attributes
    ----------
    base:
        Byte address of element (0, 0) of the *tile*.
    rows, cols:
        Tile shape in elements.
    leading_dim:
        Leading dimension of the backing matrix in elements (row length for
        row-major storage).
    elem_bytes:
        Bytes per element.
    layout:
        Storage order of the backing matrix.
    """

    base: int
    rows: int
    cols: int
    leading_dim: int
    elem_bytes: int = 2
    layout: MatrixLayout = MatrixLayout.ROW_MAJOR

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("tile dimensions must be positive")
        if self.layout is MatrixLayout.ROW_MAJOR and self.leading_dim < self.cols:
            raise ValueError("leading_dim must be >= cols for row-major tiles")
        if self.layout is MatrixLayout.COL_MAJOR and self.leading_dim < self.rows:
            raise ValueError("leading_dim must be >= rows for column-major tiles")

    @property
    def bytes(self) -> int:
        """Total payload bytes of the tile."""
        return self.rows * self.cols * self.elem_bytes

    @property
    def contiguous_run_bytes(self) -> int:
        """Bytes of each naturally contiguous run (one row or one column)."""
        if self.layout is MatrixLayout.ROW_MAJOR:
            return self.cols * self.elem_bytes
        return self.rows * self.elem_bytes

    @property
    def runs(self) -> int:
        """Number of contiguous runs the tile decomposes into."""
        return self.rows if self.layout is MatrixLayout.ROW_MAJOR else self.cols

    def element_address(self, row: int, col: int) -> int:
        """Byte address of element (row, col) of the tile."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"element ({row}, {col}) outside {self.rows}x{self.cols} tile")
        if self.layout is MatrixLayout.ROW_MAJOR:
            offset = row * self.leading_dim + col
        else:
            offset = col * self.leading_dim + row
        return self.base + offset * self.elem_bytes

    def iter_run_bases(self) -> Iterator[int]:
        """Base byte address of each contiguous run of the tile."""
        if self.layout is MatrixLayout.ROW_MAJOR:
            for row in range(self.rows):
                yield self.element_address(row, 0)
        else:
            for col in range(self.cols):
                yield self.element_address(0, col)


def tile_addresses(tile: TileSpec, word_bytes: int = 4) -> List[int]:
    """Word-aligned byte addresses covering the whole tile, run by run.

    Used by the shared-memory and coalescer models to derive the request
    stream a tile move generates.
    """
    addresses: List[int] = []
    run_bytes = tile.contiguous_run_bytes
    for base in tile.iter_run_bases():
        offset = 0
        while offset < run_bytes:
            addresses.append(base + offset)
            offset += word_bytes
    return addresses
