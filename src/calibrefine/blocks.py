"""Block-based sampling: partition the image into a grid, keep the pair
nearest each block center, and drop every other checkerboard block so the
retained correspondences are spread across the field of view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import check_field_types
from .geometry import PairSet


class Parity(Enum):
    """Which checkerboard class of blocks is retained."""

    EVEN = 0
    ODD = 1


@dataclass(frozen=True)
class BlockGrid:
    image_width: int
    image_height: int
    blocks_x: int = 5
    blocks_y: int = 5
    parity: Parity = Parity.EVEN

    def __post_init__(self):
        check_field_types(self)
        for name in ("image_width", "image_height", "blocks_x", "blocks_y"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value}")
        if self.blocks_x * self.blocks_y < 4:
            raise ValueError(
                "grid needs at least 4 blocks: block sampling keeps at most one pair "
                "per block and a fit needs 4 pairs"
            )

    @property
    def block_width(self) -> float:
        return self.image_width / self.blocks_x

    @property
    def block_height(self) -> float:
        return self.image_height / self.blocks_y


def block_of(grid: BlockGrid, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block index of each row of an ``(N, 2)`` pixel array.

    Returns the rows inside the image (``0 <= u < image_width`` and
    ``0 <= v < image_height``, so ``u == image_width`` is outside) and their
    block columns ``ix`` and rows ``iy``. Floor semantics: a point exactly on
    a block boundary belongs to the higher-index block, clamped to the last
    block of each axis.
    """
    u, v = uv[:, 0], uv[:, 1]
    rows = ((0.0 <= u) & (u < grid.image_width) & (0.0 <= v) & (v < grid.image_height)).nonzero()[0]
    ix = np.minimum(u[rows] // grid.block_width, grid.blocks_x - 1).astype(np.intp)
    iy = np.minimum(v[rows] // grid.block_height, grid.blocks_y - 1).astype(np.intp)
    return rows, ix, iy


def retained_rows(grid: BlockGrid, uv: np.ndarray, skip_parity: bool):
    """:func:`block_of`, less the rows in blocks of the non-retained
    checkerboard class when ``skip_parity`` is set: the rows the block rule
    can keep, and their block indices ``ix``, ``iy``."""
    rows, ix, iy = block_of(grid, uv)
    if skip_parity:
        keep = (ix + iy) % 2 == grid.parity.value
        rows, ix, iy = rows[keep], ix[keep], iy[keep]
    return rows, ix, iy


def block_winners(
    uv: np.ndarray, frame_of: np.ndarray, grid: BlockGrid, skip_parity: bool, retained=None
):
    """The block rule, on every frame of ``(N, 2)`` pixels at once.

    Per (frame, block) it keeps the row nearest the block center, the
    earliest row winning a tie. Rows outside the image are dropped, and with
    ``skip_parity`` so are blocks of the non-retained checkerboard class.
    ``frame_of`` holds the frame of each row. ``retained``, when given, is
    what :func:`retained_rows` returns for the same pixels, grid and
    ``skip_parity``, and is used instead of computing it. Returns the
    winning rows in input order and their block indices ``ix``, ``iy``.
    """
    rows, ix, iy = retained_rows(grid, uv, skip_parity) if retained is None else retained
    u, v = uv[:, 0][rows], uv[:, 1][rows]
    d2 = (u - (ix + 0.5) * grid.block_width) ** 2 + (v - (iy + 0.5) * grid.block_height) ** 2
    key = (frame_of[rows] * grid.blocks_y + iy) * grid.blocks_x + ix
    # rows ascend and lexsort is stable, so the earliest row wins a tie
    order = np.lexsort((d2, key))
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    won = order[first]
    won.sort()
    return rows[won], ix[won], iy[won]


def block_sample(pairs: PairSet, grid: BlockGrid, skip_parity: bool = True) -> PairSet:
    """:func:`block_winners` of the pairs' camera points as one frame: at
    most one pair per retained block, in input order."""
    rows, _, _ = block_winners(pairs.uv, np.zeros(len(pairs), dtype=np.intp), grid, skip_parity)
    return pairs[rows]


def kept_blocks(grid: BlockGrid, skip_parity: bool = True) -> int:
    """How many blocks block sampling keeps: every block, or with
    ``skip_parity`` those of the retained checkerboard class (block (0, 0)
    is even)."""
    n = grid.blocks_x * grid.blocks_y
    if not skip_parity:
        return n
    return (n + 1) // 2 if grid.parity is Parity.EVEN else n // 2


def require_kept_blocks(grid: BlockGrid, skip_parity: bool = True) -> None:
    """Refuse, with ``ValueError``, a grid whose :func:`kept_blocks` is below
    4: block sampling keeps at most one pair per block, and a coarse fit
    needs 4 pairs."""
    kept = kept_blocks(grid, skip_parity)
    if kept < 4:
        raise ValueError(
            f"grid {grid.blocks_x}x{grid.blocks_y} keeps {kept} blocks after "
            "block sampling; the coarse fit needs at least 4"
        )


def half_block_diagonal(grid: BlockGrid) -> float:
    """Half the diagonal of one block; the 'sufficiently distinct' radius."""
    return 0.5 * math.hypot(grid.block_width, grid.block_height)
