"""Block-based sampling: partition the image into a grid, keep the pair
nearest each block center, and drop every other checkerboard block so the
retained correspondences are spread across the field of view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .geometry import Correspondence, PairSet, PixelPoint, correspondence_arrays


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
        for name in ("image_width", "image_height", "blocks_x", "blocks_y"):
            value = getattr(self, name)
            if int(value) != value or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value}")
        if self.blocks_x * self.blocks_y < 4:
            raise ValueError("grid needs at least 4 blocks to ever calibrate")

    @property
    def block_width(self) -> float:
        return self.image_width / self.blocks_x

    @property
    def block_height(self) -> float:
        return self.image_height / self.blocks_y

    def block_center(self, ix: int, iy: int) -> tuple[float, float]:
        return ((ix + 0.5) * self.block_width, (iy + 0.5) * self.block_height)

    def retained(self, ix: int, iy: int) -> bool:
        return (ix + iy) % 2 == self.parity.value


def block_of(grid: BlockGrid, p: PixelPoint) -> tuple[int, int] | None:
    """Block index of a pixel point, or None when outside the image.

    Floor semantics: a point exactly on a block boundary belongs to the
    higher-index block; ``u == image_width`` is already outside.
    """
    if not (0.0 <= p.u < grid.image_width and 0.0 <= p.v < grid.image_height):
        return None
    ix = min(int(p.u // grid.block_width), grid.blocks_x - 1)
    iy = min(int(p.v // grid.block_height), grid.blocks_y - 1)
    return ix, iy


def block_sample(
    pairs: PairSet | Sequence[Correspondence],
    grid: BlockGrid,
    skip_parity: bool = True,
) -> list[Correspondence]:
    """Keep at most one pair per retained block: the one whose camera point
    is nearest the block center (ties go to the earlier input index).

    Pairs outside the image are dropped. With ``skip_parity`` (the default)
    blocks of the non-retained checkerboard class are discarded entirely.
    Output preserves input order.
    """
    _, uv = correspondence_arrays(pairs)
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for idx, (u, v) in enumerate(uv.tolist()):
        block = block_of(grid, PixelPoint(u, v))
        if block is None:
            continue
        if skip_parity and not grid.retained(*block):
            continue
        cx, cy = grid.block_center(*block)
        d2 = (u - cx) ** 2 + (v - cy) ** 2
        incumbent = best.get(block)
        if incumbent is None or d2 < incumbent[0]:
            best[block] = (d2, idx)
    winners = sorted(idx for _, idx in best.values())
    return [pairs[i] for i in winners]


def half_block_diagonal(grid: BlockGrid) -> float:
    """Half the diagonal of one block; the 'sufficiently distinct' radius."""
    return 0.5 * math.hypot(grid.block_width, grid.block_height)
