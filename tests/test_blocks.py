import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibrefine.blocks import (
    BlockGrid,
    Parity,
    block_of,
    block_sample,
    block_winners,
    kept_blocks,
    retained_rows,
)

from conftest import (
    assert_same_pairs,
    naive_block,
    naive_block_sample,
    naive_block_winners,
    naive_center_d2,
    naive_retained,
    pair_set,
    random_pair_cloud,
)


def sample(pixels, grid, skip_parity=True):
    """The ``(u, v)`` pixels of the pairs at ``pixels`` that ``block_sample``
    keeps, in order."""
    pairs = pair_set(np.zeros((len(pixels), 2)), pixels)
    return [tuple(uv) for uv in block_sample(pairs, grid, skip_parity).uv.tolist()]


def one_block(grid, u, v):
    """``block_of`` of a single point: its ``(ix, iy)``, or None outside the image."""
    rows, ix, iy = block_of(grid, np.array([[u, v]]))
    return (int(ix[0]), int(iy[0])) if rows.size else None


class TestBlockOf:
    def test_interior_of_first_block(self):
        grid = BlockGrid(100, 100, 5, 5)
        assert one_block(grid, 10.0, 10.0) == (0, 0)

    def test_last_block_interior(self):
        grid = BlockGrid(100, 100, 5, 5)
        assert one_block(grid, 99.9, 99.9) == (4, 4)

    def test_outside_image(self):
        grid = BlockGrid(100, 100, 5, 5)
        assert one_block(grid, -1.0, 50.0) is None
        assert one_block(grid, 100.0, 50.0) is None
        assert one_block(grid, 50.0, 100.0) is None

    def test_boundary_goes_to_higher_block(self):
        grid = BlockGrid(100, 100, 5, 5)
        assert one_block(grid, 20.0, 0.0) == (1, 0)
        assert one_block(grid, 0.0, 40.0) == (0, 2)

    def test_rows_and_indices_of_an_array(self):
        grid = BlockGrid(100, 100, 5, 5)
        uv = np.array([[-1.0, 50.0], [20.0, 0.0], [100.0, 50.0], [99.9, 99.9], [np.nan, 1.0]])
        rows, ix, iy = block_of(grid, uv)
        assert rows.tolist() == [1, 3]
        assert ix.tolist() == [1, 4] and iy.tolist() == [0, 4]
        rows, ix, iy = block_of(grid, np.empty((0, 2)))
        assert rows.size == ix.size == iy.size == 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BlockGrid(0, 100)
        with pytest.raises(ValueError):
            BlockGrid(100, 100, 1, 2)  # fewer than 4 blocks

    @pytest.mark.parametrize(
        "name, value",
        [
            ("blocks_x", 2.5),
            ("blocks_x", math.inf),
            ("blocks_y", -math.inf),
            ("image_width", math.nan),
            ("image_height", 1080.5),
            ("blocks_y", "5"),
        ],
    )
    def test_grid_fields_must_be_positive_integers(self, name, value):
        args = {"image_width": 1920, "image_height": 1080, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            BlockGrid(**args)

    @pytest.mark.parametrize("name", ["image_width", "image_height", "blocks_x", "blocks_y"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_grid_fields_must_be_positive(self, name, value):
        args = {"image_width": 1920, "image_height": 1080, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            BlockGrid(**args)


class TestKeptBlocks:
    @pytest.mark.parametrize("bx, by", [(1, 4), (2, 2), (3, 3), (4, 5), (7, 3)])
    @pytest.mark.parametrize("parity", Parity)
    def test_counts_the_blocks_block_sampling_keeps(self, bx, by, parity):
        grid = BlockGrid(100, 100, bx, by, parity)
        retained = [(ix, iy) for ix in range(bx) for iy in range(by) if naive_retained(grid, (ix, iy))]
        assert kept_blocks(grid) == len(retained)
        assert kept_blocks(grid, skip_parity=False) == bx * by


class TestBlockSample:
    def test_empty_input(self):
        assert sample([], BlockGrid(100, 100)) == []

    def test_equidistant_tie_keeps_first(self):
        grid = BlockGrid(100, 100, 5, 5, Parity.EVEN)
        first, second = (8.0, 8.0), (12.0, 12.0)
        out = sample([first, second], grid)
        assert out == [first]
        # order flipped: the new first pair wins the tie instead
        assert sample([second, first], grid) == [second]

    def test_parity_filter(self):
        grid_even = BlockGrid(100, 100, 5, 5, Parity.EVEN)
        grid_odd = BlockGrid(100, 100, 5, 5, Parity.ODD)
        pair = (10.0, 30.0)  # block (0, 1): odd parity
        assert sample([pair], grid_even) == []
        assert sample([pair], grid_odd) == [pair]

    def test_skip_parity_disabled_keeps_all_blocks(self):
        grid = BlockGrid(100, 100, 5, 5, Parity.EVEN)
        pair = (10.0, 30.0)
        assert sample([pair], grid, skip_parity=False) == [pair]

    def test_out_of_image_pairs_dropped(self):
        grid = BlockGrid(100, 100)
        assert sample([(-5.0, 10.0), (10.0, 200.0)], grid) == []

    def test_output_follows_input_order(self):
        grid = BlockGrid(100, 100, 5, 5, Parity.EVEN)
        pixels = [(90.0, 90.0), (10.0, 10.0)]  # blocks (4,4), (0,0)
        assert sample(pixels, grid) == pixels


class TestBlockSampleProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        grid = BlockGrid(
            1920,
            1080,
            int(rng.integers(2, 8)),
            int(rng.integers(2, 8)),
            Parity(int(rng.integers(0, 2))),
        )
        pairs = random_pair_cloud(rng, int(rng.integers(0, 120)))
        out = block_sample(pairs, grid)

        seen_blocks = set()
        for u, v in out.uv.tolist():
            block = naive_block(grid, u, v)
            assert block is not None
            assert naive_retained(grid, block)
            assert block not in seen_blocks
            seen_blocks.add(block)

        # survivor minimality against a brute-force per-block scan
        for u, v in out.uv.tolist():
            block = naive_block(grid, u, v)
            d_win = naive_center_d2(grid, block, u, v)
            for other_u, other_v in pairs.uv.tolist():
                if naive_block(grid, other_u, other_v) == block:
                    d_other = naive_center_d2(grid, block, other_u, other_v)
                    assert d_win <= d_other

        assert_same_pairs(block_sample(out, grid), out)  # idempotence


# Grids whose block edges are exact (100 px, 384 x 216 px) and inexact
# (1000 / 3 and 600 / 7 px, on either axis) in binary floating point.
_GRIDS = [
    BlockGrid(100, 100, 5, 5),
    BlockGrid(1920, 1080, 5, 5),
    BlockGrid(1000, 600, 3, 7),
    BlockGrid(600, 1000, 7, 3),
]


@st.composite
def _lattice_points(draw, grid):
    """Pixels on the quarter-block lattice of ``grid`` (block edges, centers
    and points between, so center ties are common), one block beyond each
    side, on the block edges as multiples of the block size and just below
    them, plus the image edges, just inside them and negative coordinates."""

    def coord(size, blocks):
        block = size / blocks
        return draw(st.one_of(
            st.integers(-4, 4 * blocks + 4).map(lambda k: k * (size / (4 * blocks))),
            st.integers(0, blocks).map(lambda k: k * block),
            st.integers(1, blocks).map(lambda k: float(np.nextafter(k * block, 0.0))),
            st.sampled_from([-0.5, -0.0, float(size), float(np.nextafter(size, 0.0)), size + 0.5]),
        ))

    return coord(grid.image_width, grid.blocks_x), coord(grid.image_height, grid.blocks_y)


@st.composite
def _block_case(draw):
    grid = replace(draw(st.sampled_from(_GRIDS)), parity=draw(st.sampled_from(Parity)))
    pixels = draw(st.lists(_lattice_points(grid), max_size=30))
    steps = draw(st.lists(st.integers(0, 1), min_size=len(pixels), max_size=len(pixels)))
    return grid, pixels, np.cumsum(steps).tolist(), draw(st.booleans())


class TestBlockRuleHypothesis:
    @settings(max_examples=400)
    @given(case=_block_case())
    def test_block_sample_and_window_selection_equal_the_reference(self, case):
        grid, pixels, frames, skip_parity = case
        # each pair's frame id is its row, so equal pixels stay apart
        pairs = pair_set(np.zeros((len(pixels), 2)), pixels, frame_id=np.arange(len(pixels)))
        out = block_sample(pairs, grid, skip_parity=skip_parity)
        assert_same_pairs(out, naive_block_sample(pairs, grid, skip_parity))

        uv = np.array(pixels, dtype=float).reshape(-1, 2)
        rows, ix, iy = block_winners(uv, np.array(frames, dtype=np.intp), grid, skip_parity)
        winners = naive_block_winners(pixels, frames, grid, skip_parity)
        assert rows.tolist() == winners
        assert list(zip(ix.tolist(), iy.tolist())) == [naive_block(grid, *pixels[r]) for r in winners]

    @settings(max_examples=200)
    @given(case=_block_case())
    def test_winners_given_the_lookup_equal_those_that_compute_it(self, case):
        grid, pixels, frames, skip_parity = case
        uv = np.array(pixels, dtype=float).reshape(-1, 2)
        frame_of = np.array(frames, dtype=np.intp)
        lookup = retained_rows(grid, uv, skip_parity)
        given_lookup = block_winners(uv, frame_of, grid, skip_parity, lookup)
        computed = block_winners(uv, frame_of, grid, skip_parity)
        for a, b in zip(given_lookup, computed):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
