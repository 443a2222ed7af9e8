"""Tests for GlobalArray semantics and cost accounting."""

import numpy as np
import pytest

from repro.ga import GlobalArray
from repro.runtime import Cluster, RuntimeMisuseError


def test_create_and_local_views_tile_array():
    def program(ctx):
        ga = GlobalArray.create(ctx, "a", (10, 3))
        ga.local_view()[:] = ctx.rank
        ga.sync()
        return ga.local_view().copy()

    res = Cluster(3).run(program)
    # each rank's block, concatenated in rank order, is the whole array
    full = np.concatenate(res.rank_results)
    assert full.shape == (10, 3)
    # every row filled by its owner
    owners = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_array_equal(full, np.repeat(owners[:, None], 3, 1))


def test_read_inc_hands_out_unique_values():
    def program(ctx):
        ga = GlobalArray.create(ctx, "ctr", (1,), dtype=np.int64)
        ga.sync()
        got = [ga.read_inc(0) for _ in range(10)]
        ga.sync()
        return (got, ga.local_view().copy())

    res = Cluster(4).run(program)
    all_vals = [v for got, _ in res.rank_results for v in got]
    assert sorted(all_vals) == list(range(40))
    final = np.concatenate([view for _, view in res.rank_results])
    np.testing.assert_array_equal(final, [40])


def test_read_inc_requires_integer_array():
    def program(ctx):
        ga = GlobalArray.create(ctx, "f", (1,), dtype=np.float64)
        ga.read_inc(0)

    with pytest.raises(RuntimeError, match="failed") as exc:
        Cluster(2).run(program)
    assert isinstance(exc.value.__cause__, RuntimeMisuseError)
    assert "integer array" in str(exc.value.__cause__)


def test_remote_access_costs_more_than_local():
    def program(ctx):
        ga = GlobalArray.create(ctx, "g", (2,), dtype=np.int64)
        ga.sync()
        lo, _ = ga.local_range()
        t0 = ctx.now
        ga.read_inc(lo)  # locally owned element
        local_cost = ctx.now - t0
        other = (lo + 1) % 2
        t0 = ctx.now
        ga.read_inc(other)  # remote element
        remote_cost = ctx.now - t0
        return (local_cost, remote_cost)

    res = Cluster(2).run(program)
    for local_cost, remote_cost in res.rank_results:
        assert remote_cost > local_cost > 0.0


def test_shape_mismatch_detected():
    def program(ctx):
        shape = (4,) if ctx.rank == 0 else (5,)
        GlobalArray.create(ctx, "h", shape)

    with pytest.raises(RuntimeError, match="failed") as exc:
        Cluster(2).run(program)
    assert isinstance(exc.value.__cause__, RuntimeMisuseError)
    assert "disagree" in str(exc.value.__cause__)


def test_out_of_bounds_rejected():
    def program(ctx):
        ga = GlobalArray.create(ctx, "i", (4,), dtype=np.int64)
        ga.read_inc(4)

    with pytest.raises(RuntimeError, match="failed") as exc:
        Cluster(2).run(program)
    assert isinstance(exc.value.__cause__, RuntimeMisuseError)
    assert "out of bounds" in str(exc.value.__cause__)
