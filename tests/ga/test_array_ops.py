"""Tests for global arrays over an irregular block distribution."""

import numpy as np
import pytest

from repro.ga import GlobalArray, IrregularBlockDistribution
from repro.runtime import Cluster, RuntimeMisuseError


def test_irregular_distribution_array():
    def program(ctx):
        dist = IrregularBlockDistribution.from_counts([1, 4, 2])
        ga = GlobalArray.create(ctx, "i", (7,), dtype=np.int64, dist=dist)
        ga.sync()
        lo, hi = ga.local_range()
        ga.local_view()[:] = ctx.rank
        ga.sync()
        return (lo, hi, ga.local_view().copy())

    res = Cluster(3).run(program)
    assert [r[:2] for r in res.rank_results] == [(0, 1), (1, 5), (5, 7)]
    np.testing.assert_array_equal(
        np.concatenate([r[2] for r in res.rank_results]),
        [0, 1, 1, 1, 1, 2, 2],
    )


def test_irregular_distribution_wrong_size():
    def program(ctx):
        dist = IrregularBlockDistribution.from_counts([1, 2])
        GlobalArray.create(ctx, "i", (7,), dist=dist)

    with pytest.raises(RuntimeError, match="failed") as exc:
        Cluster(2).run(program)
    assert isinstance(exc.value.__cause__, RuntimeMisuseError)
    assert "distribution covers 3 rows" in str(exc.value.__cause__)
