import numpy as np
import pytest

import slabdiff
from slabdiff import Grid1D, InvalidParameterError, TimeGrid
from slabdiff.core import MAX_SAMPLES


def test_uniform_grid_covers_slab():
    g = Grid1D.uniform_grid(11)
    assert g.points[0] == -0.5
    assert g.points[-1] == 0.5
    assert len(g) == 11


def test_grid_rejects_bad_points():
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([0.0, 0.0, 0.1]))
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([-0.6, 0.0]))
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([0.0, 0.7]))
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([[0.0, 0.1]]))


def test_time_grid_rejects_bad_points():
    with pytest.raises(InvalidParameterError):
        TimeGrid(points=np.array([-0.1, 0.2]))
    with pytest.raises(InvalidParameterError):
        TimeGrid(points=np.array([0.2, 0.1]))
    tg = TimeGrid.linspace(0.0, 1.0, 11)
    assert len(tg) == 11
    assert tg.points[0] == 0.0


@pytest.mark.parametrize("count", [1, MAX_SAMPLES + 1, 2**63 - 1, 10**20])
def test_grids_refuse_a_size_numpy_cannot_build(count):
    # numpy raises ValueError at 10**20 and IndexError at 2**63 - 1; none of
    # these counts allocates anything.
    with pytest.raises(InvalidParameterError):
        Grid1D.uniform_grid(count)
    with pytest.raises(InvalidParameterError):
        TimeGrid.linspace(0.0, 1.0, count)


def test_every_public_name_resolves():
    assert len(set(slabdiff.__all__)) == len(slabdiff.__all__)
    assert [name for name in slabdiff.__all__ if not hasattr(slabdiff, name)] == []
    namespace = {}
    exec("from slabdiff import *", namespace)
    assert set(slabdiff.__all__) <= set(namespace)
