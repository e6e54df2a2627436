import numpy as np
import pytest

from slabdiff import Grid1D, InvalidParameterError, TimeGrid


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
