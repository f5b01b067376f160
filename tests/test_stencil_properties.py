"""The periodic central stencil pads the node axis by one gather through
the grid's wrap index. It must give, bit for bit, what padding with
``np.concatenate`` of three slices gave: for any leading axes, any node
count N >= 3 and any floats, signed zeros, NaN, infinities and
subnormals included."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dedonder_hj.cauchy import GridError, make_grid, spatial_derivative

#: values whose bits an arithmetic slip would show
EDGES = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, -1e-310, 1.0)

LEADS = ((), (2,), (3, 2))


def concatenated_central(grid, values):
    """The three-slice stencil: the node axis padded with its last and
    first node by ``np.concatenate``, then the same subtraction and
    division by 2h."""
    padded = np.concatenate([values[..., -1:], values, values[..., :1]],
                            axis=-1)
    out = padded[..., 2:] - padded[..., :-2]
    out /= 2.0 * grid.spacing
    return out


@st.composite
def node_values(draw):
    """(values, length): floats on leading axes of LEADS and N in [3, 64]
    nodes, and the circle's length."""
    lead = draw(st.sampled_from(LEADS))
    N = draw(st.integers(3, 64))
    values = draw(hnp.arrays(float, lead + (N,), elements=st.floats(
        allow_subnormal=True) | st.sampled_from(EDGES)))
    return values, draw(st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=node_values())
@example(case=(np.array([0.0, -0.0, np.nan]), 1.0))
@example(case=(np.array([[np.inf, -np.inf, 5e-324, -0.0],
                         [-5e-324, 1e-310, 0.0, np.nan]]), 3.0))
@example(case=(np.array(EDGES[:6]).reshape(3, 2, 1).repeat(3, axis=2)
               * [1.0, -1.0, 0.5], 0.001))
@example(case=(np.arange(64.0) ** 3, 1000.0))
def test_one_gather_stencil_equals_the_concatenated_one(case):
    values, length = case
    grid = make_grid(values.shape[-1], length)
    with np.errstate(all="ignore"):
        got = spatial_derivative(grid, values)
        want = concatenated_central(grid, values)
    assert got.shape == want.shape == values.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("lead", LEADS)
def test_stencil_needs_three_nodes(N, lead):
    with pytest.raises(GridError,
                       match="^central differences need at least 3 nodes$"):
        spatial_derivative(make_grid(N), np.ones(lead + (N,)))


@pytest.mark.parametrize("lead", LEADS)
def test_stencil_at_m_0_is_zero(lead):
    values = np.full(lead + (1,), np.nan)
    got = spatial_derivative(make_grid(1, m=0), values)
    assert got.shape == values.shape
    assert got.tobytes() == np.zeros(values.shape).tobytes()
