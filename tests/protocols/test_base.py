"""Unit tests for repro.protocols.base."""

import sys

import numpy as np
import pytest

from repro.core.params import PAPER_TABLE1
from repro.core.profile import Profile
from repro.errors import ProtocolError
from repro.protocols.base import WorkAllocation, validate_order


class TestValidateOrder:
    def test_accepts_permutation(self):
        assert validate_order([2, 0, 1], 3) == (2, 0, 1)

    def test_accepts_range(self):
        assert validate_order(range(4), 4) == (0, 1, 2, 3)

    def test_rejects_duplicate(self):
        with pytest.raises(ProtocolError):
            validate_order([0, 0, 1], 3)

    def test_rejects_wrong_length(self):
        with pytest.raises(ProtocolError):
            validate_order([0, 1], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ProtocolError):
            validate_order([1, 2, 3], 3)

    def test_rejects_non_integers(self):
        with pytest.raises(ProtocolError):
            validate_order(["a", "b"], 2)

    def test_accepts_numpy_integers_as_plain_ints(self):
        order = validate_order(np.array([1, 0, 2]), 3)
        assert order == (1, 0, 2)
        assert all(type(i) is int for i in order)


#: Orders whose elements would truncate or coerce to a permutation of
#: range(2), and so must be refused rather than read as one.
_INEXACT_ORDERS = {
    "floats": [1.7, 0.2],
    "integral-floats": [1.0, 0.0],
    "bools": [True, False],
    "mixed-bool": [1, False],
    "numpy-floats": np.array([1.0, 0.0]),
    "numpy-bools": np.array([True, False]),
}


class TestInexactOrderElements:
    """Order elements are checked exactly: a float or a bool is refused,
    never truncated (``[1.7, 0.2]`` once became the order ``(1, 0)``)."""

    @pytest.mark.parametrize("order", _INEXACT_ORDERS.values(),
                             ids=_INEXACT_ORDERS.keys())
    def test_validate_order(self, order):
        with pytest.raises(ProtocolError, match="permutation"):
            validate_order(order, 2)

    @pytest.mark.parametrize("order", _INEXACT_ORDERS.values(),
                             ids=_INEXACT_ORDERS.keys())
    def test_fifo_allocation(self, order):
        from repro.protocols.fifo import fifo_allocation, fifo_work_fractions

        with pytest.raises(ProtocolError):
            fifo_allocation(Profile([1.0, 0.5]), PAPER_TABLE1, 100.0,
                            startup_order=order)
        with pytest.raises(ProtocolError):
            fifo_work_fractions(Profile([1.0, 0.5]), PAPER_TABLE1, order)

    @pytest.mark.parametrize("order", _INEXACT_ORDERS.values(),
                             ids=_INEXACT_ORDERS.keys())
    @pytest.mark.parametrize("which", ["startup", "finishing"])
    def test_lp_allocation(self, order, which):
        from repro.protocols.general import GeneralProtocol, lp_allocation

        orders = {"startup": (0, 1), "finishing": (0, 1), which: order}
        with pytest.raises(ProtocolError):
            lp_allocation(Profile([1.0, 0.5]), PAPER_TABLE1, 100.0,
                          orders["startup"], orders["finishing"])
        with pytest.raises(ProtocolError):
            GeneralProtocol(orders["startup"], orders["finishing"]).allocate(
                Profile([1.0, 0.5]), PAPER_TABLE1, 100.0)

    @pytest.mark.parametrize("order", _INEXACT_ORDERS.values(),
                             ids=_INEXACT_ORDERS.keys())
    @pytest.mark.parametrize("which", ["sigma", "phi"])
    def test_work_allocation(self, order, which):
        with pytest.raises(ProtocolError):
            _alloc(**{which: order})


def _alloc(w=(3.0, 2.0), lifespan=10.0, sigma=(0, 1), phi=(0, 1)):
    return WorkAllocation(
        profile=Profile([1.0, 0.5]),
        params=PAPER_TABLE1,
        lifespan=lifespan,
        w=np.asarray(w),
        startup_order=sigma,
        finishing_order=phi,
        protocol_name="test",
    )


class TestWorkAllocation:
    def test_total_work(self):
        assert _alloc().total_work == 5.0

    def test_work_fractions_sum_to_one(self):
        assert _alloc().work_fractions.sum() == pytest.approx(1.0)

    def test_zero_work_fractions(self):
        assert _alloc(w=(0.0, 0.0)).work_fractions.tolist() == [0.0, 0.0]

    def test_is_fifo(self):
        assert _alloc().is_fifo
        assert not _alloc(phi=(1, 0)).is_fifo

    def test_w_in_startup_order(self):
        alloc = _alloc(w=(3.0, 2.0), sigma=(1, 0), phi=(1, 0))
        assert alloc.w_in_startup_order().tolist() == [2.0, 3.0]

    def test_w_in_finishing_order(self):
        alloc = _alloc(w=(3.0, 2.0), sigma=(0, 1), phi=(1, 0))
        assert alloc.w_in_finishing_order().tolist() == [2.0, 3.0]

    def test_w_read_only(self):
        alloc = _alloc()
        with pytest.raises(ValueError):
            alloc.w[0] = 7.0

    def test_rejects_negative_work(self):
        with pytest.raises(ProtocolError):
            _alloc(w=(-1.0, 2.0))

    def test_rejects_a_total_that_overflows(self):
        # Each quantum is finite; their sum is not a double.
        big = sys.float_info.max
        with pytest.raises(ProtocolError, match="finite total"):
            _alloc(w=(big, big))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ProtocolError):
            _alloc(w=(1.0, 2.0, 3.0))

    def test_rejects_bad_lifespan(self):
        with pytest.raises(ProtocolError):
            _alloc(lifespan=0.0)

    def test_rejects_bad_orders(self):
        with pytest.raises(ProtocolError):
            _alloc(sigma=(0, 0))

    def test_summary_mentions_name_and_work(self):
        text = _alloc().summary()
        assert "test" in text
        assert "W=5" in text
