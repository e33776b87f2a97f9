"""Unit tests for repro.protocols.general — the LP scheduler."""

import sys

import numpy as np
import pytest

from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import InfeasibleScheduleError, ProtocolError
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import (
    GeneralProtocol,
    lp_allocation,
    lp_allocation_many,
)


class TestLpAllocation:
    def test_fifo_lp_matches_closed_form(self, heavy_comm_params, table4_profile):
        order = (0, 1, 2, 3)
        lp = lp_allocation(table4_profile, heavy_comm_params, 20.0, order, order)
        closed = fifo_allocation(table4_profile, heavy_comm_params, 20.0, order)
        assert lp.total_work == pytest.approx(closed.total_work, rel=1e-7)
        assert lp.w == pytest.approx(closed.w, rel=1e-5)

    def test_no_sampled_protocol_beats_fifo(self, heavy_comm_params, table4_profile, rng):
        fifo = fifo_allocation(table4_profile, heavy_comm_params, 20.0).total_work
        for _ in range(15):
            sigma = tuple(rng.permutation(4).tolist())
            phi = tuple(rng.permutation(4).tolist())
            w = lp_allocation(table4_profile, heavy_comm_params, 20.0,
                              sigma, phi).total_work
            assert w <= fifo * (1.0 + 1e-9)

    def test_quanta_nonnegative(self, heavy_comm_params, table4_profile):
        alloc = lp_allocation(table4_profile, heavy_comm_params, 20.0,
                              (3, 1, 0, 2), (0, 2, 3, 1))
        assert (alloc.w >= 0.0).all()

    def test_scales_linearly_with_lifespan(self, heavy_comm_params, table4_profile):
        a1 = lp_allocation(table4_profile, heavy_comm_params, 10.0,
                           (0, 1, 2, 3), (1, 0, 3, 2))
        a2 = lp_allocation(table4_profile, heavy_comm_params, 20.0,
                           (0, 1, 2, 3), (1, 0, 3, 2))
        assert a2.total_work == pytest.approx(2.0 * a1.total_work, rel=1e-7)

    def test_single_computer(self, paper_params):
        alloc = lp_allocation(Profile([1.0]), paper_params, 10.0, (0,), (0,))
        closed = fifo_allocation(Profile([1.0]), paper_params, 10.0)
        assert alloc.total_work == pytest.approx(closed.total_work, rel=1e-9)

    def test_rejects_bad_order(self, paper_params, table4_profile):
        with pytest.raises(ProtocolError):
            lp_allocation(table4_profile, paper_params, 10.0, (0, 1), (0, 1, 2, 3))

    def test_rejects_bad_lifespan(self, paper_params, table4_profile):
        with pytest.raises(ProtocolError):
            lp_allocation(table4_profile, paper_params, 0.0,
                          (0, 1, 2, 3), (0, 1, 2, 3))

    def test_separation_constraint_binds_under_saturation(self, table4_profile):
        # In a communication-dominated regime, disabling the separation
        # constraint can only increase (never decrease) the LP optimum.
        params = ModelParams(tau=0.2, pi=0.01, delta=1.0)
        order = (0, 1, 2, 3)
        with_sep = lp_allocation(table4_profile, params, 10.0, order, order,
                                 enforce_separation=True).total_work
        without = lp_allocation(table4_profile, params, 10.0, order, order,
                                enforce_separation=False).total_work
        assert without >= with_sep


class TestOverflowIsRefused:
    """Finite inputs whose arithmetic leaves the doubles are refused
    with a typed error, never answered with inf/NaN or a ValueError."""

    SIGMA, PHI = (0, 1, 2, 3), (3, 2, 1, 0)

    def test_constraint_coefficient_overflow(self):
        # B = 2e300 is finite, but B·ρ for ρ = 1e308 is not.
        with pytest.raises(InfeasibleScheduleError, match="overflowed"):
            lp_allocation(Profile([1e308, 0.5, 0.25, 0.2]),
                          ModelParams(tau=0.5, pi=1e300), 100.0,
                          self.SIGMA, self.PHI)

    def test_simplex_tableau_overflow(self):
        # At the largest double the linear solve's w is not finite, and
        # the simplex that takes over overflows its tableau.
        with pytest.raises(InfeasibleScheduleError, match="overflowed"):
            lp_allocation(Profile([1.0, 0.5, 0.25, 0.2]), PAPER_TABLE1,
                          sys.float_info.max, self.SIGMA, self.PHI)


class TestLpAllocationMany:
    def test_bit_identical_to_single_solves(self, heavy_comm_params,
                                            table4_profile, rng):
        pairs = [(tuple(rng.permutation(4).tolist()),
                  tuple(rng.permutation(4).tolist())) for _ in range(8)]
        batch = lp_allocation_many(table4_profile, heavy_comm_params, 20.0,
                                   pairs)
        assert len(batch) == len(pairs)
        for (sigma, phi), alloc in zip(pairs, batch):
            single = lp_allocation(table4_profile, heavy_comm_params, 20.0,
                                   sigma, phi)
            assert np.array_equal(alloc.w, single.w)
            assert alloc.startup_order == single.startup_order
            assert alloc.finishing_order == single.finishing_order

    def test_separation_flag_respected(self, table4_profile):
        params = ModelParams(tau=0.2, pi=0.01, delta=1.0)
        order = (0, 1, 2, 3)
        with_sep, = lp_allocation_many(table4_profile, params, 10.0,
                                       [(order, order)],
                                       enforce_separation=True)
        without, = lp_allocation_many(table4_profile, params, 10.0,
                                      [(order, order)],
                                      enforce_separation=False)
        assert without.total_work >= with_sep.total_work

    def test_empty_batch(self, paper_params, table4_profile):
        assert lp_allocation_many(table4_profile, paper_params, 10.0, []) == []

    def test_rejects_bad_order_in_batch(self, paper_params, table4_profile):
        with pytest.raises(ProtocolError):
            lp_allocation_many(table4_profile, paper_params, 10.0,
                               [((0, 1, 2, 3), (0, 1))])

    def test_rejects_bad_lifespan(self, paper_params, table4_profile):
        with pytest.raises(ProtocolError):
            lp_allocation_many(table4_profile, paper_params, -1.0,
                               [((0, 1, 2, 3), (0, 1, 2, 3))])


class TestGeneralProtocolClass:
    def test_labels_fifo_shapes(self, paper_params, table4_profile):
        proto = GeneralProtocol((0, 1, 2, 3), (0, 1, 2, 3))
        assert proto.allocate(table4_profile, paper_params, 5.0).protocol_name == "FIFO-LP"

    def test_labels_general_shapes(self, paper_params, table4_profile):
        proto = GeneralProtocol((0, 1, 2, 3), (3, 2, 1, 0))
        assert proto.allocate(table4_profile, paper_params, 5.0).protocol_name == "general-LP"
