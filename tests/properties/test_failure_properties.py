"""Property-based tests for failure injection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.faults.models import PermanentCrash
from repro.faults.spec import FaultScenario
from repro.protocols.fifo import fifo_allocation
from repro.simulation.runner import simulate_allocation

PARAMS = ModelParams(tau=0.01, pi=0.001, delta=1.0)

def _crashes(times: dict[int, float]) -> FaultScenario:
    """Computer ``c`` crashes permanently at ``times[c]``."""
    return FaultScenario(faults=tuple(PermanentCrash(c, t)
                                      for c, t in times.items()))


profiles = st.lists(st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
                    min_size=2, max_size=6)


@given(rhos=profiles, data=st.data())
@settings(max_examples=60, deadline=None)
def test_more_failures_never_help(rhos, data):
    """Under the skip policy, adding a failure cannot increase output."""
    profile = Profile(rhos)
    alloc = fifo_allocation(profile, PARAMS, 50.0)
    n = profile.n
    subset_size = data.draw(st.integers(0, n - 1))
    victims = data.draw(st.permutations(range(n)))[:subset_size]
    extra = data.draw(st.integers(0, n - 1))
    times = {c: data.draw(st.floats(min_value=0.0, max_value=50.0))
             for c in victims}
    base = simulate_allocation(alloc, faults=_crashes(times),
                               skip_failed_results=True).completed_work
    with_extra = dict(times)
    with_extra.setdefault(extra, data.draw(st.floats(min_value=0.0, max_value=50.0)))
    more = simulate_allocation(alloc, faults=_crashes(with_extra),
                               skip_failed_results=True).completed_work
    assert more <= base * (1.0 + 1e-12)


@given(rhos=profiles, data=st.data())
@settings(max_examples=60, deadline=None)
def test_skip_policy_never_worse_than_strict(rhos, data):
    profile = Profile(rhos)
    alloc = fifo_allocation(profile, PARAMS, 50.0)
    victim = data.draw(st.integers(0, profile.n - 1))
    t = data.draw(st.floats(min_value=0.0, max_value=50.0))
    strict = simulate_allocation(
        alloc, faults=_crashes({victim: t})).completed_work
    skipping = simulate_allocation(alloc, faults=_crashes({victim: t}),
                                   skip_failed_results=True).completed_work
    assert skipping >= strict - 1e-12


@given(rhos=profiles, data=st.data())
@settings(max_examples=60, deadline=None)
def test_later_failures_never_worse(rhos, data):
    """Delaying a single failure cannot reduce completed work (skip policy)."""
    profile = Profile(rhos)
    alloc = fifo_allocation(profile, PARAMS, 50.0)
    victim = data.draw(st.integers(0, profile.n - 1))
    t1 = data.draw(st.floats(min_value=0.0, max_value=25.0))
    t2 = data.draw(st.floats(min_value=float(t1), max_value=50.0))
    early = simulate_allocation(alloc, faults=_crashes({victim: t1}),
                                skip_failed_results=True).completed_work
    late = simulate_allocation(alloc, faults=_crashes({victim: t2}),
                               skip_failed_results=True).completed_work
    assert late >= early - 1e-12


@given(rhos=profiles)
@settings(max_examples=40, deadline=None)
def test_failure_free_run_matches_plain_run(rhos):
    profile = Profile(rhos)
    alloc = fifo_allocation(profile, PARAMS, 50.0)
    plain = simulate_allocation(alloc).completed_work
    empty = simulate_allocation(alloc, faults=_crashes({})).completed_work
    assert plain == empty
