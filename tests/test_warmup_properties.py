"""Property tests for the warm-up policy (the core scheduling rule).

Each example is a few float operations, so Hypothesis's default 200 ms
per-example deadline can only ever measure a host stall, and one stall
fails the test as flaky; the deadline is off, as in the repo's other
property tests.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.warmup import WarmupPolicy

timer = st.floats(min_value=1e-3, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
NO_DEADLINE = settings(deadline=None)


class TestPolicyProperties:
    @NO_DEADLINE
    @given(t_prom=timer, t_is=timer, t_ip=timer)
    def test_recommend_always_valid_when_feasible(self, t_prom, t_is, t_ip):
        assume(t_prom < min(t_is, t_ip) * 0.99)
        policy = WarmupPolicy(t_prom=t_prom, t_is=t_is, t_ip=t_ip)
        plan = policy.recommend()
        assert plan.valid
        assert plan.violations() == []

    @NO_DEADLINE
    @given(t_prom=timer, t_is=timer, t_ip=timer,
           dpre=timer, db=timer)
    def test_valid_iff_no_violations(self, t_prom, t_is, t_ip, dpre, db):
        policy = WarmupPolicy(t_prom=t_prom, t_is=t_is, t_ip=t_ip)
        plan = policy.plan(dpre=dpre, db=db)
        assert plan.valid == (plan.violations() == [])

    @NO_DEADLINE
    @given(t_prom=timer, t_is=timer, t_ip=timer)
    def test_recommended_dpre_between_bounds(self, t_prom, t_is, t_ip):
        assume(t_prom < min(t_is, t_ip) * 0.99)
        plan = WarmupPolicy(t_prom=t_prom, t_is=t_is, t_ip=t_ip).recommend()
        assert t_prom < plan.dpre < min(t_is, t_ip)
        assert 0 < plan.db < min(t_is, t_ip)

    @NO_DEADLINE
    @given(t_is=timer, t_ip=timer)
    def test_demotion_floor_is_min(self, t_is, t_ip):
        policy = WarmupPolicy(t_prom=1e-4, t_is=t_is, t_ip=t_ip)
        assert policy.plan().demotion_floor == min(t_is, t_ip)
