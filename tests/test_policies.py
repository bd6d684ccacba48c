"""Decision-rule tests: clipping semantics, the per-slot erasure estimator,
the cautious-ramp branch structure of the learning rule, and the factory."""

import numpy as np
import pytest

from adaptnc import (
    ChannelModel,
    ConfigError,
    ConservativePolicy,
    GreedyPolicy,
    LearningPolicy,
    OptimalPolicy,
    PolicyTable,
    RetransmissionPolicy,
    RngSpec,
    VarianceConstrainedPolicy,
    completion_second_moment,
    make_policy,
    monte_carlo_throughput,
    simulate_frame,
    solve_monotone,
)


def fake_table(k_star):
    """Hand-built plan table for exercising decision branches in isolation."""
    k = np.asarray(k_star, dtype=int)
    return PolicyTable(k_star=k, k_greedy=k.copy(), value=np.zeros(len(k)))


class TestClipping:
    def test_backlog_clips_the_plan(self):
        policy = OptimalPolicy(fake_table([0, 1, 1, 2, 2, 3]))
        assert policy.decide(5, 2) == 2

    def test_slots_clip_the_plan(self):
        policy = OptimalPolicy(fake_table([0, 3, 3, 3]))
        assert policy.decide(1, 10) == 1
        # both engines read the one clipped plan
        assert policy.plan.tolist() == [0, 1, 2, 3]
        assert policy.decision_vector(3).tolist() == [0, 1, 2, 3]
        assert not policy.plan.flags.writeable

    def test_retransmission_is_always_one(self):
        policy = RetransmissionPolicy(9)
        assert policy.decide(9, 7) == 1
        assert policy.decide(1, 1) == 1

    def test_single_receiver_table_decides_one(self):
        policy = OptimalPolicy(solve_monotone(3, ChannelModel.homogeneous(0.5, 1)))
        assert policy.decide(3, 10) == 1

    def test_zero_on_empty_state(self):
        for policy in (
            OptimalPolicy(fake_table([0, 2, 2])),
            RetransmissionPolicy(2),
            ConservativePolicy(ChannelModel.homogeneous(0.3, 2), 5),
        ):
            assert policy.decide(0, 5) == 0
            assert policy.decide(2, 0) == 0

    def test_decision_bounds_everywhere(self):
        table = solve_monotone(10, ChannelModel.homogeneous(0.2, 5))
        policies = [
            OptimalPolicy(table),
            GreedyPolicy(table),
            ConservativePolicy(ChannelModel.homogeneous(0.2, 5), 10),
            RetransmissionPolicy(10),
        ]
        for policy in policies:
            for t in range(1, 11):
                for m in range(1, 13):
                    d = policy.decide(t, m)
                    assert 1 <= d <= min(t, m), (policy.name, t, m)


class TestFrameLongerThanPlan:
    """A plan built to horizon 3 played on a 5-slot frame: the per-frame
    and batch engines raise the same error, naming both horizons."""

    @pytest.mark.parametrize("build", [
        lambda ch: OptimalPolicy(solve_monotone(3, ch)),
        lambda ch: RetransmissionPolicy(3),
    ])
    def test_both_engines_raise_config_error(self, build):
        ch = ChannelModel.homogeneous(0.3, 2)
        policy = build(ch)
        want = f"{policy.name} plan built to horizon 3, frame needs 5"
        with pytest.raises(ConfigError, match=want):
            simulate_frame(policy, 5, 5, ch, RngSpec(3, 0))
        with pytest.raises(ConfigError, match=want):
            monte_carlo_throughput(policy, 5, 5, ch, 4, RngSpec(3, 0))
        with pytest.raises(ConfigError, match=want):
            policy.decide(5, 1)
        assert policy.decide(3, 5) == 1

    @pytest.mark.parametrize("build", [
        lambda ch: OptimalPolicy(solve_monotone(3, ch)),
        lambda ch: RetransmissionPolicy(3),
        lambda ch: LearningPolicy(2, 3),
    ])
    def test_both_engines_raise_at_backlog_zero(self, build):
        # an empty backlog takes no decision, yet the frame still overruns
        ch = ChannelModel.homogeneous(0.3, 2)
        policy = build(ch)
        want = f"{policy.name} plan built to horizon 3, frame needs 5"
        with pytest.raises(ConfigError, match=want):
            simulate_frame(policy, 5, 0, ch, RngSpec(3, 0))
        with pytest.raises(ConfigError, match=want):
            monte_carlo_throughput(policy, 5, 0, ch, 4, RngSpec(3, 0))
        assert simulate_frame(policy, 3, 0, ch, RngSpec(3, 0)).delivered == 0


class TestDecisionVectors:
    def test_table_vector_matches_column(self):
        table = solve_monotone(8, ChannelModel.homogeneous(0.3, 4))
        assert (OptimalPolicy(table).decision_vector(8) == table.k_star).all()
        assert (GreedyPolicy(table).decision_vector(8) == table.k_greedy).all()
        assert (OptimalPolicy(table).decision_vector(5) == table.k_star[:6]).all()

    def test_retransmission_vector(self):
        vec = RetransmissionPolicy(6).decision_vector(4)
        assert vec.tolist() == [0, 1, 1, 1, 1]

    def test_conservative_vector_matches_decisions(self):
        policy = ConservativePolicy(ChannelModel.homogeneous(0.3, 3), 8)
        vec = policy.decision_vector(8)
        assert vec[0] == 0
        for t in range(1, 9):
            assert policy.decide(t, 100) == min(vec[t], t)

    def test_negative_horizon_rejected(self):
        ch = ChannelModel.homogeneous(0.3, 2)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            ConservativePolicy(ch, -1)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            VarianceConstrainedPolicy(ch, -2, sigma2=5.0)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            LearningPolicy(2, -1)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            RetransmissionPolicy(-1)

    def test_conservative_build_evaluates_each_moment_once(self, monkeypatch):
        from adaptnc import decoding

        series = decoding._shortfall_series
        blocks = []

        def counted(block, channel, weighted):
            blocks.append(block)
            return series(block, channel, weighted)

        monkeypatch.setattr(decoding, "_shortfall_series", counted)
        policy = ConservativePolicy(ChannelModel.homogeneous(0.4, 5), 50)
        assert len(blocks) == len(set(blocks))
        # every block the plan commits, and one more, had its mean evaluated
        assert blocks == list(range(1, int(policy.plan.max()) + 2))

    def test_horizon_overrun_rejected(self):
        table = solve_monotone(5, ChannelModel.homogeneous(0.3, 4))
        with pytest.raises(ConfigError):
            OptimalPolicy(table).decision_vector(6)
        with pytest.raises(ConfigError):
            ConservativePolicy(ChannelModel.homogeneous(0.3, 2), 5).decision_vector(9)
        with pytest.raises(ConfigError):
            RetransmissionPolicy(5).decision_vector(6)

    def test_missing_table_rejected(self):
        with pytest.raises(ConfigError):
            OptimalPolicy(None)

    def test_learner_has_no_fixed_plan(self):
        with pytest.raises(ConfigError, match="learning policy has no fixed plan"):
            LearningPolicy(2, 5).decision_vector(5)


class TestLearnerState:
    """The learning policy's running erasure estimate, fed by observe_slot."""

    def test_all_received_pulls_estimate_down(self):
        learner = LearningPolicy(n_receivers=10, horizon=5, eps_init=0.5)
        learner.observe_slot(10, 10)
        assert learner.eps_hat == pytest.approx(0.25)  # (1*0.5 + 0.0) / 2
        assert learner.eps_hat_prev == 0.5
        assert learner.slots_observed == 1

    def test_single_slot_average(self):
        # one pseudo-sample at 0.5 plus one observed loss ratio of 0.8
        learner = LearningPolicy(n_receivers=10, horizon=5, eps_init=0.5)
        learner.observe_slot(2, 10)
        assert learner.eps_hat == pytest.approx(0.65, abs=1e-15)

    def test_constant_rate_converges_to_loss_ratio(self):
        learner = LearningPolicy(n_receivers=10, horizon=5, eps_init=0.5)
        for k in range(1, 101):
            learner.observe_slot(7, 10)
            want = (0.5 + k * 0.3) / (k + 1)
            assert learner.eps_hat == pytest.approx(want, abs=1e-12)
        assert abs(learner.eps_hat - 0.3) < 0.002

    def test_rejects_bad_counts(self):
        learner = LearningPolicy(n_receivers=10, horizon=5, eps_init=0.5)
        with pytest.raises(ValueError):
            learner.observe_slot(11, 10)
        with pytest.raises(ValueError):
            learner.observe_slot(-1, 10)

    def test_rejects_a_channel_of_another_size(self):
        learner = LearningPolicy(n_receivers=2, horizon=10)
        with pytest.raises(ValueError, match="plans for 2 receivers, the channel has 8"):
            learner.observe_slot(5, 8)
        assert learner.slots_observed == 0


class TestLearningPolicyBranches:
    def make_ramping(self, planned_k, prev, delta=0.05):
        """Policy with a forced plan table, a moving estimate, and history."""
        policy = LearningPolicy(n_receivers=10, horizon=10, delta=delta)
        eps_key = round(policy.eps_hat / 0.001) * 0.001
        policy._tables[eps_key] = fake_table([planned_k] * 11)
        policy.last_block = prev
        policy.eps_hat_prev = policy.eps_hat + 2 * delta + 0.01
        return policy

    def test_first_decision_is_one_packet(self):
        policy = LearningPolicy(n_receivers=5, horizon=10)
        assert policy.decide(10, 10) == 1

    def test_ramp_steps_up_by_at_most_one(self):
        assert self.make_ramping(planned_k=5, prev=2).decide(10, 10) == 3

    def test_ramp_keeps_matching_plan(self):
        assert self.make_ramping(planned_k=2, prev=2).decide(10, 10) == 2

    def test_ramp_never_drops_below_previous(self):
        assert self.make_ramping(planned_k=1, prev=2).decide(10, 10) == 2

    def test_stable_estimate_follows_plan(self):
        policy = self.make_ramping(planned_k=5, prev=2)
        policy.eps_hat_prev = policy.eps_hat  # settled
        assert policy.decide(10, 10) == 5

    def test_ramp_respects_slot_and_backlog_clip(self):
        policy = self.make_ramping(planned_k=5, prev=4)
        assert policy.decide(3, 10) == 3
        policy = self.make_ramping(planned_k=5, prev=4)
        assert policy.decide(10, 2) == 2

    def test_decision_log_records_ramp_flag(self):
        policy = self.make_ramping(planned_k=5, prev=2)
        policy.decide(10, 10)
        assert policy.decision_log == [(10, 3, True)]

    def test_reset_clears_run_state(self):
        policy = self.make_ramping(planned_k=5, prev=2)
        policy.decide(10, 10)
        policy.observe_slot(3, 10)
        policy.reset()
        assert policy.eps_hat == policy.eps_hat_prev == policy.eps_init
        assert policy.slots_observed == 0
        assert policy.last_block is None
        assert policy.decision_log == []

    def test_frame_overrun_rejected(self):
        policy = LearningPolicy(n_receivers=2, horizon=5)
        with pytest.raises(ConfigError, match="horizon 5, frame needs 6"):
            policy.decide(6, 3)


class TestLearningPolicyBehavior:
    def test_noiseless_estimate_reduces_to_optimal(self):
        # feed the exact per-slot loss ratio: the estimate never moves, so
        # after the forced first packet every decision matches the plan
        # solved for the true erasure rate
        true_eps, n = 0.3, 10
        policy = LearningPolicy(n_receivers=n, horizon=10, delta=0.0, eps_init=true_eps)
        optimal = OptimalPolicy(solve_monotone(10, ChannelModel.homogeneous(true_eps, n)))
        for _ in range(5):
            policy.observe_slot(7, n)  # loss ratio exactly 0.3
        assert policy.eps_hat == policy.eps_hat_prev
        policy.last_block = 1  # past the first-ever block
        for t in range(1, 11):
            assert policy.decide(t, 100) == optimal.decide(t, 100), t

    def test_estimator_concentration(self):
        # ten thousand observed slots pin the estimate to the truth within
        # three binomial standard deviations
        true_eps, n = 0.3, 10
        frames, horizon = 100, 100
        policy = LearningPolicy(n_receivers=n, horizon=horizon, delta=0.05)
        gen = np.random.default_rng(411)
        for _ in range(frames * horizon):
            policy.observe_slot(int(gen.binomial(n, 1.0 - true_eps)), n)
        bound = 3.0 * np.sqrt(true_eps * (1 - true_eps) / (n * frames * horizon))
        assert abs(policy.eps_hat - true_eps) < bound + 1e-4

    def test_plan_tables_are_cached(self):
        policy = LearningPolicy(n_receivers=3, horizon=6)
        first = policy.planned_table()
        assert policy.planned_table() is first
        # nudging the estimate within half a grid step reuses the same table
        policy.eps_hat += 0.0004
        assert policy.planned_table() is first

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            LearningPolicy(n_receivers=2, horizon=5, delta=-0.1)
        with pytest.raises(ConfigError):
            LearningPolicy(n_receivers=2, horizon=5, eps_init=1.5)
        with pytest.raises(ConfigError, match="delta"):
            LearningPolicy(n_receivers=2, horizon=5, delta=float("nan"))
        with pytest.raises(ConfigError, match="eps_init"):
            LearningPolicy(n_receivers=2, horizon=5, eps_init=float("nan"))

    def test_rejects_zero_receivers(self):
        with pytest.raises(ConfigError, match="receivers must be >= 1, got 0"):
            LearningPolicy(n_receivers=0, horizon=5)


class TestVarianceConstrainedPolicy:
    def test_cap_matches_moment_scan(self):
        ch = ChannelModel.homogeneous(0.5, 1)
        policy = VarianceConstrainedPolicy(ch, 10, sigma2=6.5)
        assert completion_second_moment(1, ch) < 6.5 <= completion_second_moment(2, ch)
        assert policy.k_cap == 1
        assert (policy.table.k_star[1:] == 1).all()

    def test_huge_budget_reproduces_unconstrained_plan(self):
        ch = ChannelModel.homogeneous(0.1, 5)
        unconstrained = solve_monotone(10, ch)
        policy = VarianceConstrainedPolicy(ch, 10, sigma2=1e9)
        assert (policy.table.k_star == unconstrained.k_star).all()
        assert np.allclose(policy.table.value, unconstrained.value, atol=1e-12)

    def test_hopeless_budget_still_transmits(self):
        policy = VarianceConstrainedPolicy(ChannelModel.homogeneous(0.4, 3), 8, sigma2=0.5)
        assert policy.k_cap == 0
        assert policy.decide(8, 10) == 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            VarianceConstrainedPolicy(ChannelModel.homogeneous(0.4, 3), 8, sigma2=0.0)
        with pytest.raises(ConfigError, match="sigma2"):
            VarianceConstrainedPolicy(ChannelModel.homogeneous(0.4, 3), 8, sigma2=float("nan"))


class TestMakePolicy:
    def test_builds_every_kind(self):
        ch = ChannelModel.homogeneous(0.3, 4)
        kinds = {
            "optimal": OptimalPolicy,
            "greedy": GreedyPolicy,
            "conservative": ConservativePolicy,
            "retransmission": RetransmissionPolicy,
            "variance": VarianceConstrainedPolicy,
            "learning": LearningPolicy,
        }
        for kind, cls in kinds.items():
            policy = make_policy(kind, ch, 6, sigma2=50.0)
            assert isinstance(policy, cls), kind
            assert policy.name == kind

    def test_variance_requires_budget(self):
        with pytest.raises(ConfigError):
            make_policy("variance", ChannelModel.homogeneous(0.3, 4), 6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("oracle", ChannelModel.homogeneous(0.3, 4), 6)
