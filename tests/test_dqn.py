"""DQN components: network and gradients, action selection law, reward,
TD targets, SGD updates, replay memory, target sync, and the training loop."""

import numpy as np
import pytest

from agcsim.dqn import (ActionTable, DqnController, HyperParams, QNetwork,
                        ReplayMemory, Transition, batch_targets,
                        load_checkpoint, loss_and_grads, observation,
                        save_checkpoint, select_action, sync_target,
                        train, train_step, write_training_log)
from agcsim.errors import StructuralError
from agcsim.harness import control_reward, step_penalty
from agcsim.dynamics import AreaParams, LfcModel, TieTopology, \
    two_area_benchmark
from agcsim.scenario import Scenario


def td_target(transition, target_net, gamma):
    """Oracle: r + gamma * max_a' Q'(s', a') for one transition; r alone at
    terminal."""
    if not 0.0 <= gamma < 1.0:
        raise StructuralError("gamma must lie in [0, 1)")
    if transition.terminal:
        return transition.reward
    return transition.reward + gamma * float(
        np.max(target_net.forward(transition.next_state)))


def td_error(transition, online_net, target_net, gamma):
    """Oracle: td_target minus the online estimate Q(s, a)."""
    q = float(online_net.forward(transition.state)[transition.action])
    return td_target(transition, target_net, gamma) - q


def small_net(seed=0, sizes=(4, 8, 5)):
    return QNetwork(list(sizes), np.random.default_rng(seed))


class TestQNetwork:
    def test_zero_weights_zero_output(self):
        net = QNetwork([4, 8, 5])  # no rng: zero initialization
        out = net.forward(np.ones(4))
        assert np.all(out == 0)

    def test_identity_linear_layer(self):
        net = QNetwork([4, 4])
        net.weights[0] = np.eye(4)
        s = np.array([0.1, -0.2, 0.3, 0.0])
        assert np.array_equal(net.forward(s), s)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            small_net().forward(np.ones(3))

    def test_batch_matches_single(self):
        net = small_net(3)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(6, 4))
        out = net.forward(batch)
        for k in range(6):
            assert np.allclose(out[k], net.forward(batch[k]), atol=1e-15)

    def test_gradients_match_finite_differences(self):
        net = small_net(5)
        rng = np.random.default_rng(6)
        states = rng.normal(size=(3, 4))
        actions = np.array([0, 2, 4])
        targets = rng.normal(size=3)
        _, gw, gb = loss_and_grads(net, states, actions, targets)

        def loss_of(net):
            loss, _, _ = loss_and_grads(net, states, actions, targets)
            return loss

        eps = 1e-5
        for layer in range(len(net.weights)):
            for arr, grad in ((net.weights[layer], gw[layer]),
                              (net.biases[layer], gb[layer])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + eps
                    hi = loss_of(net)
                    arr[ix] = orig - eps
                    lo = loss_of(net)
                    arr[ix] = orig
                    fd = (hi - lo) / (2 * eps)
                    scale = max(abs(fd), abs(grad[ix]), 1e-8)
                    assert abs(fd - grad[ix]) / scale < 1e-4


class TestActionTable:
    def test_bijective_mapping(self):
        table = ActionTable(2, levels=7, span=0.1)
        assert table.size == 49
        seen = set()
        for idx in range(table.size):
            seen.add(tuple(table.commands(idx)))
        assert len(seen) == 49

    def test_levels_span(self):
        table = ActionTable(1, levels=7, span=0.1)
        assert table.commands(0)[0] == -0.1
        assert table.commands(6)[0] == 0.1
        assert table.commands(3)[0] == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(StructuralError):
            ActionTable(2).commands(49)


class TestSelectAction:
    def test_greedy_limit(self):
        q = np.array([0.1, 0.5, 0.3])
        for _ in range(10):
            assert select_action(q, 0.0) == 1

    def test_greedy_tie_breaks_low(self):
        q = np.array([0.5, 0.5, 0.1])
        assert select_action(q, 0.0) == 0

    def test_uniform_at_full_exploration(self):
        q = np.array([0.0, 10.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            counts[select_action(q, 1.0, rng)] += 1
        p = 1 / 4
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_probability_law(self, eps):
        q = np.array([0.0, 10.0, 0.0, 0.0])  # greedy action = 1
        rng = np.random.default_rng(42)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[select_action(q, eps, rng)] += 1
        size = 4
        for a in range(size):
            p = (1 - eps + eps / size) if a == 1 else eps / size
            sigma = np.sqrt(n * p * (1 - p)) if 0 < p < 1 else 0.0
            assert abs(counts[a] - n * p) <= 3 * sigma + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            select_action(np.array([]), 0.0)


class TestReward:
    def test_zero_at_equilibrium(self):
        m = two_area_benchmark()
        assert control_reward(m, m.zero_state(), 0.1) == 0.0

    def test_single_area_arithmetic(self):
        m = LfcModel([AreaParams()], TieTopology(1))
        s = m.zero_state()
        s[0] = 0.1
        # Single area has no tie flow; add one by hand via a 2-area grid
        # with the second area at rest and an explicit tie state.
        m2 = two_area_benchmark()
        s2 = m2.zero_state()
        s2[0] = 0.1
        s2[6] = 0.05
        r_area1 = (0.425 * 0.1) ** 2 + 0.05 ** 2
        r_area2 = 0.0 + (-0.05) ** 2
        assert control_reward(m2, s2, 0.01) == pytest.approx(
            -0.01 * (r_area1 + r_area2), abs=1e-15)
        # And the bare single-area value from the stated arithmetic:
        assert -0.01 * ((0.425 * 0.1) ** 2 + 0.05 ** 2) == \
            pytest.approx(-4.30625e-5, abs=1e-12)

    def test_symmetric_areas_double(self):
        m = two_area_benchmark()
        s = m.zero_state()
        s[0], s[1] = 0.1, -0.1
        s[6] = 0.05
        single = (0.425 * 0.1) ** 2 + 0.05 ** 2
        assert control_reward(m, s, 0.1) == pytest.approx(-0.1 * 2 * single,
                                                          abs=1e-15)

    def test_non_positive(self):
        m = two_area_benchmark()
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = rng.normal(0, 0.1, m.dim)
            r = control_reward(m, s, 0.1)
            assert r <= 0
        # Equality only at zero frequency and tie deviations.
        s = m.zero_state()
        s[3] = 0.5  # mechanical power deviation is not penalized
        assert control_reward(m, s, 0.1) == 0.0
        s[0] = 1e-8
        assert control_reward(m, s, 0.1) < 0


def make_transition(r=0.0, terminal=False, seed=0):
    rng = np.random.default_rng(seed)
    return Transition(rng.normal(size=4), 1, r, rng.normal(size=4), terminal)


class TestTdTarget:
    def test_myopic_limit(self):
        tr = make_transition(r=-0.3)
        net = small_net(1)
        assert td_target(tr, net, 0.0) == -0.3

    def test_bootstrap_arithmetic(self):
        tr = make_transition(r=0.0)
        net = QNetwork([4, 5])
        net.biases[0][:] = [0.2, 1.0, -0.5, 0.0, 0.3]
        net.weights[0][:] = 0.0
        assert td_target(tr, net, 0.99) == pytest.approx(0.99, abs=1e-15)

    def test_terminal_cuts_bootstrap(self):
        tr = make_transition(r=-0.5, terminal=True)
        net = QNetwork([4, 5])
        net.biases[0][:] = 1e6
        assert td_target(tr, net, 0.99) == -0.5

    def test_td_error(self):
        tr = make_transition(r=0.1)
        online = small_net(2)
        target = small_net(3)
        expect = td_target(tr, target, 0.9) - online.forward(tr.state)[1]
        assert td_error(tr, online, target, 0.9) == pytest.approx(expect,
                                                                  abs=1e-12)

    def test_staleness_between_syncs(self):
        # Targets depend only on the target net: mutating the online net
        # must not move them.
        tr = make_transition(r=0.2)
        online = small_net(4)
        target = online.copy()
        before = td_target(tr, target, 0.95)
        online.weights[0] += 1.0
        assert td_target(tr, target, 0.95) == before


class TestTrainStep:
    def _batch(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        return [Transition(rng.normal(size=4), int(rng.integers(5)),
                           float(rng.normal()), rng.normal(size=4), False)
                for _ in range(n)]

    def test_zero_rate_is_noop_but_reports_loss(self):
        net = small_net(7)
        target = net.copy()
        before_w = [w.copy() for w in net.weights]
        loss = train_step(net, target, self._batch(), 0.0, 0.9)
        assert loss > 0
        for w, ref in zip(net.weights, before_w):
            assert np.array_equal(w, ref)

    def test_fixed_batch_loss_non_increasing(self):
        net = small_net(8)
        target = net.copy()
        batch = self._batch(seed=3)
        losses = [train_step(net, target, batch, 1e-3, 0.9)
                  for _ in range(100)]
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_single_linear_step_moves_toward_target(self):
        net = QNetwork([2, 3])
        net.weights[0][:] = np.array([[0.5, -0.2, 0.1], [0.3, 0.0, -0.4]])
        target_net = net.copy()
        tr = Transition(np.array([1.0, -1.0]), 2, 1.0,
                        np.zeros(2), True)
        gamma = 0.9
        before = abs(td_error(tr, net, target_net, gamma))
        train_step(net, target_net, [tr], 1e-2, gamma)
        after = abs(td_error(tr, net, target_net, gamma))
        assert after < before

    def test_empty_batch_rejected(self):
        net = small_net()
        with pytest.raises(StructuralError):
            train_step(net, net.copy(), [], 1e-3, 0.9)


class TestReplayMemory:
    def test_capacity_and_eviction(self):
        mem = ReplayMemory(capacity=3)
        for k in range(5):
            mem.push(Transition(np.array([float(k)]), 0, 0.0,
                                np.array([0.0]), False))
        assert len(mem) == 3
        stored = sorted(mem._s[:3, 0])
        assert stored == [2.0, 3.0, 4.0]  # oldest-first eviction

    def test_uniform_sampling(self):
        mem = ReplayMemory(capacity=100)
        for k in range(100):
            mem.push(Transition(np.array([float(k)]), 0, 0.0,
                                np.array([0.0]), False))
        rng = np.random.default_rng(0)
        idx = mem.sample_indices(1_000_000, rng)
        counts = np.bincount(idx, minlength=100)
        n, p = 1_000_000, 0.01
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 5 * sigma)

    def test_empty_sample_rejected(self):
        with pytest.raises(StructuralError):
            ReplayMemory(8).sample(4, np.random.default_rng(0))


class TestSyncTarget:
    def test_copy_semantics(self):
        online = small_net(10)
        target = small_net(11)
        sync_target(online, target)
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.normal(size=4)
            assert np.array_equal(online.forward(x), target.forward(x))
        # After sync the copies are independent.
        online.weights[0] += 1.0
        assert not np.array_equal(online.weights[0], target.weights[0])

    def test_initial_target_equals_online(self):
        online = small_net(13)
        target = online.copy()
        x = np.ones(4)
        assert np.array_equal(online.forward(x), target.forward(x))


class TestTraining:
    def _scenario(self):
        return Scenario(horizon=2.0, control_period=0.1, plant_step=0.01)

    def _hyper(self):
        return HyperParams(batch_size=8, hidden=(8,), levels=3)

    def test_zero_episodes(self):
        net, log = train(self._scenario(), self._hyper(), episodes=0, seed=1)
        assert log == []
        assert net.out_dim == 9

    def test_same_seed_bit_identical(self):
        net1, log1 = train(self._scenario(), self._hyper(), episodes=3, seed=5)
        net2, log2 = train(self._scenario(), self._hyper(), episodes=3, seed=5)
        assert log1 == log2
        for w1, w2 in zip(net1.weights, net2.weights):
            assert np.array_equal(w1, w2)

    def test_different_seed_differs(self):
        net1, _ = train(self._scenario(), self._hyper(), episodes=2, seed=5)
        net2, _ = train(self._scenario(), self._hyper(), episodes=2, seed=6)
        assert any(not np.array_equal(w1, w2)
                   for w1, w2 in zip(net1.weights, net2.weights))

    def test_log_schema(self):
        _, log = train(self._scenario(), self._hyper(), episodes=2, seed=0)
        assert [row["episode"] for row in log] == [0, 1]
        for row in log:
            assert row["return"] <= 0
            assert 0 <= row["epsilon"] <= 1

    def test_log_csv(self, tmp_path):
        _, log = train(self._scenario(), self._hyper(), episodes=2, seed=0)
        path = tmp_path / "log.csv"
        write_training_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,return,epsilon,loss_mean"
        assert len(lines) == 3


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net(20, sizes=(4, 8, 9))
        table = ActionTable(2, levels=3, span=0.1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, table, path)
        net2, table2, scale2 = load_checkpoint(path)
        for w1, w2 in zip(net.weights, net2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(net.biases, net2.biases):
            assert np.array_equal(b1, b2)
        assert table2.levels == 3 and table2.n_areas == 2

    def test_deterministic_bytes(self, tmp_path):
        net = small_net(21, sizes=(4, 8, 9))
        table = ActionTable(2, levels=3, span=0.1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, table, p1)
        save_checkpoint(net, table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not-a-checkpoint 1\n")
        with pytest.raises(StructuralError):
            load_checkpoint(path)


class TestDqnController:
    def test_greedy_deployment(self):
        table = ActionTable(2, levels=3, span=0.1)
        net = QNetwork([4, 9])
        net.biases[0][4] = 1.0  # make action 4 the argmax
        ctrl = DqnController(net, table)
        from agcsim.attacks import MeasurementFrame
        f = MeasurementFrame(np.zeros(2), np.zeros(2), 0.0)
        assert np.array_equal(ctrl.observe(f), table.commands(4))

    def test_observation_layout(self):
        from agcsim.attacks import MeasurementFrame
        f = MeasurementFrame(np.array([0.1, 0.2]), np.array([0.3, -0.3]), 0.0)
        assert np.array_equal(observation(f), [0.1, 0.2, 0.3, -0.3])
