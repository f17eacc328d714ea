"""Tests for the parameter server and its sync client."""

import sys
import threading

import numpy as np
import pytest

from repro.distributed.parameter_server import (
    ParameterServer,
    SharedParameterClient,
)


class TestParameterServer:
    def test_register_pull(self):
        ps = ParameterServer()
        ps.register("w", np.asarray([1.0, 2.0]))
        np.testing.assert_allclose(ps.pull("w"), [1.0, 2.0])

    def test_register_idempotent_first_writer_wins(self):
        ps = ParameterServer()
        ps.register("w", np.asarray([1.0]))
        ps.register("w", np.asarray([9.0]))
        assert ps.pull("w")[0] == 1.0

    def test_push_delta_accumulates(self):
        ps = ParameterServer()
        ps.register("w", np.zeros(3))
        ps.push_delta("w", np.asarray([1.0, 0.0, -1.0]))
        ps.push_delta("w", np.asarray([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(ps.pull("w"), [2.0, 1.0, -1.0])

    def test_pull_returns_copy(self):
        ps = ParameterServer()
        ps.register("w", np.zeros(2))
        v = ps.pull("w")
        v += 100
        np.testing.assert_allclose(ps.pull("w"), [0.0, 0.0])

    def test_sharding_covers_all_names(self):
        ps = ParameterServer(num_shards=4)
        for i in range(20):
            ps.register(f"p{i}", np.zeros(1))
        assert len(ps.names()) == 20

    def test_stats(self):
        ps = ParameterServer()
        ps.register("w", np.zeros(4))
        ps.pull("w")
        ps.push_delta("w", np.ones(4))
        assert ps.stats.pulls == 1
        assert ps.stats.pushes == 1
        assert ps.stats.bytes_transferred == 2 * 4 * 8

    def test_concurrent_pushes_all_counted(self):
        """Additive deltas from many threads must all land."""
        ps = ParameterServer(num_shards=2)
        ps.register("w", np.zeros(1))

        def pusher():
            for _ in range(100):
                ps.push_delta("w", np.asarray([1.0]))

        threads = [threading.Thread(target=pusher) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ps.pull("w")[0] == 800.0


class TestSync:
    def test_sync_is_push_then_pull_per_name_counted_as_such(self):
        ps = ParameterServer(num_shards=2)
        ps.register("a", np.zeros(4))
        ps.register("b", np.ones(2))
        values = ps.sync({"a": np.full(4, 2.0), "b": None})
        np.testing.assert_array_equal(values["a"], np.full(4, 2.0))
        np.testing.assert_array_equal(values["b"], np.ones(2))
        assert ps.stats.pushes == 1 and ps.stats.pulls == 2
        assert ps.stats.bytes_transferred == (4 + 4 + 2) * 8
        values["a"] += 100  # answers are copies
        np.testing.assert_array_equal(ps.pull("a"), np.full(4, 2.0))

    def test_sync_of_nothing(self):
        assert ParameterServer().sync({}) == {}


class _CountingServer(ParameterServer):
    """Counts the calls that arrive from outside (a ``sync`` is built
    on ``push_delta``/``pull``, which must not count as round trips)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls: "list[str]" = []
        self._inside = threading.local()

    def _counted(self, name, *args):
        outermost = not getattr(self._inside, "busy", False)
        if outermost:
            self.calls.append(name)
            self._inside.busy = True
        try:
            return getattr(super(), name)(*args)
        finally:
            if outermost:
                self._inside.busy = False

    def register(self, *args):
        return self._counted("register", *args)

    def pull(self, *args):
        return self._counted("pull", *args)

    def push_delta(self, *args):
        return self._counted("push_delta", *args)

    def sync(self, *args):
        return self._counted("sync", *args)


class _FakeModel:
    """Local parameter holder for client tests."""

    def __init__(self, value):
        self.params = {"w": np.asarray(value, dtype=np.float64)}

    def get(self):
        return {k: v.copy() for k, v in self.params.items()}

    def set(self, params):
        for k, v in params.items():
            self.params[k] = v.copy()


class TestSharedParameterClient:
    def _client(self, server, model, interval=2):
        return SharedParameterClient(
            server, model.get, model.set, sync_interval=interval
        )

    def test_initial_sync_adopts_server_state(self):
        ps = ParameterServer()
        ps.register("w", np.asarray([5.0]))
        model = _FakeModel([1.0])
        client = self._client(ps, model)
        client.initial_sync()
        assert model.params["w"][0] == 5.0

    def test_sync_interval_throttles(self):
        ps = ParameterServer()
        model = _FakeModel([0.0])
        client = self._client(ps, model, interval=3)
        client.initial_sync()
        assert not client.maybe_sync()
        assert not client.maybe_sync()
        assert client.maybe_sync()
        assert client.syncs == 1

    def test_force_sync(self):
        ps = ParameterServer()
        model = _FakeModel([0.0])
        client = self._client(ps, model, interval=100)
        client.initial_sync()
        assert client.maybe_sync(force=True)

    def test_local_deltas_propagate(self):
        ps = ParameterServer()
        m1, m2 = _FakeModel([0.0]), _FakeModel([0.0])
        c1 = self._client(ps, m1, interval=1)
        c2 = self._client(ps, m2, interval=1)
        c1.initial_sync()
        c2.initial_sync()
        m1.params["w"][0] += 2.0
        c1.maybe_sync()
        c2.maybe_sync()
        assert m2.params["w"][0] == 2.0

    def test_concurrent_deltas_sum(self):
        """Two clients pushing disjoint progress both contribute."""
        ps = ParameterServer()
        m1, m2 = _FakeModel([0.0]), _FakeModel([0.0])
        c1 = self._client(ps, m1, interval=1)
        c2 = self._client(ps, m2, interval=1)
        c1.initial_sync()
        c2.initial_sync()
        m1.params["w"][0] += 1.0
        m2.params["w"][0] += 10.0
        c1.maybe_sync()
        c2.maybe_sync()
        # c2's sync saw c1's push plus its own delta.
        assert m2.params["w"][0] == 11.0
        c1.maybe_sync()
        assert m1.params["w"][0] == 11.0

    def test_no_push_when_unchanged(self):
        ps = ParameterServer()
        model = _FakeModel([1.0])
        client = self._client(ps, model, interval=1)
        client.initial_sync()
        before = ps.stats.pushes
        client.maybe_sync()
        assert ps.stats.pushes == before

    def test_one_server_call_per_sync(self):
        """However many parameters: through a manager proxy every call
        is a round trip on the training thread."""
        ps = _CountingServer(2)
        model = _FakeModel([0.0])
        model.params.update({f"r{i}": np.zeros(64) for i in range(20)})
        client = self._client(ps, model, interval=1)
        client.initial_sync()
        assert ps.calls == ["register"] * 21 + ["sync"]
        ps.calls.clear()
        for i in range(5):
            model.params[f"r{i}"] += 1.0
            assert client.maybe_sync()
        assert ps.calls == ["sync"] * 5
        assert ps.stats.pushes == 5 and ps.stats.pulls == 21 * 6

    def test_concurrent_clients_lose_no_delta(self):
        ps = ParameterServer(num_shards=2)
        rounds, clients = 200, 4
        models = [_FakeModel(np.zeros(8)) for _ in range(clients)]
        syncers = [self._client(ps, m, interval=1) for m in models]
        for c in syncers:
            c.initial_sync()

        def train(model, client, step):
            for _ in range(rounds):
                model.params["w"] += step
                client.maybe_sync()

        threads = [
            threading.Thread(target=train, args=(m, c, float(i + 1)))
            for i, (m, c) in enumerate(zip(models, syncers))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more, and less lucky, interleavings
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = rounds * sum(range(1, clients + 1))
        np.testing.assert_array_equal(ps.pull("w"), np.full(8, float(total)))
        for m, c in zip(models, syncers):
            c.maybe_sync()
            np.testing.assert_array_equal(m.params["w"], ps.pull("w"))

    def test_invalid_interval(self):
        ps = ParameterServer()
        model = _FakeModel([0.0])
        with pytest.raises(ValueError):
            SharedParameterClient(ps, model.get, model.set, sync_interval=0)
