"""Unit tests for resettable and periodic timers."""

from __future__ import annotations

import pytest

from repro.sim import Engine, PeriodicTimer, Timer


class TestTimer:
    def test_fires_after_timeout(self, engine):
        fired = []
        t = Timer(engine, 5.0, lambda: fired.append(engine.now))
        t.start()
        engine.run()
        assert fired == [5.0]
        assert not t.running

    def test_restart_pushes_deadline(self, engine):
        fired = []
        t = Timer(engine, 5.0, lambda: fired.append(engine.now))
        t.start()
        engine.call_at(3.0, t.start)  # restarted while running at t=3
        engine.run()
        assert fired == [8.0]

    def test_repeated_restarts_keep_postponing(self, engine):
        fired = []
        t = Timer(engine, 4.0, lambda: fired.append(engine.now))
        t.start()
        for at in (2.0, 4.0, 6.0):
            engine.call_at(at, t.start)
        engine.run()
        assert fired == [10.0]

    def test_cancel_prevents_firing(self, engine):
        fired = []
        t = Timer(engine, 5.0, lambda: fired.append(1))
        t.start()
        engine.call_at(2.0, t.cancel)
        engine.run()
        assert fired == []
        assert not t.running

    def test_deadline_property(self, engine):
        t = Timer(engine, 5.0, lambda: None)
        assert t.deadline is None
        t.start()
        assert t.deadline == 5.0

    def test_restart_after_expiry(self, engine):
        fired = []
        t = Timer(engine, 2.0, lambda: fired.append(engine.now))
        t.start()
        engine.run()
        t.start()
        engine.run()
        assert fired == [2.0, 4.0]

    def test_invalid_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            Timer(engine, 0.0, lambda: None)

    def test_running_state(self, engine):
        t = Timer(engine, 1.0, lambda: None)
        assert not t.running
        t.start()
        assert t.running
        engine.run()
        assert not t.running


class TestPeriodicTimer:
    def test_ticks_every_period(self, engine):
        ticks = []
        t = PeriodicTimer(engine, 2.0, lambda: ticks.append(engine.now))
        t.start()
        engine.run_until(7.0)
        t.stop()
        assert ticks == [2.0, 4.0, 6.0]

    def test_stop_ends_ticking(self, engine):
        ticks = []
        t = PeriodicTimer(engine, 1.0, lambda: ticks.append(engine.now))
        t.start()
        engine.call_at(2.5, t.stop)
        engine.run()
        assert ticks == [1.0, 2.0]

    def test_stop_from_within_callback(self, engine):
        ticks = []

        def tick():
            ticks.append(engine.now)
            t.stop()

        t = PeriodicTimer(engine, 1.0, tick)
        t.start()
        engine.run()
        assert ticks == [1.0]
        assert not t.running

    def test_invalid_period_rejected(self, engine):
        with pytest.raises(ValueError):
            PeriodicTimer(engine, -1.0, lambda: None)

    def test_tick_counter(self, engine):
        ticks = []
        t = PeriodicTimer(engine, 1.0, lambda: ticks.append(1))
        t.start()
        engine.run_until(4.5)
        t.stop()
        assert len(ticks) == 4
