"""Tests for 2-D location trackers (the broker-side Location Estimator)."""

import math

import pytest

from repro.estimation import (
    BrownTracker,
    HoltTracker,
    LastKnownTracker,
    SimpleSmoothingTracker,
    VelocityComponentTracker,
)
from repro.estimation.tracker import tracker_from_state
from repro.geometry import Vec2


def feed_linear(tracker, *, speed=2.0, theta=0.0, n=10, dt=1.0):
    """Feed n updates of a node moving at constant velocity."""
    velocity = Vec2.from_polar(speed, theta)
    position = Vec2(0, 0)
    t = 0.0
    for _ in range(n):
        tracker.update(t, position, velocity)
        position = position + velocity * dt
        t += dt
    return t - dt, position - velocity * dt  # last update time & position


class TestBase:
    def test_predict_without_fix_raises(self):
        with pytest.raises(RuntimeError):
            LastKnownTracker().predict(1.0)

    def test_time_must_not_decrease(self):
        tracker = LastKnownTracker()
        tracker.update(5.0, Vec2(0, 0), Vec2(1, 0))
        with pytest.raises(ValueError):
            tracker.update(4.0, Vec2(0, 0), Vec2(1, 0))

    def test_updates_counted(self):
        tracker = LastKnownTracker()
        tracker.update(0.0, Vec2(0, 0), Vec2(1, 0))
        tracker.update(1.0, Vec2(1, 0), Vec2(1, 0))
        assert tracker.updates_received == 2
        assert tracker.last_fix == (1.0, Vec2(1, 0))


class TestLastKnown:
    def test_frozen_at_last_fix(self):
        tracker = LastKnownTracker()
        tracker.update(0.0, Vec2(3, 4), Vec2(1, 0))
        assert tracker.predict(100.0) == Vec2(3, 4)


class TestBrownTracker:
    def test_extrapolates_constant_velocity(self):
        tracker = BrownTracker(alpha=0.4)
        t_last, p_last = feed_linear(tracker, speed=2.0, theta=0.0)
        predicted = tracker.predict(t_last + 3.0)
        expected = p_last + Vec2(6.0, 0.0)
        assert predicted.distance_to(expected) < 0.3

    def test_diagonal_movement(self):
        tracker = BrownTracker(alpha=0.4)
        theta = math.pi / 4
        t_last, p_last = feed_linear(tracker, speed=3.0, theta=theta)
        predicted = tracker.predict(t_last + 2.0)
        expected = p_last + Vec2.from_polar(6.0, theta)
        assert predicted.distance_to(expected) < 0.5

    def test_prediction_at_fix_time_is_fix(self):
        tracker = BrownTracker()
        tracker.update(5.0, Vec2(1, 2), Vec2(1, 0))
        assert tracker.predict(5.0) == Vec2(1, 2)

    def test_stationary_node_stays(self):
        tracker = BrownTracker()
        for t in range(5):
            tracker.update(float(t), Vec2(1, 1), Vec2.zero())
        assert tracker.predict(10.0) == Vec2(1, 1)

    def test_direction_wrap_safe(self):
        """Headings near +/-pi must not average to 0 (the seam bug)."""
        tracker = BrownTracker(alpha=0.4)
        position = Vec2(0, 0)
        for t in range(20):
            theta = math.pi - 0.02 if t % 2 == 0 else -math.pi + 0.02
            velocity = Vec2.from_polar(2.0, theta)
            tracker.update(float(t), position, velocity)
            position = position + velocity
        predicted = tracker.predict(20.0)
        # The node travels in -x overall; prediction must not point +x.
        assert predicted.x <= position.x + 0.5

    def test_erratic_heading_gives_conservative_prediction(self):
        """Scattered headings shrink the dead-reckoned displacement.

        The smoothed heading vector's norm is the direction confidence: it
        is ~1 for a steady heading and < 1 for scattered ones, and the
        predicted displacement can never exceed speed * dt.
        """

        def run(headings):
            tracker = BrownTracker(alpha=0.4)
            position = Vec2(0, 0)
            for t, theta in enumerate(headings):
                tracker.update(float(t), position, Vec2.from_polar(2.0, theta))
            predicted = tracker.predict(len(headings) + 4.0)
            return predicted.distance_to(position)

        steady = run([0.3] * 12)
        scattered = run([0.0, math.pi / 2, math.pi, 3 * math.pi / 2] * 3)
        dt = 5.0
        assert steady == pytest.approx(2.0 * dt, rel=0.05)
        assert scattered < steady
        assert scattered <= 2.0 * dt + 1e-9

    def test_displacement_cap_clamps(self):
        tracker = BrownTracker(alpha=0.4)
        t_last, p_last = feed_linear(tracker, speed=5.0)
        tracker.update(t_last + 1.0, p_last + Vec2(5, 0), Vec2(5, 0),
                       displacement_cap=2.0)
        predicted = tracker.predict(t_last + 10.0)
        assert predicted.distance_to(p_last + Vec2(5, 0)) <= 2.0 + 1e-9

    def test_cap_not_applied_when_inside(self):
        tracker = BrownTracker(alpha=0.4)
        tracker.update(0.0, Vec2(0, 0), Vec2(1, 0), displacement_cap=100.0)
        tracker.update(1.0, Vec2(1, 0), Vec2(1, 0), displacement_cap=100.0)
        predicted = tracker.predict(2.0)
        assert predicted.distance_to(Vec2(2, 0)) < 0.5


class TestOtherTrackers:
    @pytest.mark.parametrize(
        "cls", [VelocityComponentTracker, SimpleSmoothingTracker, HoltTracker]
    )
    def test_extrapolates_constant_velocity(self, cls):
        tracker = cls()
        t_last, p_last = feed_linear(tracker, speed=2.0, theta=0.5)
        predicted = tracker.predict(t_last + 2.0)
        expected = p_last + Vec2.from_polar(4.0, 0.5)
        assert predicted.distance_to(expected) < 0.6

    @pytest.mark.parametrize(
        "cls", [VelocityComponentTracker, SimpleSmoothingTracker, HoltTracker]
    )
    def test_respects_displacement_cap(self, cls):
        tracker = cls()
        for t in range(5):
            tracker.update(
                float(t), Vec2(2.0 * t, 0), Vec2(2, 0), displacement_cap=1.0
            )
        predicted = tracker.predict(50.0)
        assert predicted.distance_to(Vec2(8, 0)) <= 1.0 + 1e-9


#: A fixed LU sequence (time, position, velocity, displacement cap): two
#: moving fixes, a stationary one (speed 0, so the heading smoothers skip
#: it) and a turn.
SNAPSHOT_LUS = [
    (0.0, Vec2(0.0, 0.0), Vec2(1.5, 0.5), 2.0),
    (1.0, Vec2(1.5, 0.5), Vec2(1.25, 1.0), 2.0),
    (2.5, Vec2(3.25, 2.0), Vec2(0.0, 0.0), None),
    (4.0, Vec2(3.25, 2.0), Vec2(-0.75, 2.0), 1.5),
]

#: The on-disk format of a tracker snapshot (WAL shard snapshots embed it):
#: a snapshot written by an earlier release must keep restoring, so these
#: literals are not to be regenerated from the current code.
BROWN_STATE = {
    "dir_cos": {
        "alpha": 0.4, "n": 3, "s1": 0.38848512492915555, "s2": 0.708493837895652
    },
    "dir_sin": {
        "alpha": 0.4, "n": 3, "s1": 0.6383004782067414, "s2": 0.4746697099204076
    },
    "displacement_cap": 1.5,
    "kind": "brown",
    "last_position": [3.25, 2.0],
    "last_time": 4.0,
    "speed": {
        "alpha": 0.4, "n": 4, "s1": 1.4264388343775205, "s2": 1.3697322889258072
    },
    "updates": 4,
}
LAST_KNOWN_STATE = {
    "displacement_cap": 1.5,
    "kind": "last_known",
    "last_position": [3.25, 2.0],
    "last_time": 4.0,
    "updates": 4,
}
#: predict() at t = 4, 5 (inside the 1.5 m cap) and 9 (clamped onto it).
BROWN_PREDICTIONS = {
    4.0: (3.25, 2.0),
    5.0: (3.029671067946225, 3.3856132403277552),
    9.0: (3.014441646142905, 3.481388626231529),
}


class TestSnapshotFormat:
    @pytest.mark.parametrize(
        "cls, golden",
        [(BrownTracker, BROWN_STATE), (LastKnownTracker, LAST_KNOWN_STATE)],
        ids=["brown", "last_known"],
    )
    def test_state_dict_matches_golden(self, cls, golden):
        tracker = cls()
        for time, position, velocity, cap in SNAPSHOT_LUS:
            tracker.update(time, position, velocity, displacement_cap=cap)
        assert tracker.state_dict() == golden

    @pytest.mark.parametrize(
        "golden", [BROWN_STATE, LAST_KNOWN_STATE], ids=["brown", "last_known"]
    )
    def test_golden_round_trips(self, golden):
        assert tracker_from_state(golden).state_dict() == golden

    def test_restored_brown_predicts_bit_equal(self):
        live = BrownTracker()
        for time, position, velocity, cap in SNAPSHOT_LUS:
            live.update(time, position, velocity, displacement_cap=cap)
        restored = tracker_from_state(BROWN_STATE)
        for t, (x, y) in BROWN_PREDICTIONS.items():
            assert restored.predict(t) == live.predict(t) == Vec2(x, y)

    def test_restored_last_known_predicts_last_fix(self):
        restored = tracker_from_state(LAST_KNOWN_STATE)
        assert restored.predict(9.0) == Vec2(3.25, 2.0)
