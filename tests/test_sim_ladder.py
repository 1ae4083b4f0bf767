"""A sweep's search-rate ladder: one run per trial serves every rate.

The direct :func:`~repro.sim.sweep.effectiveness_sweep` runs each scheme
once per trial at the largest budget; Proposed settles the smaller
budgets inside its one slot loop (a budget with nothing left takes the
run's result as it stands, one whose last slot is partial finishes it on
a fork), and every other scheme runs once per budget on forks taken
before the run. Whatever the ladder, each rate's outcome must be what a
run at that rate alone gives, bit for bit, and the flight recorder must
file the same per-(rate, trial) sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.random_search import RandomSearch
from repro.core.base import AlignmentContext
from repro.core.proposed import ProposedAlignment
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.obs import use_recorder
from repro.obs.checkpoint import CheckpointRecorder
from repro.obs.diff import diff_checkpoints
from repro.sim.batch import run_trial_blocks
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.runner import run_trials, standard_schemes
from repro.sim.scenario import Scenario
from repro.sim.sweep import effectiveness_sweep
from repro.types import BeamPair

#: On the 4 x 9 codebook product (36 pairs): budgets 11, 2, 7, 7, 11,
#: 8 and 36. Unsorted, 0.3 listed twice, 0.19 and 0.2 on one budget,
#: budgets that are and are not multiples of J, and the full product
#: (TX beams run out, so late slots have fewer than J RX beams left).
RATES = (0.3, 0.05, 0.2, 0.19, 0.3, 0.22, 1.0)
DISTINCT_RATES = tuple(dict.fromkeys(RATES))


def _scenario(kind: ChannelKind) -> Scenario:
    return Scenario(
        ScenarioConfig(
            channel=kind,
            tx_shape=(2, 2),
            rx_shape=(2, 4),
            rx_beam_grid=(3, 3),
            snr_db=20.0,
            fading_blocks=4,
        )
    )


def _fingerprint(outcomes):
    """Every outcome field, the full probe trace and the slot records."""
    rows = []
    for name, outcome in outcomes.items():
        result = outcome.result
        rows.append(
            (
                name,
                outcome.loss_db,
                result.selected,
                result.selected_power,
                result.measurements_used,
                [(m.pair, m.power, m.z, m.slot) for m in result.trace],
                list(result.slots),
            )
        )
    return rows


@pytest.mark.parametrize("kind", [ChannelKind.MULTIPATH, ChannelKind.SINGLEPATH])
@pytest.mark.parametrize("per_slot", [1, 4])
@pytest.mark.parametrize("batch_trials", [None, 3])
def test_ladder_matches_each_rate_alone(kind, per_slot, batch_trials):
    scenario = _scenario(kind)
    schemes = standard_schemes(measurements_per_slot=per_slot)
    ladder = list(
        run_trial_blocks(scenario, schemes, RATES, 5, range(4), batch_trials)
    )
    assert len(ladder) == 4
    for rate_index, rate in enumerate(RATES):
        alone = run_trials(scenario, schemes, rate, 4, base_seed=5)
        for trial, per_rate in enumerate(ladder):
            assert _fingerprint(per_rate[rate_index]) == _fingerprint(alone[trial])


@pytest.mark.parametrize("kind", [ChannelKind.MULTIPATH, ChannelKind.SINGLEPATH])
@pytest.mark.parametrize("batch_trials", [None, 3])
def test_direct_sweep_losses_match_per_rate_runs(kind, batch_trials):
    scenario = _scenario(kind)
    schemes = standard_schemes(measurements_per_slot=4)
    sweep = effectiveness_sweep(
        scenario, schemes, RATES, 4, base_seed=9, batch_trials=batch_trials
    )
    assert sweep.search_rates == list(RATES)
    for rate_index, rate in enumerate(RATES):
        alone = run_trials(scenario, schemes, rate, 4, base_seed=9)
        for name in schemes:
            assert sweep.losses[name][rate_index] == [t[name].loss_db for t in alone]


def test_proposed_runs_once_per_trial_and_the_rest_once_per_rate(monkeypatch):
    calls = {"Proposed": 0, "Random": 0}
    for cls, name in ((ProposedAlignment, "Proposed"), (RandomSearch, "Random")):
        original = cls.align

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "align", counted)
    effectiveness_sweep(
        _scenario(ChannelKind.MULTIPATH),
        standard_schemes(measurements_per_slot=4),
        (0.1, 0.2, 0.5),
        3,
        base_seed=1,
    )
    assert calls == {"Proposed": 3, "Random": 9}


class TestFork:
    """A fork and its parent never see each other's later measurements."""

    def _context(self, small_channel, tx_codebook, rx_codebook, limit=20):
        engine = MeasurementEngine(
            small_channel, np.random.default_rng(7), fading_blocks=2
        )
        budget = MeasurementBudget(
            tx_codebook.num_beams * rx_codebook.num_beams, limit
        )
        return AlignmentContext(tx_codebook, rx_codebook, engine, budget)

    @staticmethod
    def _state(context):
        return (
            [(m.pair, m.power, m.z, m.slot) for m in context.trace],
            context.measured_indices(),
            context.budget.spent,
            context.budget.limit,
            context.engine.num_measurements,
            context.engine._rng.bit_generator.state,
        )

    def test_fork_starts_where_the_parent_stands(
        self, small_channel, tx_codebook, rx_codebook
    ):
        parent = self._context(small_channel, tx_codebook, rx_codebook)
        parent.measure_many(np.array([0, 5, 9]), slot=0)
        child = parent.fork(8)
        assert child.budget.limit == 8
        assert self._state(child)[:3] == self._state(parent)[:3]
        assert child.engine.num_measurements == parent.engine.num_measurements
        assert child.engine.channel is parent.engine.channel
        assert child.tx_codebook is parent.tx_codebook
        assert child.is_measured(BeamPair(0, 5))
        # Same RNG state: both draw the same next measurement.
        assert parent.measure(BeamPair(1, 2)) == child.measure(BeamPair(1, 2))

    def test_fork_measurements_leave_the_parent_alone(
        self, small_channel, tx_codebook, rx_codebook
    ):
        parent = self._context(small_channel, tx_codebook, rx_codebook)
        parent.measure_many(np.array([1, 2]), slot=0)
        before = self._state(parent)
        child = parent.fork(10)
        child.measure_many(np.array([3, 4, 30]), slot=1)
        child.measure(BeamPair(2, 0), slot=1)
        assert self._state(parent) == before
        assert not parent.is_measured(BeamPair(2, 0))
        assert parent.measured_rx_beams(0) == {1, 2}

    def test_parent_measurements_leave_the_fork_alone(
        self, small_channel, tx_codebook, rx_codebook
    ):
        parent = self._context(small_channel, tx_codebook, rx_codebook)
        parent.measure(BeamPair(0, 0), slot=0)
        child = parent.fork(5)
        before = self._state(child)
        parent.measure_many(np.array([7, 8, 20]), slot=1)
        assert self._state(child) == before
        assert not child.is_measured(BeamPair(1, 2))
        # The fork can still measure what its parent took meanwhile.
        child.measure_many(np.array([7, 8]), slot=1)
        assert child.budget.spent == 3

    def test_fork_limit_must_cover_what_is_spent(
        self, small_channel, tx_codebook, rx_codebook
    ):
        parent = self._context(small_channel, tx_codebook, rx_codebook)
        parent.measure_many(np.array([0, 1, 2]))
        with pytest.raises(ValidationError, match="spent"):
            parent.fork(2)


def _sequences(events):
    """Per (rate, trial): the (key, stage, digest) sequence in order."""
    grouped = {}
    for event in events:
        grouped.setdefault((event.key[0], event.trial), []).append(
            (event.key, event.stage, event.digest)
        )
    return grouped


@pytest.mark.parametrize("batch_trials", [None, 3])
def test_checkpoints_match_per_rate_runs(batch_trials):
    scenario = _scenario(ChannelKind.MULTIPATH)
    schemes = standard_schemes(measurements_per_slot=4)
    direct = CheckpointRecorder()
    with use_recorder(direct):
        effectiveness_sweep(
            scenario, schemes, DISTINCT_RATES, 3, base_seed=4, batch_trials=batch_trials
        )
    per_rate = CheckpointRecorder()
    with use_recorder(per_rate):
        for rate in DISTINCT_RATES:
            run_trials(scenario, schemes, rate, 3, base_seed=4)
    assert _sequences(direct.events) == _sequences(per_rate.events)
    assert len({event.rate for event in direct.events}) == len(DISTINCT_RATES)
    result = diff_checkpoints(direct.events, per_rate.events)
    assert result.identical
    assert result.divergent_keys == 0
    assert result.compared == len(per_rate.events)
