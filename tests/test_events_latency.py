"""Latency models: seeded determinism, spec parsing, finite parameters."""

from __future__ import annotations

import math

import pytest

from repro.crypto.prng import Sha256Prng, derive_seed
from repro.events import (
    ConstantLatency,
    LatencyNetwork,
    LogNormalLatency,
    parse_latency_model,
)


#: One NaN or infinite parameter per case; every model must refuse it.
_NON_FINITE = [
    (ConstantLatency, (math.nan,)),
    (ConstantLatency, (math.inf,)),
    (LogNormalLatency, (math.nan, 0.5)),
    (LogNormalLatency, (math.inf, 0.5)),
    (LogNormalLatency, (0.04, math.nan)),
    (LogNormalLatency, (0.04, math.inf)),
]


def _rng(*labels):
    return Sha256Prng(derive_seed(99, "test", *labels))


class TestModels:
    def test_constant_is_fixed_and_draws_nothing(self):
        rng = _rng("const")
        before = rng.getstate()
        model = ConstantLatency(0.05)
        assert model.sample(rng) == 0.05
        assert rng.getstate() == before  # zero RNG draws

    def test_zero_constant_is_zero(self):
        rng = _rng("zero")
        before = rng.getstate()
        assert ConstantLatency(0.0).sample(rng) == 0.0
        assert rng.getstate() == before
        assert ConstantLatency(0.0).describe() == "zero"
        assert ConstantLatency(0.001).describe() == "constant 1 ms"

    def test_lognormal_median_and_determinism(self):
        model = LogNormalLatency(0.04, 0.6)
        rng = _rng("ln")
        samples = sorted(model.sample(rng) for _ in range(2001))
        # The empirical median brackets the configured one.
        assert 0.02 < samples[1000] < 0.08
        assert all(value > 0 for value in samples)
        rerun = _rng("ln")
        assert samples == sorted(model.sample(rerun) for _ in range(2001))

    def test_lognormal_avoids_gauss_state(self):
        """The draw must round-trip through Sha256Prng's checkpointable
        state: sample, rewind via getstate/setstate, sample again."""
        model = LogNormalLatency(0.04, 0.6)
        rng = _rng("state")
        saved = rng.getstate()
        first = model.sample(rng)
        rng.setstate(saved)
        assert model.sample(rng) == first

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)
        with pytest.raises(ValueError):
            LogNormalLatency(0.0, 0.5)
        with pytest.raises(ValueError):
            LogNormalLatency(0.04, -0.1)

    @pytest.mark.parametrize("model, args", _NON_FINITE, ids=[
        f"{model.__name__}-" + "-".join(map(str, args)) for model, args in _NON_FINITE
    ])
    def test_non_finite_parameters_refused(self, model, args):
        # A NaN or infinite delay schedules an event the queue can never
        # drain past: the run would hang instead of failing.
        with pytest.raises(ValueError, match="finite"):
            model(*args)


class TestConfig:
    def test_default_applies_to_every_edge(self):
        """One model governs every link, both legs of a request included."""

        class _Wire:
            def request(self, src, dst, message):
                return message

        network = LatencyNetwork(_Wire(), ConstantLatency(0.02), _rng("cfg"))
        for src, dst in ((1, 2), (2, 1), (3, 4)):
            network.begin_session()
            network.request(src, dst, None)
            assert network.session_time == pytest.approx(0.04)


class TestParsing:
    def test_specs(self):
        assert parse_latency_model("zero") == ConstantLatency(0.0)
        constant = parse_latency_model("constant:25")
        assert constant.seconds == pytest.approx(0.025)
        lognormal = parse_latency_model("lognormal:40:0.6")
        assert lognormal.median == pytest.approx(0.04)
        assert lognormal.sigma == pytest.approx(0.6)

    @pytest.mark.parametrize("bad", [
        "", "zero:1", "constant", "constant:x", "uniform:10",
        "uniform:30:10", "lognormal:40", "pareto:1:2", "constant:-5",
        "constant:nan", "lognormal:nan:0.5", "uniform:10:nan",
        "uniform:10:inf", "lognormal:40:inf",
        # The uniform model is gone: its grammar is refused, not misread.
        "uniform:10:50",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_latency_model(bad)
