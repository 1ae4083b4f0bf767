"""Span bookkeeping: self time, outermost-call counting, wrapper restore."""

import sys
import types

import pytest

import layers
from tracer import Patcher, Span, Tracer, rollup, self_times


def span(id, name, start, end, parent=None, run="main"):
    return Span(id, name, start, end, parent, run)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: union is [1, 6]
        span(4, "c", 2.0, 3.0, parent=2),
        span(5, "d", 9.0, 12.0, parent=1),  # runs past the root's end
    ]
    own = self_times(spans)
    assert own[("main", 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[("main", 2)] == pytest.approx(2.0)
    assert own[("main", 3)] == pytest.approx(3.0)
    assert own[("main", 4)] == pytest.approx(1.0)


def test_self_time_keeps_runs_apart():
    spans = [span(1, "root", 0.0, 4.0, run="main"), span(2, "w", 1.0, 3.0, parent=1, run="worker")]
    own = self_times(spans)
    assert own[("main", 1)] == pytest.approx(4.0)
    assert own[("worker", 2)] == pytest.approx(2.0)


def test_rollup_counts_only_the_outermost_call_of_a_recursive_layer():
    spans = [
        span(1, "f", 0.0, 10.0),
        span(2, "g", 1.0, 2.0, parent=1),
        span(3, "f", 2.0, 8.0, parent=1),
        span(4, "f", 3.0, 5.0, parent=3),
        span(5, "g", 5.0, 6.0, parent=3),
    ]
    layers_ = rollup(spans)
    assert layers_["f"].calls == 1
    assert layers_["g"].calls == 2
    assert layers_["f"].self_s + layers_["g"].self_s == pytest.approx(10.0)
    assert layers_["g"].self_s == pytest.approx(2.0)


def test_wrapper_opens_one_span_for_nested_calls_of_a_layer():
    tracer = Tracer("main")

    def inner(n):
        return n

    def outer(n):
        return wrapped_inner(n) + (wrapped_outer(n - 1) if n else 0)

    wrapped_inner = tracer.wrap("probe", inner)
    wrapped_outer = tracer.wrap("probe", outer)
    assert wrapped_outer(3) == 6
    assert [s.name for s in tracer.spans] == ["probe"]
    assert rollup(tracer.spans)["probe"].calls == 1


def test_wrapper_counts_through_observe_and_closes_on_error():
    tracer = Tracer("main")
    seen = []

    def observe(args, kwargs):
        return lambda result: seen.append((args, result))

    def fail():
        raise RuntimeError("boom")

    wrapped = tracer.wrap("layer", lambda x: x * 2, observe=observe)
    assert wrapped(4) == 8
    assert seen == [((4,), 8)]
    with pytest.raises(RuntimeError):
        tracer.wrap("other", fail)()
    assert not tracer.is_open("other")
    assert [s.name for s in tracer.spans] == ["layer", "other"]


def test_disabled_tracer_records_nothing():
    tracer = Tracer("main")
    tracer.enabled = False
    assert tracer.wrap("layer", lambda: 1)() == 1
    assert tracer.spans == []


def test_patcher_restores_module_bindings_and_inherited_methods():
    source = types.ModuleType("fakepkg")
    user = types.ModuleType("fakepkg.user")

    def helper():
        return "original"

    source.helper = helper
    user.helper = helper  # a ``from fakepkg import helper`` binding

    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    sys.modules["fakepkg"] = source
    sys.modules["fakepkg.user"] = user
    try:
        patcher = Patcher(module_prefix="fakepkg")
        patcher.patch_function(source, "helper", lambda fn: lambda: "wrapped")
        patcher.patch_attribute(Child, "run", lambda self: "wrapped")
        assert source.helper() == "wrapped" and user.helper() == "wrapped"
        assert Child().run() == "wrapped"
        patcher.restore()
        assert source.helper is helper and user.helper is helper
        assert "run" not in Child.__dict__ and Child().run() == "base"
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]


def _namespaces():
    """Every binding of every loaded repro module and repro class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for key, member in vars(value).items():
                    seen[(name, attr, key)] = member
    return seen


def test_install_wraps_every_layer_and_restore_puts_the_originals_back():
    tracer = Tracer("main")
    patcher = layers.install(tracer)
    try:
        from repro.campaign.plan import ShardSpec
        from repro.estimation.ml_covariance import MlCovarianceEstimator
        import repro.sim.parallel

        assert hasattr(MlCovarianceEstimator.estimate, "__perfbench_original__")
        assert hasattr(repro.sim.parallel.run_trial, "__perfbench_original__")
        assert hasattr(ShardSpec.digest.fget, "__perfbench_original__")
    finally:
        patcher.restore()
    before = _namespaces()
    patcher = layers.install(tracer)
    patcher.restore()
    after = _namespaces()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_reference_kernel_runs_on_one_or_two_processes():
    import calibrate

    assert 0.0 < calibrate.kernel_seconds(repeats=1) < 5.0
    assert 0.0 < calibrate.kernel_seconds(processes=2, repeats=1) < 5.0
