import pytest

from e2e import harness, host, metrics

SPEC = metrics.contract()


def test_every_name_is_listed_once_and_scoped_ones_name_real_workloads():
    listed = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(listed)) == len(listed)
    assert not set(listed) & set(metrics.SCOPED)
    for name, scoped in metrics.SCOPED.items():
        assert scoped.on and set(scoped.on) <= set(harness.WORKLOADS), name
        # only end-to-end metrics carry a bound
        assert (scoped.bound is None) == (scoped.trace == 1), name
    # the contract's workloads are workloads this benchmark can run
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)


def test_expected_is_the_contract_list_plus_what_is_on_the_workload():
    end_to_end = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert metrics.expected("scan_seq", 0, SPEC) == end_to_end
    assert metrics.expected("chip_serve", 0, SPEC) == {
        **end_to_end, "request_ms_p50": "ms", "request_ms_p99": "ms"}
    seq = metrics.expected("scan_seq", 1, SPEC)
    assert "engine.b20.ms_per_tile" in seq and "trace.residual_frac" in seq
    # a layer the workload never touches is not among its metrics
    assert "serve.chip_key_ms" not in seq
    assert "robust.journal.append_ms_per_tile" not in seq
    assert "robust.sanitize.ms_per_tile" not in \
        metrics.expected("chip_serve", 1, SPEC)
    assert metrics.bounds(SPEC)["request_ms_p99"] == ("lower", 0.15)


def test_split_refuses_missing_and_unlisted_metrics():
    measured = {e["name"]: 1.0 for e in SPEC["end_to_end"]}
    listed, scoped = metrics.split(measured, "scan_seq", 0, spec=SPEC)
    assert set(listed) == set(measured) and scoped == {}
    with pytest.raises(KeyError, match="unlisted"):
        metrics.split({**measured, "tiles_per_s": 1.0}, "scan_seq", 0, spec=SPEC)
    with pytest.raises(KeyError, match="request_ms_p50"):
        metrics.split(measured, "chip_serve", 0, spec=SPEC)
    serve = {**measured, "request_ms_p50": 80.0}
    with pytest.raises(KeyError, match="request_ms_p99"):
        metrics.split(serve, "chip_serve", 0, spec=SPEC)
    listed, scoped = metrics.split(serve, "chip_serve", 0,
                                   withheld={"request_ms_p99": "too few"},
                                   spec=SPEC)
    assert set(scoped) == {"request_ms_p50"}
    # a contract metric can never be withheld
    del measured["setup_s"]
    with pytest.raises(KeyError, match="setup_s"):
        metrics.split(measured, "scan_seq", 0, withheld={"setup_s": "no"},
                      spec=SPEC)


class FakeProbe:
    NOMINAL_MS = host.SpeedProbe.NOMINAL_MS
    slowdown = host.SpeedProbe.slowdown

    def __init__(self, samples_ms):
        self._next = iter(samples_ms)
        self.samples_ms = []

    def sample(self):
        self.samples_ms.append(next(self._next))
        return self.samples_ms[-1]


def test_pass_times_are_divided_by_the_slowdown_around_each_pass():
    nominal = host.SpeedProbe.NOMINAL_MS
    assert host.SpeedProbe.slowdown(nominal, nominal) == 1.0
    assert host.SpeedProbe.slowdown(nominal, 2 * nominal) == 1.5
    # machine at nominal speed, then 1.5x slow, then 2x slow
    probe = FakeProbe([nominal, nominal, 2 * nominal, 2 * nominal])
    timer = harness.PassTimer(probe, [])
    for _ in range(3):
        assert timer.run(lambda: "out") == "out"
    assert timer.slow == [1.0, 1.5, 2.0]
    assert len(timer.wall) == len(timer.cpu) == 3

    def boom():
        raise RuntimeError("a pass that fails")
    probe = FakeProbe([nominal] * 3)
    timer = harness.PassTimer(probe, [])
    assert timer.run(boom) is None
    assert timer.wall == [] and len(timer.errors) == 1
    assert "a pass that fails" in timer.errors[0]


def test_speed_probe_measures_something_and_keeps_its_samples():
    probe = host.SpeedProbe()
    first, second = probe.sample(), probe.sample()
    assert first > 0 and second > 0
    assert probe.samples_ms == [first, second]
