"""Tests for evaluation, the communication ledger, and stability stats."""

import numpy as np
import pytest

from fedssl.data import Dataset, gen_blobs
from fedssl.metrics import (
    CommLedger,
    RoundReport,
    Transmission,
    evaluate,
    stability_stats,
)
from fedssl.nn import ModelSpec, ParamVector, init_params

SPEC = ModelSpec(input_dim=4, hidden_dims=(), num_classes=10)


# ---------------------------------------------------------------- evaluate


def test_evaluate_uniform_model_matches_class0_frequency():
    ds = gen_blobs(10, 4, 30, 0.3, seed=0)
    zero = ParamVector(np.zeros(SPEC.num_params), SPEC.spec_hash)
    acc = evaluate(zero, SPEC, ds)
    assert acc == pytest.approx(float((ds.labels == 0).mean()), abs=1e-12)


def test_evaluate_memorizing_model_is_perfect():
    # single example; a big bias on the true class decides the argmax
    ds = Dataset(np.zeros((1, 4)), np.array([7]), 10)
    params = ParamVector(np.zeros(SPEC.num_params), SPEC.spec_hash)
    params.values[4 * 10 + 7] = 5.0  # bias slot of class 7
    assert evaluate(params, SPEC, ds) == 1.0


def test_evaluate_untrained_near_chance():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(1000, 4)), rng.integers(0, 10, size=1000), 10)
    acc = evaluate(init_params(SPEC, seed=3), SPEC, ds)
    assert abs(acc - 0.10) < 0.03


def test_evaluate_permutation_invariant():
    ds = gen_blobs(10, 4, 20, 0.3, seed=1)
    params = init_params(SPEC, 0)
    perm = np.random.default_rng(2).permutation(ds.size)
    shuffled = Dataset(ds.inputs[perm], ds.labels[perm], 10)
    assert evaluate(params, SPEC, ds) == pytest.approx(evaluate(params, SPEC, shuffled), abs=1e-15)


# ------------------------------------------------------------------ ledger


def test_ledger_bytes_eight_per_param():
    led = CommLedger()
    e = led.record(0, "downlink", "student", 3, 100)
    assert e.bytes == 800


def test_ledger_bytes_configurable_four():
    led = CommLedger(bytes_per_param=4)
    e = led.record(0, "uplink", "teacher", 1, 100)
    assert e.bytes == 400
    with pytest.raises(ValueError):
        CommLedger(bytes_per_param=2)


def test_ledger_counts_by_direction_and_role():
    led = CommLedger()
    m = 5
    for cid in range(m):  # a two-model uplink round
        led.record(0, "uplink", "student", cid, 10)
        led.record(0, "uplink", "teacher", cid, 10)
        led.record(0, "downlink", "student", cid, 10)
    assert led.model_count("uplink") == 2 * m
    assert led.model_count("uplink", "teacher") == m
    assert led.model_count("downlink") == m
    assert led.total_bytes("uplink") == 2 * m * 80


def test_ledger_round_totals():
    led = CommLedger()
    led.record(0, "downlink", "student", 0, 10)
    led.record(1, "downlink", "student", 0, 10)
    led.record(1, "uplink", "student", 0, 10)
    t = led.round_totals(1)
    assert t == {
        "downlink_models": 1,
        "downlink_bytes": 80,
        "uplink_models": 1,
        "uplink_bytes": 80,
    }


def test_ledger_round_totals_match_a_rescan():
    led = CommLedger(bytes_per_param=4)
    for rnd in range(4):
        for cid in range(3):
            led.record(rnd, "downlink", "student", cid, 10 + rnd)
            if rnd % 2 == 0:
                led.record(rnd, "downlink", "teacher", cid, 10 + rnd)
        if rnd == 2:
            continue  # a round whose clients upload nothing
        led.extend([
            Transmission(rnd, "uplink", role, cid, 7, 28)
            for cid in range(3) for role in ("student", "teacher")[: 1 + rnd % 2]
        ])

    def rescan(rnd):
        down = [e for e in led.entries if e.round == rnd and e.direction == "downlink"]
        up = [e for e in led.entries if e.round == rnd and e.direction == "uplink"]
        return {
            "downlink_models": len(down),
            "downlink_bytes": sum(e.bytes for e in down),
            "uplink_models": len(up),
            "uplink_bytes": sum(e.bytes for e in up),
        }

    for rnd in range(6):
        assert led.round_totals(rnd) == rescan(rnd)
    assert led.round_totals(2)["uplink_models"] == 0
    assert led.round_totals(5) == dict.fromkeys(rescan(5), 0)
    # a ledger built from existing entries rolls them up too
    assert CommLedger(4, list(led.entries)).round_totals(3) == rescan(3)


def test_ledger_extend_rejects_inconsistent_scale():
    led = CommLedger(bytes_per_param=8)
    bad = Transmission(0, "uplink", "student", 0, 10, 40)
    with pytest.raises(ValueError):
        led.extend([bad])


def test_transmission_validation():
    with pytest.raises(ValueError):
        Transmission(0, "sideways", "student", 0, 1, 8)
    with pytest.raises(ValueError):
        Transmission(0, "uplink", "optimizer", 0, 1, 8)


# ----------------------------------------------------------- round report


def test_round_report_csv_shape():
    r = RoundReport(3, 0.5, 0.6, 0.1, 0.2, True, 800, 400)
    assert RoundReport.csv_header().split(",") == [
        "round", "acc_student", "acc_teacher", "dkl_T", "dkl_S",
        "send_teacher", "downlink_bytes", "uplink_bytes",
    ]
    row = r.csv_row().split(",")
    assert row[0] == "3" and row[5] == "1" and row[6] == "800"


def test_round_report_validates_accuracy():
    with pytest.raises(ValueError):
        RoundReport(0, 1.2, 0.5, 0.0, 0.0, False, 0, 0)


# -------------------------------------------------------------- stability


def test_stability_constant_sequence():
    std, dd = stability_stats([0.5] * 10, window=5)
    assert std == 0.0 and dd == 0.0


def test_stability_alternating_sequence():
    acc = [0.5, 0.7] * 10
    std, dd = stability_stats(acc, window=4)
    assert std == pytest.approx(0.1, abs=1e-12)
    assert dd == pytest.approx(0.2, abs=1e-12)


def test_stability_monotone_increasing_no_drawdown():
    std, dd = stability_stats(list(np.linspace(0.1, 0.9, 20)), window=10)
    assert dd == 0.0


def test_stability_uses_trailing_window_only():
    acc = [0.9, 0.1] + [0.5] * 8
    std, dd = stability_stats(acc, window=8)
    assert std == 0.0 and dd == 0.0


def test_stability_accepts_reports():
    reports = [RoundReport(i, 0.5, 0.5, 0.0, 0.0, False, 0, 0) for i in range(4)]
    std, dd = stability_stats(reports, window=4)
    assert std == 0.0


def test_stability_window_validation():
    with pytest.raises(ValueError):
        stability_stats([0.5], window=0)
    with pytest.raises(ValueError):
        stability_stats([0.5], window=2)
