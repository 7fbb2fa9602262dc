"""Tests for evaluation, the communication ledger, and stability stats."""

import tracemalloc

import numpy as np
import pytest

from fedssl.data import Dataset, gen_blobs
from fedssl.metrics import (
    DIRECTIONS,
    ROLES,
    CommLedger,
    RoundReport,
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
    led.record(0, "downlink", "student", 3, 100)
    assert list(led.entries)[-1] == (0, "downlink", "student", 3, 100, 800)


def test_ledger_bytes_configurable_four():
    led = CommLedger(bytes_per_param=4)
    led.record(0, "uplink", "teacher", 1, 100)
    assert list(led.entries)[-1] == (0, "uplink", "teacher", 1, 100, 400)
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
            (rnd, "uplink", role, cid, 7, 28)
            for cid in range(3) for role in ("student", "teacher")[: 1 + rnd % 2]
        ])

    def rescan(rnd):
        down = [size for r, d, *_, size in led.entries if r == rnd and d == "downlink"]
        up = [size for r, d, *_, size in led.entries if r == rnd and d == "uplink"]
        return {
            "downlink_models": len(down),
            "downlink_bytes": sum(down),
            "uplink_models": len(up),
            "uplink_bytes": sum(up),
        }

    for rnd in range(6):
        assert led.round_totals(rnd) == rescan(rnd)
    assert led.round_totals(2)["uplink_models"] == 0
    assert led.round_totals(5) == dict.fromkeys(rescan(5), 0)
    # a ledger extended by existing entries rolls them up too
    copy = CommLedger(4)
    copy.extend(led.entries)
    assert copy.round_totals(3) == rescan(3)


def _mixed_ledger():
    """A ledger of recorded and extended entries, and those entries in order."""
    led = CommLedger(bytes_per_param=4)
    expected = []
    for rnd in range(3):
        for cid in (0, 5, 9):
            led.record(rnd, "downlink", "student", cid, 300 + rnd)
            expected.append((rnd, "downlink", "student", cid, 300 + rnd, 4 * (300 + rnd)))
        extended = [(rnd, "uplink", role, 5, 70, 280) for role in ROLES[: 1 + rnd % 2]]
        led.extend(extended)
        expected += extended
    return led, expected


def test_ledger_entries_view_reads_back_what_was_recorded():
    led, expected = _mixed_ledger()
    view = led.entries
    assert len(view) == len(expected) == 13
    assert list(view) == expected
    # plain tuples, the rows transmissions.csv writes, not a record per entry
    assert all(type(e) is tuple for e in view)
    # a view follows later records
    led.record(7, "uplink", "teacher", 1, 10)
    assert len(view) == 14 and list(view)[-1] == (7, "uplink", "teacher", 1, 10, 40)


def test_ledger_rebuilt_from_its_entries_has_the_same_totals():
    led, _ = _mixed_ledger()
    copy = CommLedger(4)
    copy.extend(led.entries)
    assert list(copy.entries) == list(led.entries)
    for rnd in range(4):
        assert copy.round_totals(rnd) == led.round_totals(rnd)
    for direction in DIRECTIONS:
        assert copy.total_bytes(direction) == led.total_bytes(direction)


def test_ledger_totals_and_counts_match_a_rescan():
    led, entries = _mixed_ledger()
    for direction in DIRECTIONS:
        assert led.total_bytes(direction) == sum(size for _, d, *_, size in entries if d == direction)
        assert led.model_count(direction) == sum(d == direction for _, d, *_ in entries)
        for role in ROLES:
            assert led.model_count(direction, role) == sum(
                (d, r) == (direction, role) for _, d, r, *_ in entries)


def test_ledger_rollups_reject_unknown_names():
    led, _ = _mixed_ledger()
    with pytest.raises(ValueError, match=r"^direction must be one of \('downlink', 'uplink'\)$"):
        led.total_bytes("uplnk")
    with pytest.raises(ValueError, match=r"^direction must be one of \('downlink', 'uplink'\)$"):
        led.model_count("sideways")
    with pytest.raises(ValueError, match=r"^role must be one of \('student', 'teacher'\)$"):
        led.model_count("uplink", "teachr")


def test_ledger_record_rejects_bad_entries():
    led = CommLedger()
    led.record(0, "uplink", "student", 0, 10)
    with pytest.raises(ValueError, match=r"^direction must be one of \('downlink', 'uplink'\)$"):
        led.record(0, "sideways", "student", 0, 10)
    with pytest.raises(ValueError, match=r"^role must be one of \('student', 'teacher'\)$"):
        led.record(0, "uplink", "optimizer", 0, 10)
    for rnd, num_params in ((-1, 10), (0, 0)):
        with pytest.raises(ValueError, match="^round must be >= 0 and num_params >= 1$"):
            led.record(rnd, "uplink", "student", 0, num_params)
    # a value no column can hold fails without leaving a partial row behind
    with pytest.raises(OverflowError):
        led.record(0, "uplink", "student", 2**40, 10)
    led.record(1, "downlink", "teacher", 3, 20)
    assert list(led.entries) == [(0, "uplink", "student", 0, 10, 80),
                                 (1, "downlink", "teacher", 3, 20, 160)]


def test_ledger_memory_budget_at_crowd_shape():
    # crowd's trial: 300 rounds of 50 clients, each sent and sending a
    # student and a teacher of 874 parameters, 60,000 records, one entry
    # at a time. One object per entry peaked at 7.0 MiB here and typed
    # columns at 1.2 MiB; the blocks, two a round, peak at 0.5 MiB
    led = CommLedger()
    tracemalloc.start()
    try:
        for rnd in range(300):
            for direction in DIRECTIONS:
                for cid in range(0, 200, 4):
                    for role in ROLES:
                        led.record(rnd, direction, role, cid, 874)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(led.entries) == 60_000
    assert led.total_bytes("uplink") == 30_000 * 874 * 8
    assert peak < 2**20


def test_ledger_block_records_read_back_entry_by_entry():
    # record calls of whole blocks and of single entries, mixed at random:
    # repeated and broken role patterns, a client cut off after its first
    # role, changes of round, direction and size. Every view of the ledger
    # must read the entries each call expands to, in call order
    rng = np.random.default_rng(3)
    led = CommLedger(bytes_per_param=4)
    expected = []
    for _ in range(400):
        rnd, direction = int(rng.integers(3)), DIRECTIONS[rng.integers(2)]
        num_params = int(rng.choice([5, 9]))
        if rng.random() < 0.3:
            roles = [ROLES[i] for i in rng.integers(2, size=rng.integers(1, 4))]
            ids = [int(c) for c in rng.integers(6, size=rng.integers(0, 4))]
            led.record(rnd, direction, roles, ids, num_params)
        else:
            roles, ids = [ROLES[rng.integers(2)]], [int(rng.integers(3))]
            led.record(rnd, direction, roles[0], ids[0], num_params)
        expected += [(rnd, direction, role, cid, num_params, 4 * num_params)
                     for cid in ids for role in roles]
    assert len(led.entries) == len(expected)
    assert list(led.entries) == expected
    for direction in DIRECTIONS:
        assert led.total_bytes(direction) == sum(
            size for _, d, *_, size in expected if d == direction)
        for role in (None, *ROLES):
            assert led.model_count(direction, role) == sum(
                d == direction and role in (None, r) for _, d, r, *_ in expected)
    one_by_one = CommLedger(4)
    one_by_one.extend(expected)
    for rnd in range(3):
        assert led.round_totals(rnd) == one_by_one.round_totals(rnd)


def test_ledger_meters_a_round_as_one_block_a_direction():
    led = CommLedger()
    led.record(0, "downlink", ("student", "teacher"), [3, 8, 9], 874)
    led.record(0, "uplink", ("student",), np.array([3, 8, 9]), 874)
    assert len(led._blocks) == 2
    assert list(led.entries) == [
        (0, "downlink", role, cid, 874, 6992) for cid in (3, 8, 9) for role in ROLES
    ] + [(0, "uplink", "student", cid, 874, 6992) for cid in (3, 8, 9)]
    assert led.round_totals(0) == {"downlink_models": 6, "downlink_bytes": 6 * 6992,
                                   "uplink_models": 3, "uplink_bytes": 3 * 6992}


def test_ledger_extend_rejects_inconsistent_scale():
    led = CommLedger(bytes_per_param=8)
    with pytest.raises(ValueError, match="^entry byte count disagrees with this ledger's scale$"):
        led.extend([(0, "uplink", "student", 0, 10, 40)])


def test_transmission_validation():
    # a transmission row is checked once, as extend records it
    led = CommLedger()
    with pytest.raises(ValueError, match="^direction must be one of"):
        led.extend([(0, "sideways", "student", 0, 1, 8)])
    with pytest.raises(ValueError, match="^role must be one of"):
        led.extend([(0, "uplink", "optimizer", 0, 1, 8)])
    with pytest.raises(ValueError, match="^round must be >= 0 and num_params >= 1$"):
        led.extend([(-1, "uplink", "student", 0, 1, 8)])
    assert len(led.entries) == 0


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


def test_stability_takes_accuracies_not_reports():
    reports = [RoundReport(i, 0.5 + 0.1 * (i % 2), 0.5, 0.0, 0.0, False, 0, 0) for i in range(4)]
    std, dd = stability_stats([r.acc_student for r in reports], window=4)
    assert std == pytest.approx(0.05, abs=1e-12) and dd == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(TypeError):
        stability_stats(reports, window=4)


def test_stability_window_validation():
    with pytest.raises(ValueError):
        stability_stats([0.5], window=0)
    with pytest.raises(ValueError):
        stability_stats([0.5], window=2)
