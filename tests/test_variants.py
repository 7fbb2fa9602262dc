"""Tests for the protocol-variant layer."""

import numpy as np
import pytest

from fedssl.nn import ModelSpec, ParamVector, forward_probs, init_params
from fedssl.semisup import KlStats, SslHyper, pseudo_label
from fedssl.variants import (
    VARIANT_KINDS,
    VARIANTS,
    VariantConfig,
    ema_update,
    switch_decide,
    variant_batch_hook,
    variant_downlink,
    variant_server_merge,
    variant_uplink,
)

SPEC = ModelSpec(input_dim=3, hidden_dims=(4,), num_classes=3)


class FakeServer:
    def __init__(self, student, teacher=None, round=0, last_kl=KlStats(0.0, 0.0)):
        self.global_student = student
        self.global_teacher = teacher
        self.round = round
        self.last_kl = last_kl


def _pv(values):
    return ParamVector(np.asarray(values, dtype=np.float64), SPEC.spec_hash)


# ------------------------------------------------------------------ config


def test_variant_config_validation():
    with pytest.raises(ValueError):
        VariantConfig(kind="fedavg")
    with pytest.raises(ValueError):
        VariantConfig(kind="fedswitch", ema_alpha=1.5)
    with pytest.raises(ValueError):
        VariantConfig(kind="fedswitch", iidness_prior=-0.2)
    assert VARIANTS["ts_client_ema"].teacher and VARIANTS["ts_client_ema"].local_ema
    assert not VARIANTS["fedprox_fixmatch"].teacher
    assert not VARIANTS["ts_server_ema"].local_ema
    assert VARIANT_KINDS == ("fedprox_fixmatch", "ts_server_ema", "ts_client_ema", "fedswitch")


# --------------------------------------------------------------- ema_update


def test_ema_alpha_one_keeps_teacher():
    t, s = init_params(SPEC, 0), init_params(SPEC, 1)
    out = ema_update(t, s, 1.0)
    assert np.array_equal(out.values, t.values)


def test_ema_alpha_zero_copies_student():
    t, s = init_params(SPEC, 0), init_params(SPEC, 1)
    out = ema_update(t, s, 0.0)
    assert np.array_equal(out.values, s.values)


def test_ema_midpoint_arithmetic():
    n = SPEC.num_params
    t = _pv(np.full(n, 1.0))
    s = _pv(np.full(n, 3.0))
    assert np.array_equal(ema_update(t, s, 0.5).values, np.full(n, 2.0))


def test_ema_rejects_mismatch():
    other = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=3)
    with pytest.raises(ValueError):
        ema_update(init_params(SPEC, 0), init_params(other, 0), 0.5)
    with pytest.raises(ValueError):
        ema_update(init_params(SPEC, 0), init_params(SPEC, 1), 1.5)


# ------------------------------------------------------------ switch_decide


def test_switch_teacher_closer_to_prior():
    kl = KlStats(dkl_teacher=0.5, dkl_student=1.0)
    assert switch_decide(kl, beta=0.6) is True


def test_switch_tie_prefers_student():
    kl = KlStats(dkl_teacher=0.8, dkl_student=0.8)
    assert switch_decide(kl, beta=0.3) is False


def test_switch_student_closer_at_zero_prior():
    kl = KlStats(dkl_teacher=0.3, dkl_student=0.1)
    assert switch_decide(kl, beta=0.0) is False


def test_switch_symmetric_distance():
    # equal distances on opposite sides of beta also keep the student
    kl = KlStats(dkl_teacher=0.25, dkl_student=0.75)
    assert switch_decide(kl, beta=0.5) is False


# --------------------------------------------------------- variant_downlink


def test_downlink_sets_per_variant():
    student, teacher = init_params(SPEC, 0), init_params(SPEC, 1)
    srv = FakeServer(student, teacher)
    assert set(variant_downlink(VariantConfig("fedprox_fixmatch"), srv)) == {"student"}
    assert set(variant_downlink(VariantConfig("ts_server_ema"), srv)) == {"student", "teacher"}
    assert set(variant_downlink(VariantConfig("ts_client_ema"), srv)) == {"student", "teacher"}
    fs = VariantConfig("fedswitch", iidness_prior=0.5)
    teacher_closer = KlStats(dkl_teacher=0.4, dkl_student=1.0)
    student_closer = KlStats(dkl_teacher=1.0, dkl_student=0.4)
    # round 0 sends the teacher whatever the statistics say
    for kl in (teacher_closer, student_closer):
        down = variant_downlink(fs, FakeServer(student, teacher, round=0, last_kl=kl))
        assert set(down) == {"student", "teacher"}
        assert down["teacher"] is teacher
    later = FakeServer(student, teacher, round=3, last_kl=teacher_closer)
    assert set(variant_downlink(fs, later)) == {"student", "teacher"}
    later.last_kl = student_closer
    assert set(variant_downlink(fs, later)) == {"student"}


def test_downlink_errors():
    srv = FakeServer(init_params(SPEC, 0), None)
    with pytest.raises(ValueError):
        variant_downlink(VariantConfig("ts_server_ema"), srv)
    with pytest.raises(ValueError):
        variant_downlink(VariantConfig("fedswitch"), srv)  # round 0 sends the teacher


# ------------------------------------------------------- variant_batch_hook


HYPER = SslHyper(tau=0.0001, lambda_u=1.0, mu=0.0)


def _weak(seed=0, n=5):
    return np.random.default_rng(seed).normal(size=(n, 3))


def test_hook_ts_server_teacher_frozen():
    variant = VariantConfig("ts_server_ema", ema_alpha=0.5)
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 1)
    before = teacher.values.copy()
    for k in range(3):
        _, teacher = variant_batch_hook(variant, teacher, student, _weak(k), SPEC, HYPER)
    assert np.array_equal(teacher.values, before)


def test_hook_fedswitch_alpha_zero_tracks_student():
    variant = VariantConfig("fedswitch", ema_alpha=0.0)
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 1)
    weak = _weak(2)
    pseudo, teacher = variant_batch_hook(variant, teacher, student, weak, SPEC, HYPER)
    assert np.array_equal(teacher.values, student.values)
    expect = pseudo_label(forward_probs(student, SPEC, weak), HYPER.tau)
    assert np.array_equal(pseudo.pseudo_labels, expect.pseudo_labels)
    assert np.array_equal(pseudo.mask, expect.mask)
    assert pseudo.source == "teacher"


def test_hook_ts_client_two_batch_unroll():
    alpha = 0.75
    variant = VariantConfig("ts_client_ema", ema_alpha=alpha)
    t0 = init_params(SPEC, 1)
    s0 = init_params(SPEC, 2)
    s1 = init_params(SPEC, 3)  # pretend the student moved between batches

    teacher = t0
    pseudo1, teacher = variant_batch_hook(variant, teacher, s0, _weak(0), SPEC, HYPER)
    _, teacher = variant_batch_hook(variant, teacher, s1, _weak(1), SPEC, HYPER)

    t1 = alpha * t0.values + (1 - alpha) * s0.values
    t2 = alpha * t1 + (1 - alpha) * s1.values
    assert np.allclose(teacher.values, t2, atol=0, rtol=0)
    # batch 1's pseudo-labels came from the already-updated teacher
    expected = pseudo_label(forward_probs(ParamVector(t1, SPEC.spec_hash), SPEC, _weak(0)),
                            HYPER.tau)
    assert np.array_equal(pseudo1.pseudo_labels, expected.pseudo_labels)
    assert np.array_equal(pseudo1.mask, expected.mask)
    assert pseudo1.source == "teacher"


def test_hook_student_paths():
    weak = _weak(4)
    student = init_params(SPEC, 0)
    for kind in ("fedprox_fixmatch", "fedswitch"):
        pseudo, teacher = variant_batch_hook(
            VariantConfig(kind), None, student, weak, SPEC, HYPER
        )
        assert teacher is None
        assert pseudo.source == "student"
        expected = pseudo_label(forward_probs(student, SPEC, weak), HYPER.tau)
        assert np.array_equal(pseudo.pseudo_labels, expected.pseudo_labels)
        assert np.array_equal(pseudo.mask, expected.mask)


def test_hook_missing_teacher_errors():
    student = init_params(SPEC, 0)
    for kind in ("ts_server_ema", "ts_client_ema"):
        with pytest.raises(ValueError):
            variant_batch_hook(VariantConfig(kind), None, student, _weak(), SPEC, HYPER)


# ----------------------------------------------------------- variant_uplink


def test_uplink_single_delta_for_most_variants():
    delta = init_params(SPEC, 5)
    teacher = init_params(SPEC, 6)
    for kind in ("fedprox_fixmatch", "ts_server_ema", "fedswitch"):
        up = variant_uplink(VariantConfig(kind), delta, teacher, init_params(SPEC, 7))
        assert set(up) == {"student"}


def test_uplink_ts_client_sends_teacher_delta():
    delta = init_params(SPEC, 5)
    downlinked = init_params(SPEC, 6)
    local = init_params(SPEC, 7)
    up = variant_uplink(VariantConfig("ts_client_ema"), delta, local, downlinked)
    assert set(up) == {"student", "teacher"}
    assert np.array_equal(up["teacher"].values, local.values - downlinked.values)


def test_uplink_ts_client_requires_teacher():
    with pytest.raises(ValueError):
        variant_uplink(VariantConfig("ts_client_ema"), init_params(SPEC, 0), None, None)


# ----------------------------------------------------- variant_server_merge


def test_merge_teacherless():
    out = variant_server_merge(VariantConfig("fedprox_fixmatch"), None, init_params(SPEC, 0))
    assert out is None


def test_merge_alpha_one_freezes_teacher():
    t, s = init_params(SPEC, 0), init_params(SPEC, 1)
    for kind in ("ts_server_ema", "fedswitch"):
        out = variant_server_merge(VariantConfig(kind, ema_alpha=1.0), t, s)
        assert np.array_equal(out.values, t.values)


def test_merge_alpha_zero_tracks_student():
    t, s = init_params(SPEC, 0), init_params(SPEC, 1)
    out = variant_server_merge(VariantConfig("ts_server_ema", ema_alpha=0.0), t, s)
    assert np.array_equal(out.values, s.values)


def test_merge_ts_client_mean_then_ema():
    n = SPEC.num_params
    t = _pv(np.full(n, 10.0))
    s = _pv(np.full(n, 0.0))
    deltas = _pv(np.stack([np.full(n, -8.0), np.full(n, -6.0)]))
    out = variant_server_merge(VariantConfig("ts_client_ema", ema_alpha=0.5), t, s, deltas)
    # the uploads are 10 - 8 = 2 and 10 - 6 = 4; their mean 3, then
    # 0.5*3 + 0.5*0 = 1.5, so the old teacher only enters through the uploads
    assert np.allclose(out.values, np.full(n, 1.5), atol=0)


def test_merge_ts_client_requires_uploads():
    with pytest.raises(ValueError):
        variant_server_merge(
            VariantConfig("ts_client_ema"), init_params(SPEC, 0), init_params(SPEC, 1)
        )
    # a single [P] delta is not a [M, P] stack of the clients' uploads
    with pytest.raises(ValueError, match=r"\[M, P\] stack"):
        variant_server_merge(
            VariantConfig("ts_client_ema"), init_params(SPEC, 0), init_params(SPEC, 1),
            init_params(SPEC, 2),
        )


def test_merge_requires_teacher():
    with pytest.raises(ValueError):
        variant_server_merge(VariantConfig("ts_server_ema"), None, init_params(SPEC, 1))
