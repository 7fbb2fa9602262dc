"""Protocol variants: pseudo-label source, teacher maintenance, transport.

Four variants share one client loop and differ only here:

- fedprox_fixmatch: no teacher anywhere; the student labels its own batches.
- ts_server_ema: the server's teacher is downlinked and stays frozen during
  local training; the server EMA-updates it from the aggregated student.
- ts_client_ema: the downlinked teacher adapts locally (one EMA step per
  batch) and is uploaded back; the server averages the uploads and then
  applies the round-level EMA.
- fedswitch: the teacher adapts locally like ts_client_ema but is never
  uploaded; each round the server sends it only when the previous round's
  teacher prediction skew sits closer to the IIDness prior than the
  student's.

Per-batch EMA folds in the student as of the start of the batch, before
pseudo-labels are generated, so a zero EMA ratio makes the teacher coincide
with the pseudo-labeling student exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ModelSpec, ParamVector, forward_probs
from .semisup import KlStats, PseudoBatch, SslHyper, pseudo_label

VARIANT_KINDS = ("fedprox_fixmatch", "ts_server_ema", "ts_client_ema", "fedswitch")

# round-level EMA sees the student once per round, so it can run much closer
# to 1 than the per-batch schedules
DEFAULT_EMA_ALPHA = {
    "ts_server_ema": 0.99,
    "ts_client_ema": 0.999,
    "fedswitch": 0.999,
}


@dataclass
class VariantConfig:
    """Which protocol to run and its two scalar knobs."""

    kind: str
    ema_alpha: float = 0.999
    iidness_prior: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if not 0.0 <= self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in [0, 1]")
        if self.iidness_prior < 0:
            raise ValueError("iidness_prior must be non-negative")

    @property
    def uses_teacher(self) -> bool:
        return self.kind != "fedprox_fixmatch"

    @property
    def per_batch_ema(self) -> bool:
        return self.kind in ("ts_client_ema", "fedswitch")


@dataclass
class SwitchDecision:
    """Outcome of the teacher-vs-student downlink rule for one round."""

    send_teacher: bool
    dkl_teacher: float
    dkl_student: float
    round: int


@dataclass
class LocalTeacher:
    """A client's in-round teacher copy; never outlives the round."""

    params: ParamVector
    updated_this_round: bool = False


def ema_update(teacher: ParamVector, student: ParamVector, alpha: float) -> ParamVector:
    """teacher <- alpha * teacher + (1 - alpha) * student, elementwise."""
    teacher.check_compatible(student)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return ParamVector(alpha * teacher.values + (1.0 - alpha) * student.values,
                       teacher.spec_hash)


def switch_decide(last_kl: KlStats, beta: float, round: int = 0) -> SwitchDecision:
    """Send the teacher iff its prediction skew is strictly closer to the
    IIDness prior than the student's; ties keep the cheaper student-only
    downlink.
    """
    send = abs(last_kl.dkl_teacher - beta) < abs(last_kl.dkl_student - beta)
    return SwitchDecision(
        send_teacher=bool(send),
        dkl_teacher=last_kl.dkl_teacher,
        dkl_student=last_kl.dkl_student,
        round=round,
    )


def variant_downlink(
    variant: VariantConfig,
    server,
    decision: SwitchDecision | None = None,
) -> dict[str, ParamVector]:
    """Models the server sends to every participating client this round.

    `server` must expose global_student and global_teacher.
    """
    if variant.kind == "fedprox_fixmatch":
        return {"student": server.global_student}
    if variant.kind in ("ts_server_ema", "ts_client_ema"):
        if server.global_teacher is None:
            raise ValueError(f"{variant.kind} requires a global teacher")
        return {"student": server.global_student, "teacher": server.global_teacher}
    if decision is None:
        raise ValueError("fedswitch downlink requires a switch decision")
    if decision.send_teacher:
        if server.global_teacher is None:
            raise ValueError("fedswitch requires a global teacher")
        return {"student": server.global_student, "teacher": server.global_teacher}
    return {"student": server.global_student}


def variant_batch_hook(
    variant: VariantConfig,
    local_teacher: LocalTeacher | None,
    student_params: ParamVector,
    weak_inputs: np.ndarray,
    spec: ModelSpec,
    hyper: SslHyper,
) -> tuple[PseudoBatch, LocalTeacher | None, np.ndarray]:
    """Per-batch variant step: maintain the local teacher and produce
    pseudo-labels from the weak view.

    Returns (pseudo batch, local teacher to carry forward, probabilities of
    the pseudo-label source on the weak view). The last output feeds the
    teacher-side KL statistic (dkl_T); on student-labeled batches the
    student's own weak-view distribution stands in for it. The student-side
    statistic (dkl_S) is not made here: it comes from the student's
    strong-view probabilities, which the combined objective returns.
    """
    teacher_required = variant.kind in ("ts_server_ema", "ts_client_ema")
    if teacher_required and local_teacher is None:
        raise ValueError(f"{variant.kind} requires a downlinked teacher")

    if variant.kind == "fedprox_fixmatch" or local_teacher is None:
        probs = forward_probs(student_params, spec, weak_inputs)
        return pseudo_label(probs, hyper.tau, source="student"), local_teacher, probs

    if variant.per_batch_ema:
        local_teacher = LocalTeacher(
            params=ema_update(local_teacher.params, student_params, variant.ema_alpha),
            updated_this_round=True,
        )
    probs = forward_probs(local_teacher.params, spec, weak_inputs)
    return pseudo_label(probs, hyper.tau, source="teacher"), local_teacher, probs


def variant_uplink(
    variant: VariantConfig,
    student_delta: ParamVector,
    local_teacher: LocalTeacher | None,
    downlinked_teacher: ParamVector | None,
) -> dict[str, ParamVector]:
    """Model deltas a client sends back; KL scalars ride along separately."""
    if variant.kind != "ts_client_ema":
        return {"student": student_delta}
    if local_teacher is None or downlinked_teacher is None:
        raise ValueError("ts_client_ema uplink requires the local teacher")
    teacher_delta = ParamVector(
        local_teacher.params.values - downlinked_teacher.values,
        student_delta.spec_hash,
    )
    return {"student": student_delta, "teacher": teacher_delta}


def variant_server_merge(
    variant: VariantConfig,
    global_teacher: ParamVector | None,
    aggregated_student: ParamVector,
    uploaded_teachers: list[ParamVector] | None = None,
) -> ParamVector | None:
    """New global teacher after aggregation (None for the teacherless kind).

    ts_client_ema first averages the uploaded local teachers, then applies
    the round-level EMA toward the new student; the others EMA the existing
    global teacher directly.
    """
    if variant.kind == "fedprox_fixmatch":
        return None
    if global_teacher is None:
        raise ValueError(f"{variant.kind} requires a global teacher")
    base = global_teacher
    if variant.kind == "ts_client_ema":
        if not uploaded_teachers:
            raise ValueError("ts_client_ema merge requires uploaded teachers")
        stacked = np.stack([t.values for t in uploaded_teachers])
        base = ParamVector(stacked.mean(axis=0), global_teacher.spec_hash)
    return ema_update(base, aggregated_student, variant.ema_alpha)
