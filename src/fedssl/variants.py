"""Protocol variants: pseudo-label source, teacher maintenance, transport.

Four variants share one client loop and differ only in the row of VARIANTS
that names them:

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


@dataclass(frozen=True)
class VariantTraits:
    """The choices that set one protocol variant apart from the others."""

    teacher: bool  # a global teacher exists and is EMA-merged every round
    local_ema: bool  # the client's teacher copy takes one EMA step per batch
    uploads_teacher: bool  # clients uplink their teacher delta for averaging
    switches: bool  # the server downlinks the teacher only when the rule says so
    # round-level EMA sees the student once per round, so it can run much
    # closer to 1 than the per-batch schedules; the teacherless baseline
    # ignores the value
    default_alpha: float


VARIANTS = {
    "fedprox_fixmatch": VariantTraits(
        teacher=False, local_ema=False, uploads_teacher=False, switches=False,
        default_alpha=0.999),
    "ts_server_ema": VariantTraits(
        teacher=True, local_ema=False, uploads_teacher=False, switches=False,
        default_alpha=0.99),
    "ts_client_ema": VariantTraits(
        teacher=True, local_ema=True, uploads_teacher=True, switches=False,
        default_alpha=0.999),
    "fedswitch": VariantTraits(
        teacher=True, local_ema=True, uploads_teacher=False, switches=True,
        default_alpha=0.999),
}
VARIANT_KINDS = tuple(VARIANTS)


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


@dataclass
class SwitchDecision:
    """Outcome of the teacher-vs-student downlink rule for one round."""

    send_teacher: bool
    dkl_teacher: float
    dkl_student: float
    round: int


def ema_update(teacher: ParamVector, student: ParamVector, alpha: float) -> ParamVector:
    """teacher <- alpha * teacher + (1 - alpha) * student, elementwise.

    Either side may be a [K, P] stack; a single [P] teacher EMA-ed toward a
    stack of students becomes a stack of teachers.
    """
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
    traits = VARIANTS[variant.kind]
    down = {"student": server.global_student}
    if traits.switches:
        if decision is None:
            raise ValueError(f"{variant.kind} downlink requires a switch decision")
        if not decision.send_teacher:
            return down
    if traits.teacher:
        if server.global_teacher is None:
            raise ValueError(f"{variant.kind} requires a global teacher")
        down["teacher"] = server.global_teacher
    return down


def variant_batch_hook(
    variant: VariantConfig,
    local_teacher: ParamVector | None,
    student_params: ParamVector,
    weak_inputs: np.ndarray,
    spec: ModelSpec,
    hyper: SslHyper,
) -> tuple[PseudoBatch, ParamVector | None, np.ndarray]:
    """Per-batch variant step: maintain the client's in-round teacher copy
    and produce pseudo-labels from the weak view.

    Returns (pseudo batch, local teacher to carry forward, probabilities of
    the pseudo-label source on the weak view). The last output feeds the
    teacher-side KL statistic (dkl_T); on student-labeled batches the
    student's own weak-view distribution stands in for it. The student-side
    statistic (dkl_S) is not made here: it comes from the student's
    strong-view probabilities, which the combined objective returns.

    For K clients in lockstep, student_params is a [K, P] stack and
    weak_inputs [K, B, d]; the teacher is the shared [P] downlink until its
    first local EMA step makes it a stack, and every output is per client.
    """
    traits = VARIANTS[variant.kind]
    # only the switching variant may run a round without a teacher
    if traits.teacher and not traits.switches and local_teacher is None:
        raise ValueError(f"{variant.kind} requires a downlinked teacher")

    if not traits.teacher or local_teacher is None:
        probs = forward_probs(student_params, spec, weak_inputs)
        return pseudo_label(probs, hyper.tau, source="student"), local_teacher, probs

    if traits.local_ema:
        local_teacher = ema_update(local_teacher, student_params, variant.ema_alpha)
    probs = forward_probs(local_teacher, spec, weak_inputs)
    return pseudo_label(probs, hyper.tau, source="teacher"), local_teacher, probs


def variant_uplink(
    variant: VariantConfig,
    student_delta: ParamVector,
    local_teacher: ParamVector | None,
    downlinked_teacher: ParamVector | None,
) -> dict[str, ParamVector]:
    """Model deltas a client sends back; KL scalars ride along separately."""
    if not VARIANTS[variant.kind].uploads_teacher:
        return {"student": student_delta}
    if local_teacher is None or downlinked_teacher is None:
        raise ValueError(f"{variant.kind} uplink requires the local teacher")
    teacher_delta = ParamVector(
        local_teacher.values - downlinked_teacher.values,
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

    A variant whose clients upload their teachers first averages the
    uploads, then applies the round-level EMA toward the new student; the
    others EMA the existing global teacher directly.
    """
    traits = VARIANTS[variant.kind]
    if not traits.teacher:
        return None
    if global_teacher is None:
        raise ValueError(f"{variant.kind} requires a global teacher")
    base = global_teacher
    if traits.uploads_teacher:
        if not uploaded_teachers:
            raise ValueError(f"{variant.kind} merge requires uploaded teachers")
        stacked = np.stack([t.values for t in uploaded_teachers])
        base = ParamVector(stacked.mean(axis=0), global_teacher.spec_hash)
    return ema_update(base, aggregated_student, variant.ema_alpha)
