"""Protocol variants: pseudo-label source, teacher maintenance, transport.

Four variants share one round loop, which makes no teacher-policy decision
of its own: it calls the four hooks below, and they decide from the row of
VARIANTS that names the variant:

- fedprox_fixmatch: no teacher anywhere; the student labels its own batches.
- ts_server_ema: the server's teacher is downlinked and stays frozen during
  local training; the server EMA-updates it from the aggregated student.
- ts_client_ema: the downlinked teacher adapts locally (one EMA step per
  batch) and is uploaded back as a delta; the server rebuilds and averages
  the uploads and then applies the round-level EMA.
- fedswitch: the teacher adapts locally like ts_client_ema but is never
  uploaded; variant_downlink sends it on round 0, then only when the
  previous round's dkl_T sits closer to the IIDness prior than its dkl_S.

Per-batch EMA folds in the student as of the start of the batch, before
pseudo-labels are generated, so a zero EMA ratio makes the teacher coincide
with the pseudo-labeling student exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import SCRATCH, ModelSpec, ParamVector, Workspace, forward_probs
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


@dataclass(frozen=True)
class VariantConfig:
    """Which protocol to run and its two scalar knobs.

    ema_alpha None means the kind's default_alpha (resolved_alpha), read
    when the EMA runs, so replacing the kind also replaces the default.
    iidness_prior may be the literal string "auto", which the runner
    resolves per trial to the mean ground-truth KL of the clients'
    unlabeled label distributions; init_server refuses it unresolved.
    """

    kind: str = "fedswitch"
    ema_alpha: float | None = None
    iidness_prior: float | str = 0.0

    def __post_init__(self) -> None:
        auto = self.iidness_prior == "auto"
        if isinstance(self.iidness_prior, str) and not auto:
            raise ValueError("iidness_prior must be a number or 'auto'")
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}, expected one of {VARIANT_KINDS}")
        alpha, prior = self.resolved_alpha, 0.0 if auto else self.iidness_prior
        for name, value in (("ema_alpha", alpha), ("iidness_prior", prior)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("ema_alpha must be in [0, 1]")
        if prior < 0:
            raise ValueError("iidness_prior must be non-negative")

    @property
    def resolved_alpha(self) -> float:
        """The EMA rate the run uses: ema_alpha, else the kind's default."""
        return VARIANTS[self.kind].default_alpha if self.ema_alpha is None else self.ema_alpha


def ema_update(teacher: ParamVector, student: ParamVector, alpha: float,
               workspace: Workspace | None = None) -> ParamVector:
    """teacher <- alpha * teacher + (1 - alpha) * student, elementwise.

    Either side may be a [K, P] stack; a single [P] teacher EMA-ed toward a
    stack of students becomes a stack of teachers. With a workspace the
    result lives in it under ema_update, and the pulled student is made in
    its scratch arena (see nn.Workspace); a teacher that already lives
    there is updated in place and returned as it is, so the layer views a
    forward pass built on it (ParamVector.layers) serve every later batch.
    """
    teacher.check_compatible(student)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    ws = Workspace() if workspace is None else workspace
    shape = max(teacher.values.shape, student.values.shape, key=len)
    pulled = np.multiply(student.values, 1.0 - alpha, out=ws.take(SCRATCH, shape))
    out = np.multiply(teacher.values, alpha, out=ws.take("ema_update", shape))
    out += pulled
    return teacher if out is teacher.values else ParamVector(out, teacher.spec_hash)


def switch_decide(last_kl: KlStats, beta: float) -> bool:
    """Send the teacher iff its prediction skew is strictly closer to the
    IIDness prior than the student's; ties keep the cheaper student-only
    downlink.
    """
    return bool(abs(last_kl.dkl_teacher - beta) < abs(last_kl.dkl_student - beta))


def variant_downlink(variant: VariantConfig, server) -> dict[str, ParamVector]:
    """Models the server sends to every participating client this round.

    `server` must expose global_student, global_teacher, round and last_kl.
    The switching variant sends its teacher on round 0, and afterwards only
    when switch_decide picks it from the previous round's KL statistics.
    """
    traits = VARIANTS[variant.kind]
    down = {"student": server.global_student}
    if not traits.teacher:
        return down
    # round 0 has no KL stats yet; sending the teacher is observationally
    # neutral (teacher == student at init) and exercises the EMA path
    if traits.switches and server.round > 0 and not switch_decide(
            server.last_kl, variant.iidness_prior):
        return down
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
    workspace: Workspace | None = None,
) -> tuple[PseudoBatch, ParamVector | None]:
    """Per-batch variant step: maintain the client's in-round teacher copy
    and produce pseudo-labels from the weak view.

    Returns (pseudo batch, local teacher to carry forward). The
    pseudo-labels, the argmax of the source's weak-view probabilities, feed
    the teacher-side KL statistic (dkl_T); on student-labeled batches the
    student's own weak-view labels stand in for it. The student-side
    statistic (dkl_S) is not made here: it comes from the student's
    strong-view probabilities, which the combined objective returns.

    For K clients in lockstep, student_params and the local teacher are
    [K, P] stacks and weak_inputs [K, B, d], and every output is per client.
    With a workspace, the outputs live in it (see ema_update, forward_probs
    and pseudo_label), so the local teacher is updated in place from its
    second step on.
    """
    traits = VARIANTS[variant.kind]
    # only the switching variant may run a round without a teacher
    if traits.teacher and not traits.switches and local_teacher is None:
        raise ValueError(f"{variant.kind} requires a downlinked teacher")

    if not traits.teacher or local_teacher is None:
        probs = forward_probs(student_params, spec, weak_inputs, workspace=workspace)
        return pseudo_label(probs, hyper.tau, source="student", workspace=workspace), local_teacher

    if traits.local_ema:
        local_teacher = ema_update(local_teacher, student_params, variant.resolved_alpha,
                                   workspace=workspace)
    probs = forward_probs(local_teacher, spec, weak_inputs, workspace=workspace)
    return pseudo_label(probs, hyper.tau, source="teacher", workspace=workspace), local_teacher


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
    teacher_deltas: ParamVector | None = None,
) -> ParamVector | None:
    """New global teacher after aggregation (None for the teacherless kind).

    A variant whose clients upload their teachers rebuilds the uploads, one
    broadcast add of the global teacher it sent to teacher_deltas (the
    clients' [M, P] stack, in client-id order), averages them, then applies
    the round-level EMA toward the new student; the others EMA the existing
    global teacher directly and ignore teacher_deltas.
    """
    traits = VARIANTS[variant.kind]
    if not traits.teacher:
        return None
    if global_teacher is None:
        raise ValueError(f"{variant.kind} requires a global teacher")
    base = global_teacher
    if traits.uploads_teacher:
        if teacher_deltas is None or teacher_deltas.values.ndim != 2 or not len(
                teacher_deltas.values):
            raise ValueError(f"{variant.kind} merge requires a [M, P] stack of the clients' "
                             f"teacher deltas")
        global_teacher.check_compatible(teacher_deltas)
        uploads = global_teacher.values + teacher_deltas.values
        base = ParamVector(uploads.mean(axis=0), global_teacher.spec_hash)
    return ema_update(base, aggregated_student, variant.resolved_alpha)
