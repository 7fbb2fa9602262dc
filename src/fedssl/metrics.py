"""Accuracy evaluation, communication accounting, and training-stability
statistics.

Every model payload that crosses the network is one ledger entry; bytes are
num_params times bytes_per_param (8 for the float64 core, 4 for comparison
runs). The two KL scalars each client reports ride outside the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nn import ModelSpec, ParamVector, forward_probs

DIRECTIONS = ("downlink", "uplink")
ROLES = ("student", "teacher")


@dataclass(slots=True)
class Transmission:
    """One model payload crossing the network. Slotted: a ledger holds one
    per model sent, tens of thousands per trial at a few hundred clients.
    """

    round: int
    direction: str
    role: str
    client_id: int
    num_params: int
    bytes: int

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")
        if self.round < 0 or self.num_params < 1:
            raise ValueError("round must be >= 0 and num_params >= 1")


_EMPTY_ROUND = {"downlink_models": 0, "downlink_bytes": 0, "uplink_models": 0, "uplink_bytes": 0}


@dataclass
class CommLedger:
    """Append-only transmission log with per-round and per-role rollups.

    Per-round totals are kept running as entries arrive through record and
    extend, so a round's rollup costs the same however long the log grows.
    """

    bytes_per_param: int = 8
    entries: list[Transmission] = field(default_factory=list)
    _rounds: dict[int, dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bytes_per_param not in (4, 8):
            raise ValueError("bytes_per_param must be 4 or 8")
        for e in self.entries:
            self._tally(e)

    def _tally(self, e: Transmission) -> None:
        totals = self._rounds.get(e.round)
        if totals is None:
            totals = self._rounds[e.round] = dict(_EMPTY_ROUND)
        totals[e.direction + "_models"] += 1
        totals[e.direction + "_bytes"] += e.bytes

    def record(
        self, round: int, direction: str, role: str, client_id: int, num_params: int
    ) -> Transmission:
        entry = Transmission(
            round=round,
            direction=direction,
            role=role,
            client_id=client_id,
            num_params=num_params,
            bytes=num_params * self.bytes_per_param,
        )
        self.entries.append(entry)
        self._tally(entry)
        return entry

    def extend(self, entries: list[Transmission]) -> None:
        for e in entries:
            if e.bytes != e.num_params * self.bytes_per_param:
                raise ValueError("entry byte count disagrees with this ledger's scale")
            self.entries.append(e)
            self._tally(e)

    def model_count(self, direction: str, role: str | None = None) -> int:
        return sum(
            1
            for e in self.entries
            if e.direction == direction and (role is None or e.role == role)
        )

    def total_bytes(self, direction: str) -> int:
        return sum(e.bytes for e in self.entries if e.direction == direction)

    def round_totals(self, round: int) -> dict[str, int]:
        return dict(self._rounds.get(round, _EMPTY_ROUND))


@dataclass
class RoundReport:
    """Everything one round contributes to the per-round CSV."""

    round: int
    acc_student: float
    acc_teacher: float
    dkl_teacher: float
    dkl_student: float
    send_teacher: bool
    downlink_bytes: int
    uplink_bytes: int

    def __post_init__(self) -> None:
        for name in ("acc_student", "acc_teacher"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")

    @staticmethod
    def csv_header() -> str:
        return "round,acc_student,acc_teacher,dkl_T,dkl_S,send_teacher,downlink_bytes,uplink_bytes"

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.round),
                repr(self.acc_student),
                repr(self.acc_teacher),
                repr(self.dkl_teacher),
                repr(self.dkl_student),
                str(int(self.send_teacher)),
                str(self.downlink_bytes),
                str(self.uplink_bytes),
            ]
        )


def evaluate(params: ParamVector, spec: ModelSpec, test: Dataset) -> float:
    """Fraction of argmax predictions matching the labels."""
    if test.size < 1:
        raise ValueError("test set must be non-empty")
    probs = forward_probs(params, spec, test.inputs)
    return float((probs.argmax(axis=1) == test.labels).mean())


def stability_stats(reports: list, window: int) -> tuple[float, float]:
    """(population std, max peak-to-trough drop) of student accuracy over the
    trailing `window` reports. Accepts RoundReports or bare floats.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(reports):
        raise ValueError(f"window {window} exceeds {len(reports)} reports")
    acc = np.array(
        [r.acc_student if isinstance(r, RoundReport) else float(r) for r in reports],
        dtype=np.float64,
    )[-window:]
    peaks = np.maximum.accumulate(acc)
    drawdown = float(np.max(peaks - acc))
    return float(np.std(acc)), drawdown
