"""Accuracy evaluation, communication accounting, and training-stability
statistics.

Every model payload that crosses the network, downlink or uplink, is one
ledger entry, recorded by engine.run_round. The ledger alone prices it:
bytes are num_params times bytes_per_param (8 for the float64 core, 4 for
comparison runs). It keeps its entries in typed columns, a few bytes per
model, and builds a Transmission only when an entry is read back. The two
KL scalars each client reports are not metered.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .data import Dataset
from .nn import ModelSpec, ParamVector, forward_probs

DIRECTIONS = ("downlink", "uplink")
ROLES = ("student", "teacher")


@dataclass(slots=True)
class Transmission:
    """One model payload crossing the network, as CommLedger.entries reads
    it back.
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


# a round's running totals are [downlink_models, downlink_bytes,
# uplink_models, uplink_bytes]: direction code d owns slots 2d and 2d + 1
_TOTAL_KEYS = ("downlink_models", "downlink_bytes", "uplink_models", "uplink_bytes")


class CommLedger:
    """Append-only transmission log with per-round and per-role rollups.

    Each entry is one row of five typed columns (round, direction code, role
    code, client id, num_params: 18 bytes a model), and its bytes are derived
    from bytes_per_param. The columns double their capacity when full, so a
    trial moves them a few times, not hundreds: each move of a growing block
    fragments the heap, and appending one entry at a time raised desk's peak
    RSS. entries is a read-only sequence view that builds a Transmission per
    entry read; rows() yields the same fields as plain tuples. Per-round
    totals are kept running as entries arrive, so a round's rollup costs the
    same however long the log grows. The pipeline records through record
    alone; extend, like the constructor, appends prebuilt entries after
    checking them against this ledger's price.
    """

    def __init__(self, bytes_per_param: int = 8, entries: Iterable[Transmission] = ()) -> None:
        if bytes_per_param not in (4, 8):
            raise ValueError("bytes_per_param must be 4 or 8")
        self._bytes_per_param = bytes_per_param
        # the first _size rows of the columns are entries; the rest is room
        self._size = 0
        self._columns = tuple(array(code, [0]) * 64 for code in "ibbiq")
        self._round, self._direction, self._role, self._client_id, self._num_params = self._columns
        self._rounds: dict[int, list[int]] = {}
        if entries:
            self.extend(entries)

    @property
    def bytes_per_param(self) -> int:
        return self._bytes_per_param

    @property
    def entries(self) -> LedgerEntries:
        return LedgerEntries(self)

    def record(
        self, round: int, direction: str, role: str, client_id: int, num_params: int
    ) -> None:
        try:
            d = DIRECTIONS.index(direction)
        except ValueError:
            raise ValueError(f"direction must be one of {DIRECTIONS}") from None
        try:
            r = ROLES.index(role)
        except ValueError:
            raise ValueError(f"role must be one of {ROLES}") from None
        if round < 0 or num_params < 1:
            raise ValueError("round must be >= 0 and num_params >= 1")
        n = self._size
        if n == len(self._round):
            for column in self._columns:
                column.extend(column)
        # a value a column cannot hold raises before _size moves, so a
        # failed call leaves no partial row
        self._round[n] = round
        self._client_id[n] = client_id
        self._num_params[n] = num_params
        self._direction[n] = d
        self._role[n] = r
        self._size = n + 1
        totals = self._rounds.get(round)
        if totals is None:
            totals = self._rounds[round] = [0, 0, 0, 0]
        totals[2 * d] += 1
        totals[2 * d + 1] += num_params * self._bytes_per_param

    def extend(self, entries: Iterable[Transmission]) -> None:
        for e in entries:
            if e.bytes != e.num_params * self._bytes_per_param:
                raise ValueError("entry byte count disagrees with this ledger's scale")
            self.record(e.round, e.direction, e.role, e.client_id, e.num_params)

    def rows(self) -> Iterator[tuple[int, str, str, int, int, int]]:
        """Each entry's (round, direction, role, client_id, num_params,
        bytes), in recording order, without building a Transmission.
        """
        bpp = self._bytes_per_param
        for rnd, d, r, cid, n in islice(zip(*self._columns), self._size):
            yield rnd, DIRECTIONS[d], ROLES[r], cid, n, n * bpp

    def model_count(self, direction: str, role: str | None = None) -> int:
        return sum(
            1
            for d, r in islice(zip(self._direction, self._role), self._size)
            if DIRECTIONS[d] == direction and (role is None or ROLES[r] == role)
        )

    def total_bytes(self, direction: str) -> int:
        if direction not in DIRECTIONS:
            return 0
        slot = 2 * DIRECTIONS.index(direction) + 1
        return sum(totals[slot] for totals in self._rounds.values())

    def round_totals(self, round: int) -> dict[str, int]:
        return dict(zip(_TOTAL_KEYS, self._rounds.get(round, (0, 0, 0, 0))))


class LedgerEntries(Sequence):
    """A read-only view of a CommLedger's entries, in recording order. Each
    item read is a Transmission built from the ledger's columns; the view
    follows entries recorded after it was taken.
    """

    __slots__ = ("_ledger",)

    def __init__(self, ledger: CommLedger) -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return self._ledger._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        led = self._ledger
        n = led._num_params[i]
        return Transmission(led._round[i], DIRECTIONS[led._direction[i]], ROLES[led._role[i]],
                            led._client_id[i], n, n * led._bytes_per_param)

    def __iter__(self) -> Iterator[Transmission]:
        return (Transmission(*row) for row in self._ledger.rows())


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
