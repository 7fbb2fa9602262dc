"""Accuracy evaluation, communication accounting, and training-stability
statistics.

Every model payload that crosses the network, downlink or uplink, is one
ledger entry, recorded by engine.run_round. The ledger alone prices it:
bytes are num_params times bytes_per_param (8 for the float64 core, 4 for
comparison runs). It keeps a round's entries of one direction as one
block (the round, direction and size once, then each entry's role and
client id), and reads an entry back as the plain tuple transmissions.csv
writes. The two KL scalars each client reports are not metered.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .data import Dataset
from .nn import ModelSpec, ParamVector, forward_probs

DIRECTIONS = ("downlink", "uplink")
ROLES = ("student", "teacher")


# a round's running totals are [downlink_models, downlink_bytes,
# uplink_models, uplink_bytes]: direction code d owns slots 2d and 2d + 1
_TOTAL_KEYS = ("downlink_models", "downlink_bytes", "uplink_models", "uplink_bytes")


def _code(names: tuple[str, ...], value: str, what: str) -> int:
    try:
        return names.index(value)
    except ValueError:
        raise ValueError(f"{what} must be one of {names}") from None


class _Block:
    """Consecutive ledger entries of one round, one direction and one model
    size: the role code and the client id of each, in sent order (5 bytes
    an entry).
    """

    __slots__ = ("round", "direction", "num_params", "roles", "client_ids")

    def __init__(self, round: int, direction: int, num_params: int) -> None:
        self.round, self.direction, self.num_params = round, direction, num_params
        self.roles = array("b")
        self.client_ids = array("i")


class CommLedger:
    """Append-only transmission log with per-round and per-role rollups.

    The entries are kept in blocks: a block holds one round, one direction
    and one model size once, and each entry's role and client id (5 bytes a
    model). A record call that shares the last block's round, direction and
    size extends it, so run_round, which meters each direction of a round
    with one call, makes two blocks a round. An entry's bytes are derived
    from bytes_per_param. entries is a read-only view with a length that
    yields each entry as a (round, direction, role, client_id, num_params,
    bytes) tuple as it is iterated. Per-round totals are kept running as
    entries arrive, so a round's rollup costs the same however long the log
    grows. extend appends such tuples after checking them against this
    ledger's price.
    """

    def __init__(self, bytes_per_param: int = 8) -> None:
        if bytes_per_param not in (4, 8):
            raise ValueError("bytes_per_param must be 4 or 8")
        self._bytes_per_param = bytes_per_param
        self._size = 0
        self._blocks: list[_Block] = []
        self._rounds: dict[int, list[int]] = {}

    @property
    def bytes_per_param(self) -> int:
        return self._bytes_per_param

    @property
    def entries(self) -> LedgerEntries:
        return LedgerEntries(self)

    def record(self, round: int, direction: str, role: str | Sequence[str],
               client_id: int | Sequence[int], num_params: int) -> None:
        """Meter models of num_params parameters sent in one direction in
        one round. role and client_id are one each, or sequences: each
        client in client_id, in order, is sent (or sends) one model per
        role, in the order of role.
        """
        d = _code(DIRECTIONS, direction, "direction")
        roles = [_code(ROLES, r, "role") for r in ((role,) if isinstance(role, str) else role)]
        if round < 0 or num_params < 1:
            raise ValueError("round must be >= 0 and num_params >= 1")
        # an id the column cannot hold raises here, before anything moves
        ids = array("i", (client_id,) if isinstance(client_id, Integral) else client_id)
        count = len(roles) * len(ids)
        if not count:
            return
        block = self._blocks[-1] if self._blocks else None
        if block is None or (block.round, block.direction, block.num_params) != (
                round, d, num_params):
            block = _Block(round, d, num_params)
            self._blocks.append(block)
        block.roles.extend(array("b", roles) * len(ids))
        block.client_ids.extend(array("i", [cid for cid in ids for _ in roles]))
        self._size += count
        totals = self._rounds.get(round)
        if totals is None:
            totals = self._rounds[round] = [0, 0, 0, 0]
        totals[2 * d] += count
        totals[2 * d + 1] += count * num_params * self._bytes_per_param

    def extend(self, entries: Iterable[tuple[int, str, str, int, int, int]]) -> None:
        for rnd, direction, role, client_id, num_params, size in entries:
            if size != num_params * self._bytes_per_param:
                raise ValueError("entry byte count disagrees with this ledger's scale")
            self.record(rnd, direction, role, client_id, num_params)

    def model_count(self, direction: str, role: str | None = None) -> int:
        d = _code(DIRECTIONS, direction, "direction")
        r = None if role is None else _code(ROLES, role, "role")
        return sum(len(b.roles) if r is None else b.roles.count(r)
                   for b in self._blocks if b.direction == d)

    def total_bytes(self, direction: str) -> int:
        slot = 2 * _code(DIRECTIONS, direction, "direction") + 1
        return sum(totals[slot] for totals in self._rounds.values())

    def round_totals(self, round: int) -> dict[str, int]:
        return dict(zip(_TOTAL_KEYS, self._rounds.get(round, (0, 0, 0, 0))))


class LedgerEntries:
    """A read-only view of a CommLedger's entries, in recording order: its
    length, and on iteration each entry's (round, direction, role,
    client_id, num_params, bytes) tuple, the row transmissions.csv writes.
    The view follows entries recorded after it was taken.
    """

    __slots__ = ("_ledger",)

    def __init__(self, ledger: CommLedger) -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return self._ledger._size

    def __iter__(self) -> Iterator[tuple[int, str, str, int, int, int]]:
        ledger = self._ledger
        bpp = ledger.bytes_per_param
        for b in ledger._blocks:
            direction, n = DIRECTIONS[b.direction], b.num_params
            for r, cid in zip(b.roles, b.client_ids):
                yield b.round, direction, ROLES[r], cid, n, n * bpp


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


def stability_stats(accuracies: Sequence[float], window: int) -> tuple[float, float]:
    """(population std, max peak-to-trough drop) of the trailing `window`
    student accuracies.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(accuracies):
        raise ValueError(f"window {window} exceeds {len(accuracies)} accuracies")
    acc = np.array(accuracies[-window:], dtype=np.float64)
    peaks = np.maximum.accumulate(acc)
    drawdown = float(np.max(peaks - acc))
    return float(np.std(acc)), drawdown
