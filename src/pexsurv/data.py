"""Survival datasets: per-record observations, CSV round-trip, bundled data.

The on-disk format is a plain CSV with a mandatory header
``subject,replicate,time,status`` followed by one column per covariate.
``time`` holds the event time when ``status == 1`` and the censoring time
when ``status == 0`` (the usual time/status encoding of survival data).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat
from operator import index, sub

import numpy as np

__all__ = [
    "DataFormatError",
    "SurvivalRecord",
    "SurvivalDataset",
    "read_dataset_csv",
    "write_dataset_csv",
    "load_kidney",
]

_BASE_COLUMNS = ("subject", "replicate", "time", "status")
_NOT_CONTIGUOUS = "subject ids must form a contiguous integer range"


class DataFormatError(ValueError):
    """Malformed dataset file or inconsistent record collection."""


@dataclass(frozen=True, slots=True, init=False)
class SurvivalRecord:
    """One observation: an event time or a right-censoring time.

    ``event == 1`` requires a positive ``time`` and ignores ``censor_time``;
    ``event == 0`` requires ``time is None`` and a positive ``censor_time``.
    ``covariates`` is stored as a tuple, ordered like the owning dataset's
    ``covariate_names``.  Records are slotted, so they have no ``__dict__``;
    ``__init__`` checks its arguments, then sets each field through its
    slot's descriptor.
    """

    subject_id: int
    replicate_id: int
    time: float | None
    event: int
    censor_time: float = 0.0
    covariates: tuple[float, ...] = ()

    def __init__(self, subject_id, replicate_id, time, event, censor_time=0.0, covariates=()):
        if event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {event!r}")
        if event == 1:
            if time is None or not math.isfinite(time) or time <= 0:
                raise ValueError("event records need a finite positive time")
        else:
            if time is not None:
                raise ValueError("censored records must leave time unset")
            if not math.isfinite(censor_time) or censor_time <= 0:
                raise ValueError("censored records need a finite positive censor_time")
        if censor_time < 0:
            raise ValueError("censor_time cannot be negative")
        # a copy, so a caller's list cannot change after the check
        covariates = tuple(covariates)
        if covariates and not all(map(math.isfinite, covariates)):
            raise ValueError(f"covariates must be finite, got {covariates!r}")
        _set_subject_id(self, subject_id)
        _set_replicate_id(self, replicate_id)
        _set_time(self, time)
        _set_event(self, event)
        _set_censor_time(self, censor_time)
        _set_covariates(self, covariates)


# Each slot's member descriptor, bound once: its __set__ stores a field past
# the frozen __setattr__ without looking the name up on the type per call.
_set_subject_id = SurvivalRecord.__dict__["subject_id"].__set__
_set_replicate_id = SurvivalRecord.__dict__["replicate_id"].__set__
_set_time = SurvivalRecord.__dict__["time"].__set__
_set_event = SurvivalRecord.__dict__["event"].__set__
_set_censor_time = SurvivalRecord.__dict__["censor_time"].__set__
_set_covariates = SurvivalRecord.__dict__["covariates"].__set__


class SurvivalDataset:
    """Immutable collection of :class:`SurvivalRecord` with named covariates.

    Subject ids must form a contiguous integer range (any starting value),
    each ``(subject_id, replicate_id)`` pair may occur once, the
    ``covariate_names`` must be distinct and their number must match the
    arity of every record; subject and replicate ids must be integers.  The
    arrays used by the model and sampler layers (``subject_positions``,
    ``event_flags``, ``marginal_times`` and ``design_matrix``) are built once,
    at construction, checked in bulk and read-only: copy one before writing
    to it.
    """

    def __init__(self, records, covariate_names=()):
        self.records: tuple[SurvivalRecord, ...] = tuple(records)
        records = self.records
        self.covariate_names: tuple[str, ...] = tuple(str(n) for n in covariate_names)
        n, p = len(records), len(self.covariate_names)
        # a repeated name would give two coefficients one monitored name, so
        # a fit would keep the draws of only one of them
        for i, name in enumerate(self.covariate_names):
            if name in self.covariate_names[:i]:
                raise DataFormatError(f"covariate name {name!r} is repeated")
        covariates = [r.covariates for r in records]
        wrong_arity = np.fromiter(map(len, covariates), np.intp, n) != p
        if wrong_arity.any():
            i = int(np.argmax(wrong_arity))
            raise DataFormatError(f"record {i} has {len(covariates[i])} covariates, expected {p}")
        # TypeError for a non-integer id; as Python ints, the differences
        # below cannot wrap around
        subject_ids = [index(r.subject_id) for r in records]
        base = min(subject_ids, default=0)
        try:
            positions = np.fromiter(map(sub, subject_ids, repeat(base)), np.intp, n)
        except OverflowError:  # a gap wider than intp
            raise DataFormatError(_NOT_CONTIGUOUS) from None
        # with every position below n, count the records of each subject: the
        # ids are contiguous when every subject has one
        if n and positions.max() >= n:
            raise DataFormatError(_NOT_CONTIGUOUS)
        sizes = np.bincount(positions)
        if not sizes.all():
            raise DataFormatError(_NOT_CONTIGUOUS)
        self.n_subjects: int = sizes.size
        #: 0-based contiguous subject index per record
        self.subject_positions = positions
        self.event_flags = np.fromiter((r.event == 1 for r in records), bool, n)
        #: event time for events, censoring time for censored records
        self.marginal_times = np.array(
            [r.time if r.event == 1 else r.censor_time for r in records], dtype=float
        )
        design = np.fromiter(chain.from_iterable(covariates), float, n * p)
        # read-only before the reshape, so the (n, p) view is read-only too
        for array in (self.subject_positions, self.event_flags, self.marginal_times, design):
            array.flags.writeable = False
        self.design_matrix = design.reshape(n, p)
        replicate_ids = [r.replicate_id for r in records]
        try:
            # TypeError for a non-integer id
            replicate = np.fromiter(map(index, replicate_ids), np.int64, n)
        except OverflowError:
            raise DataFormatError("replicate ids must fit in 64 bits") from None
        # stable sort by (subject, replicate): a repeated pair is adjacent and
        # its second member is the later record
        subject = self.subject_positions
        order = np.lexsort((replicate, subject))
        same = (np.diff(subject[order]) == 0) & (np.diff(replicate[order]) == 0)
        if same.any():
            i = int(order[np.argmax(same) + 1])
            r = records[i]
            raise DataFormatError(
                f"record {i} repeats subject {r.subject_id}, replicate {r.replicate_id}"
            )

    def __len__(self):
        return len(self.records)

    def __eq__(self, other):
        if not isinstance(other, SurvivalDataset):
            return NotImplemented
        return (
            self.records == other.records and self.covariate_names == other.covariate_names
        )

    def __hash__(self):
        return hash((self.records, self.covariate_names))

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_events(self) -> int:
        return int(self.event_flags.sum())

    @property
    def max_observed_time(self) -> float:
        return float(self.marginal_times.max())


def _parse_row(row, lineno, n_cov, where):
    if len(row) != 4 + n_cov:
        raise DataFormatError(
            f"{where}:{lineno}: expected {4 + n_cov} fields, found {len(row)}"
        )
    try:
        subject = int(row[0])
        replicate = int(row[1])
        status = int(row[3])
        cov = tuple(float(v) for v in row[4:])
    except ValueError as exc:
        raise DataFormatError(f"{where}:{lineno}: {exc}") from None
    if status not in (0, 1):
        raise DataFormatError(f"{where}:{lineno}: status must be 0 or 1, got {row[3]!r}")
    raw_time = row[2].strip()
    if raw_time == "":
        raise DataFormatError(
            f"{where}:{lineno}: missing time "
            + ("for an event record" if status == 1 else "for a censored record")
        )
    try:
        t = float(raw_time)
    except ValueError:
        raise DataFormatError(f"{where}:{lineno}: invalid time {raw_time!r}") from None
    try:
        if status == 1:
            return SurvivalRecord(subject, replicate, t, 1, 0.0, cov)
        return SurvivalRecord(subject, replicate, None, 0, t, cov)
    except ValueError as exc:
        raise DataFormatError(f"{where}:{lineno}: {exc}") from None


def _read_csv_stream(fh, where) -> SurvivalDataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{where}: empty file") from None
    header = [h.strip() for h in header]
    if tuple(header[:4]) != _BASE_COLUMNS:
        raise DataFormatError(
            f"{where}: header must start with {','.join(_BASE_COLUMNS)}, got {','.join(header)}"
        )
    names = tuple(header[4:])
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        records.append(_parse_row(row, lineno, len(names), where))
    return SurvivalDataset(records, names)


def read_dataset_csv(path) -> SurvivalDataset:
    """Parse a dataset CSV; malformed rows are reported with line numbers."""
    with open(path, newline="") as fh:
        return _read_csv_stream(fh, str(path))


def write_dataset_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset back to CSV; re-reading yields an equal dataset."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_BASE_COLUMNS) + list(data.covariate_names))
        for r in data.records:
            t = r.time if r.event == 1 else r.censor_time
            # plain float and int text, whatever numeric types the record holds
            writer.writerow(
                [r.subject_id, r.replicate_id, repr(float(t)), int(r.event)]
                + [repr(float(v)) for v in r.covariates]
            )


def load_kidney() -> SurvivalDataset:
    """Bundled kidney catheter infection data.

    38 dialysis patients, two catheter insertions each (76 records, 18
    right-censored), from McGilchrist & Aisbett (1991, *Biometrics* 47(2)) as
    distributed in R's ``survival::kidney``.  Covariates: ``sex`` and ``age``
    in years at each insertion.  The source codes sex 1 = male, 2 = female;
    here it is recoded to 0 = male, 1 = female.  The source's disease-type
    factor and its ``frail`` column are not carried.
    """
    text = resources.files("pexsurv.datasets").joinpath("kidney.csv").read_text()
    return _read_csv_stream(io.StringIO(text), "kidney.csv")
