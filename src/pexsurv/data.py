"""Survival datasets: per-record observations, CSV round-trip, bundled data.

The on-disk format is a plain CSV with a mandatory header
``subject,replicate,time,status`` followed by one column per covariate.
``time`` holds the event time when ``status == 1`` and the censoring time
when ``status == 0`` (the usual time/status encoding of survival data).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

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


class DataFormatError(ValueError):
    """Malformed dataset file or inconsistent record collection."""


@dataclass(frozen=True)
class SurvivalRecord:
    """One observation: an event time or a right-censoring time.

    ``event == 1`` requires a positive ``time`` and ignores ``censor_time``;
    ``event == 0`` requires ``time is None`` and a positive ``censor_time``.
    ``covariates`` is ordered like the owning dataset's ``covariate_names``.
    """

    subject_id: int
    replicate_id: int
    time: float | None
    event: int
    censor_time: float = 0.0
    covariates: tuple[float, ...] = ()

    def __post_init__(self):
        if self.event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {self.event!r}")
        if self.event == 1:
            if self.time is None or not np.isfinite(self.time) or self.time <= 0:
                raise ValueError("event records need a finite positive time")
        else:
            if self.time is not None:
                raise ValueError("censored records must leave time unset")
            if not np.isfinite(self.censor_time) or self.censor_time <= 0:
                raise ValueError("censored records need a finite positive censor_time")
        if self.censor_time < 0:
            raise ValueError("censor_time cannot be negative")


class SurvivalDataset:
    """Immutable collection of :class:`SurvivalRecord` with named covariates.

    Subject ids must form a contiguous integer range (any starting value);
    covariate arity must match ``covariate_names`` on every record.  Array
    views used by the model and sampler layers are cached lazily.
    """

    def __init__(self, records, covariate_names=()):
        self.records: tuple[SurvivalRecord, ...] = tuple(records)
        self.covariate_names: tuple[str, ...] = tuple(str(n) for n in covariate_names)
        p = len(self.covariate_names)
        for i, r in enumerate(self.records):
            if len(r.covariates) != p:
                raise DataFormatError(
                    f"record {i} has {len(r.covariates)} covariates, expected {p}"
                )
        ids = sorted({r.subject_id for r in self.records})
        if ids and ids != list(range(ids[0], ids[0] + len(ids))):
            raise DataFormatError("subject ids must form a contiguous integer range")
        self._id_base = ids[0] if ids else 0
        self._n_subjects = len(ids)

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
    def n_subjects(self) -> int:
        return self._n_subjects

    @cached_property
    def subject_positions(self) -> np.ndarray:
        """0-based contiguous subject index per record."""
        return np.array([r.subject_id - self._id_base for r in self.records], dtype=np.intp)

    @cached_property
    def event_flags(self) -> np.ndarray:
        return np.array([r.event == 1 for r in self.records], dtype=bool)

    @cached_property
    def marginal_times(self) -> np.ndarray:
        """Event time for events, censoring time for censored records."""
        return np.array(
            [r.time if r.event == 1 else r.censor_time for r in self.records], dtype=float
        )

    @cached_property
    def design_matrix(self) -> np.ndarray:
        return np.array([r.covariates for r in self.records], dtype=float).reshape(
            self.n_records, len(self.covariate_names)
        )

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
            writer.writerow(
                [r.subject_id, r.replicate_id, repr(t), r.event]
                + [repr(v) for v in r.covariates]
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
