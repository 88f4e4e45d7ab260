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
from itertools import chain, islice
from operator import index

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


def _checked_names(covariate_names) -> tuple[str, ...]:
    names = tuple(str(n) for n in covariate_names)
    # a repeated name would give two coefficients one monitored name, so a
    # fit would keep the draws of only one of them
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataFormatError(f"covariate name {name!r} is repeated")
    return names


class SurvivalDataset:
    """Immutable, columnar collection of survival records with named covariates.

    Subject ids must form a contiguous integer range (any starting value),
    each ``(subject_id, replicate_id)`` pair may occur once, the
    ``covariate_names`` must be distinct and their number must match the
    arity of every record; subject and replicate ids must be integers.

    The columns are the stored form.  After its checks the dataset keeps the
    arrays used by the model and sampler layers (``subject_positions``,
    ``event_flags``, ``marginal_times`` and ``design_matrix``), its lowest
    subject id and the replicate ids, all read-only (copy an array before
    writing to it), and none of the records it was built from: ``records``
    rebuilds them from the columns on each access, ``record(i)`` one of
    them.  Two datasets are equal
    when their columns and ``covariate_names`` are, so an event record's
    ``censor_time``, which the record ignores, does not count.
    """

    def __init__(self, records, covariate_names=()):
        # held only while the checks run and the columns are built, one pass
        # over the records per column
        records = tuple(records)
        names = _checked_names(covariate_names)
        n, p = len(records), len(names)
        # Each array below streams from the records: no per-record list is
        # built, so construction holds little more than what the dataset keeps.
        wrong_arity = np.fromiter((len(r.covariates) for r in records), np.intp, n) != p
        if wrong_arity.any():
            i = int(np.argmax(wrong_arity))
            raise DataFormatError(
                f"record {i} has {len(records[i].covariates)} covariates, expected {p}"
            )
        del wrong_arity
        # TypeError for a non-integer id; as Python ints, the differences
        # below cannot wrap around
        base = min((index(r.subject_id) for r in records), default=0)
        self._init_columns(
            names,
            base,
            (index(r.subject_id) - base for r in records),
            # TypeError for a non-integer id
            (index(r.replicate_id) for r in records),
            np.fromiter((r.event == 1 for r in records), bool, n),
            np.fromiter((r.time if r.event == 1 else r.censor_time for r in records), float, n),
            np.fromiter(chain.from_iterable(r.covariates for r in records), float, n * p),
        )

    def _init_columns(self, names, base, offsets, replicate_ids, events, times, design):
        """Check and keep the columns of n records; both constructors end here.

        ``offsets`` yields each subject id less ``base``, the lowest, and
        ``replicate_ids`` each replicate id, as Python ints; ``events``,
        ``times`` and ``design`` (n * p values, record by record) are arrays
        that the dataset takes over.
        """
        n, p = len(events), len(names)
        self.covariate_names: tuple[str, ...] = names
        try:
            positions = np.fromiter(offsets, np.intp, n)
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
        del sizes
        #: the lowest subject id, a Python int (ids may lie past 64 bits)
        self._first_subject_id: int = base
        #: 0-based contiguous subject index per record
        self.subject_positions = positions
        self.event_flags = events
        #: event time for events, censoring time for censored records
        self.marginal_times = times
        # read-only before the reshape, so the (n, p) view is read-only too
        for array in (positions, events, times, design):
            array.flags.writeable = False
        self.design_matrix = design.reshape(n, p)
        try:
            replicate = np.fromiter(replicate_ids, np.int64, n)
        except OverflowError:
            raise DataFormatError("replicate ids must fit in 64 bits") from None
        # With one record per subject no (subject, replicate) pair can repeat.
        # Otherwise a stable sort by (subject, replicate) puts a repeated pair
        # side by side, its later record second.
        if n > self.n_subjects:
            order = np.lexsort((replicate, positions))
            key = positions[order]
            same = key[1:] == key[:-1]
            key = replicate[order]
            same &= key[1:] == key[:-1]
            if same.any():
                i = int(order[np.argmax(same) + 1])
                raise DataFormatError(
                    f"record {i} repeats subject {base + int(positions[i])}, "
                    f"replicate {int(replicate[i])}"
                )
        replicate.flags.writeable = False
        self._replicate_ids = replicate

    def _rows(self, rows=slice(None)):
        """Subject id, replicate id, event flag, time and covariate tuple of
        each record in ``rows``, as Python values."""
        return zip(
            map(self._first_subject_id.__add__, self.subject_positions[rows].tolist()),
            self._replicate_ids[rows].tolist(),
            self.event_flags[rows].tolist(),
            self.marginal_times[rows].tolist(),
            map(tuple, self.design_matrix[rows].tolist()),
        )

    def _records(self, rows):
        return (
            SurvivalRecord(s, r, t, 1, 0.0, x) if e else SurvivalRecord(s, r, None, 0, t, x)
            for s, r, e, t, x in self._rows(rows)
        )

    @property
    def records(self) -> tuple[SurvivalRecord, ...]:
        """The records, rebuilt from the columns on each access, in input order.

        Each equals the record the dataset was built from, in canonical
        form: plain ``int`` ids and ``float`` times, ``time=None`` for a
        censored record and ``censor_time == 0.0`` for an event record.
        Every access builds all of them, so bind the tuple once to iterate
        or index it more than once; ``record(i)`` builds only record ``i``.
        """
        return tuple(self._records(slice(None)))

    def record(self, i) -> SurvivalRecord:
        """Record ``i`` as ``records[i]`` gives it, rebuilt from row ``i`` of the columns."""
        i = range(len(self))[index(i)]
        (record,) = self._records(slice(i, i + 1))
        return record

    def _arrays(self):
        return (
            self.subject_positions,
            self._replicate_ids,
            self.event_flags,
            self.marginal_times,
            self.design_matrix,
        )

    def __len__(self):
        return len(self.event_flags)

    def __eq__(self, other):
        if not isinstance(other, SurvivalDataset):
            return NotImplemented
        return (
            self.covariate_names == other.covariate_names
            and self._first_subject_id == other._first_subject_id
            and all(map(np.array_equal, self._arrays(), other._arrays()))
        )

    def __hash__(self):
        # The design matrix is left out: -0.0 == 0.0, so equal covariates may
        # differ in bytes.  Equal ids, flags and (positive) times cannot.
        *exact, _design = self._arrays()
        return hash((self.covariate_names, self._first_subject_id, *(a.tobytes() for a in exact)))

    @property
    def n_records(self) -> int:
        return len(self.event_flags)

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
        cov = tuple(map(float, row[4:]))
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


#: Rows read and parsed as one block of columns: enough to spread the dozen
#: numpy calls of a block thinly, few enough that the block's row strings
#: (~450 B a row) stay small beside the columns of a large file.
_CHUNK_ROWS = 2048


def _parse_chunk(rows, width):
    """The rows' typed columns, or None when a row breaks a rule of ``_parse_row``.

    Blank rows are skipped.  Returns the subject and replicate ids (lists of
    ints), the event flags, the times and the ``(rows, covariates)`` design.
    Each field is converted by ``int`` or ``float``, as ``_parse_row`` does,
    and the record rules are checked on whole columns.
    """
    if not all(rows):
        rows = list(filter(None, rows))
    if not set(map(len, rows)) <= {width}:
        return None
    k = len(rows)
    subjects, replicates, times, status, *covariates = zip(*rows) if k else [()] * width
    try:
        subjects = list(map(int, subjects))
        replicates = list(map(int, replicates))
        status = np.fromiter(map(int, status), np.int64, k)
        # stripped first, as by _parse_row: float keeps some characters strip drops
        times = np.fromiter(map(float, map(str.strip, times)), float, k)
        design = np.fromiter(map(float, chain.from_iterable(covariates)), float, k * (width - 4))
    except (ValueError, OverflowError):
        return None
    events = status == 1
    # NaN fails both comparisons
    if not (
        (events | (status == 0)).all()
        and ((times > 0) & (times < math.inf)).all()
        and np.isfinite(design).all()
    ):
        return None
    # a C-ordered block, so the concatenated design matrix is C-ordered too
    return subjects, replicates, events, times, design.reshape(width - 4, k).T.copy()


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
    n_cov = len(names)
    subjects, replicates = [], []
    events, times, design = [np.empty(0, bool)], [np.empty(0)], [np.empty((0, n_cov))]
    lineno = reader.line_num + 1  # the physical line of the chunk's first row
    while rows := list(islice(reader, _CHUNK_ROWS)):
        columns = _parse_chunk(rows, 4 + n_cov)
        if columns is None:
            # read again row by row, for the first bad row's line and message;
            # a row starts below the line breaks quoted in the rows before it
            for row in rows:
                if row:
                    _parse_row(row, lineno, n_cov, where)
                lineno += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
            raise AssertionError(f"{where}: a rejected chunk passed row by row")
        subject_ids, replicate_ids, *arrays = columns
        subjects += subject_ids
        replicates += replicate_ids
        for parts, array in zip((events, times, design), arrays):
            parts.append(array)
        lineno = reader.line_num + 1
    events, times, design = map(np.concatenate, (events, times, design))
    base = min(subjects, default=0)
    data = SurvivalDataset.__new__(SurvivalDataset)
    data._init_columns(
        _checked_names(names),
        base,
        (s - base for s in subjects),
        replicates,
        events,
        times,
        design,
    )
    return data


def read_dataset_csv(path) -> SurvivalDataset:
    """Parse a dataset CSV; malformed rows are reported with line numbers.

    The rows are parsed into columns a chunk at a time and no record is
    built; a chunk with a malformed row is read again row by row, only to
    name the first such row.
    """
    with open(path, newline="") as fh:
        return _read_csv_stream(fh, str(path))


def write_dataset_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset back to CSV; re-reading yields an equal dataset."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_BASE_COLUMNS) + list(data.covariate_names))
        # the columns give plain ints and floats, whatever the input held
        writer.writerows(
            [s, r, repr(t), int(e), *map(repr, x)] for s, r, e, t, x in data._rows()
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
