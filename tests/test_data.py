import copy
import dataclasses
import pickle

import numpy as np
import pytest

from pexsurv.data import (
    DataFormatError,
    SurvivalDataset,
    SurvivalRecord,
    load_kidney,
    read_dataset_csv,
    write_dataset_csv,
)


def test_event_record_needs_positive_time():
    for bad in (None, -2.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="event records need a finite positive time"):
            SurvivalRecord(1, 1, bad, 1)
    for good in (np.float64(2.5), np.int64(3)):
        assert SurvivalRecord(1, 1, good, 1).time == good


def test_censored_record_needs_censor_time():
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="censored records need a finite positive censor_time"):
            SurvivalRecord(1, 1, None, 0, bad)
    with pytest.raises(ValueError):
        SurvivalRecord(1, 1, 3.0, 0, 5.0)  # censored rows must leave time unset
    r = SurvivalRecord(1, 1, None, 0, 5.0)
    assert r.censor_time == 5.0
    assert SurvivalRecord(1, 1, None, 0, np.float64(5.0)).censor_time == 5.0


def test_dataset_requires_contiguous_subjects():
    recs = [SurvivalRecord(1, 1, 1.0, 1), SurvivalRecord(3, 1, 2.0, 1)]
    with pytest.raises(DataFormatError):
        SurvivalDataset(recs)


def test_dataset_rejects_repeated_subject_replicate_pair():
    with pytest.raises(DataFormatError, match="record 2 repeats subject 1, replicate 1"):
        SurvivalDataset(
            [SurvivalRecord(1, 1, 2.0, 1), SurvivalRecord(1, 2, 3.0, 1), SurvivalRecord(1, 1, 4.0, 1)]
        )
    with pytest.raises(DataFormatError, match="repeats"):
        SurvivalDataset([SurvivalRecord(1, 1, 2.0, 1)] * 2)
    assert len({(r.subject_id, r.replicate_id) for r in load_kidney().records}) == 76
    with pytest.raises(DataFormatError, match="64 bits"):
        SurvivalDataset([SurvivalRecord(1, 2**70, 2.0, 1)])


def test_non_finite_covariate_rejected_with_csv_line(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="covariates must be finite"):
            SurvivalRecord(1, 1, 2.0, 1, covariates=(1.0, bad))
    path = tmp_path / "bad.csv"
    path.write_text("subject,replicate,time,status,age\n1,1,5.0,1,40\n2,1,3.0,0,nan\n")
    with pytest.raises(DataFormatError, match=":3:.*covariates must be finite"):
        read_dataset_csv(path)


def test_dataset_covariate_arity_checked():
    recs = [SurvivalRecord(1, 1, 1.0, 1, covariates=(1.0,))]
    with pytest.raises(DataFormatError):
        SurvivalDataset(recs, ("sex", "age"))


def test_dataset_arrays():
    recs = [
        SurvivalRecord(2, 1, 1.5, 1, covariates=(1.0, 30.0)),
        SurvivalRecord(2, 2, None, 0, 4.0, covariates=(1.0, 31.0)),
        SurvivalRecord(3, 1, 2.5, 1, covariates=(0.0, 50.0)),
    ]
    ds = SurvivalDataset(recs, ("sex", "age"))
    assert ds.n_subjects == 2
    assert ds.subject_positions.tolist() == [0, 0, 1]
    assert ds.event_flags.tolist() == [True, False, True]
    np.testing.assert_array_equal(ds.marginal_times, [1.5, 4.0, 2.5])
    assert ds.design_matrix.shape == (3, 2)
    assert ds.max_observed_time == 4.0


def _reference_arrays(ds):
    """The per-record comprehensions the array views are defined by."""
    base = min((r.subject_id for r in ds.records), default=0)
    return {
        "subject_positions": np.array([r.subject_id - base for r in ds.records], dtype=np.intp),
        "event_flags": np.array([r.event == 1 for r in ds.records], dtype=bool),
        "marginal_times": np.array(
            [r.time if r.event == 1 else r.censor_time for r in ds.records], dtype=float
        ),
        "design_matrix": np.array([r.covariates for r in ds.records], dtype=float).reshape(
            ds.n_records, len(ds.covariate_names)
        ),
    }


def _random_dataset(rng, p):
    records = []
    for subject in range(5, 5 + 7):
        for replicate in rng.permutation(4)[: rng.integers(1, 4)]:
            t = float(rng.exponential())
            cov = tuple(rng.normal(size=p))
            if rng.random() < 0.3:
                records.append(SurvivalRecord(subject, int(replicate), None, 0, t, cov))
            else:
                records.append(SurvivalRecord(subject, int(replicate), t, 1, covariates=cov))
    order = rng.permutation(len(records))
    return SurvivalDataset([records[i] for i in order], [f"x{j}" for j in range(p)])


def test_dataset_arrays_equal_the_per_record_reference():
    rng = np.random.default_rng(20)
    datasets = [_random_dataset(rng, p) for p in (0, 2, 2)]
    assert not datasets[1].event_flags.all() and datasets[1].event_flags.any()
    assert datasets[1].subject_positions[0] != 0  # subjects are not in order
    datasets += [SurvivalDataset([]), SurvivalDataset([], ("a", "b"))]
    for ds in datasets:
        for name, want in _reference_arrays(ds).items():
            got = getattr(ds, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            np.testing.assert_array_equal(got, want, err_msg=name)
    assert datasets[-1].design_matrix.shape == (0, 2)
    assert datasets[-1].n_subjects == 0


def test_dataset_load_messages():
    recs = [
        SurvivalRecord(1, 1, 1.0, 1, covariates=(1.0, 2.0)),
        SurvivalRecord(2, 1, 1.0, 1, covariates=(1.0,)),
        SurvivalRecord(3, 1, 1.0, 1, covariates=(1.0, 2.0, 3.0)),
    ]
    with pytest.raises(DataFormatError, match=r"^record 1 has 1 covariates, expected 2$"):
        SurvivalDataset(recs, ("a", "b"))
    for ids in ([1, 3], [2, 2, 4], [0, 2, 1, 5]):
        with pytest.raises(
            DataFormatError, match="^subject ids must form a contiguous integer range$"
        ):
            SurvivalDataset([SurvivalRecord(s, i, 1.0, 1) for i, s in enumerate(ids)])
    # min and max prove a range only for integers
    for ids in ([1.5, 2.5], [1, 1.5, 3], [1, np.float64(2.0)]):
        with pytest.raises(TypeError, match="integer"):
            SurvivalDataset([SurvivalRecord(s, i, 1.0, 1) for i, s in enumerate(ids)])
    assert SurvivalDataset([SurvivalRecord(np.int64(s), 1, 1.0, 1) for s in (4, 3)]).n_subjects == 2


def test_repeated_covariate_names_are_rejected():
    recs = [SurvivalRecord(1, 1, 1.0, 1, covariates=(1.0, 2.0, 3.0))]
    cases = ((("x", "x", "y"), "x"), (("y", "x", "x"), "x"), (("y", "x", "y"), "y"))
    for names, repeated in cases:
        with pytest.raises(DataFormatError, match=f"^covariate name '{repeated}' is repeated$"):
            SurvivalDataset(recs, names)
    assert SurvivalDataset(recs, ("x", "y", "z")).covariate_names == ("x", "y", "z")


def test_subject_ids_beyond_64_bits_load():
    big = 2**70
    ds = SurvivalDataset(
        [SurvivalRecord(big + s, 1, 1.0, 1) for s in (2, 0, 1)] + [SurvivalRecord(big, 2, 3.0, 1)]
    )
    assert ds.n_subjects == 3
    assert ds.subject_positions.dtype == np.intp
    assert ds.subject_positions.tolist() == [2, 0, 1, 0]


def test_subject_id_gaps_are_rejected_without_overflow():
    # a gap wider than intp, a span equal to n with a subject missing, and a
    # span of numpy ids that would wrap around in int64 arithmetic
    for ids in ([1, 2**70], [1, 1, 3], [np.int64(-(2**63)), np.int64(2**63 - 1)]):
        with pytest.raises(
            DataFormatError, match="^subject ids must form a contiguous integer range$"
        ):
            SurvivalDataset([SurvivalRecord(s, i, 1.0, 1) for i, s in enumerate(ids)])
    assert SurvivalDataset([]).n_subjects == 0


def test_replicate_ids_must_be_integers():
    with pytest.raises(TypeError, match="integer"):
        SurvivalDataset([SurvivalRecord(1, 1.5, 2.0, 1)])
    with pytest.raises(TypeError, match="integer"):
        SurvivalDataset([SurvivalRecord(1, 1.2, 2.0, 1), SurvivalRecord(1, 1.7, 3.0, 1)])
    with pytest.raises(DataFormatError, match="^replicate ids must fit in 64 bits$"):
        SurvivalDataset([SurvivalRecord(1, 1, 2.0, 1), SurvivalRecord(2, 2**70, 2.0, 1)])
    ds = SurvivalDataset([SurvivalRecord(1, np.int64(3), 2.0, 1), SurvivalRecord(1, 1, 3.0, 1)])
    assert [r.replicate_id for r in ds.records] == [3, 1]


def test_dataset_arrays_are_read_only():
    ds = load_kidney()
    times = ds.marginal_times.copy()
    for name in ("subject_positions", "event_flags", "marginal_times", "design_matrix"):
        array = getattr(ds, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 0  # a view cannot write either
    np.testing.assert_array_equal(ds.marginal_times, times)
    assert ds == load_kidney()


def test_record_copies_covariates_so_they_cannot_change_after_the_check():
    cov = [1.0, 2.0]
    record = SurvivalRecord(1, 1, 2.0, 1, covariates=cov)
    cov[1] = float("nan")
    assert record.covariates == (1.0, 2.0)
    ds = SurvivalDataset([record], ("a", "b"))
    np.testing.assert_array_equal(ds.design_matrix, [[1.0, 2.0]])
    same = SurvivalDataset([SurvivalRecord(1, 1, 2.0, 1, covariates=(1.0, 2.0))], ("a", "b"))
    assert hash(ds) == hash(same) and ds == same


def test_record_is_a_frozen_slotted_value():
    event = SurvivalRecord(3, 2, 4.5, 1, covariates=(1.0, 30.0))
    censored = SurvivalRecord(3, 1, None, 0, 4.5, (0.0, 31.0))
    with pytest.raises(ValueError, match="event records need a finite positive time"):
        dataclasses.replace(event, time=-1.0)
    with pytest.raises(ValueError, match="censored records must leave time unset"):
        dataclasses.replace(censored, time=-1.0)
    assert dataclasses.replace(event, covariates=[2.0, 3.0]).covariates == (2.0, 3.0)
    for r in (event, censored):
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert twin == r and hash(twin) == hash(r)
            assert type(twin.covariates) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.time = 1.0
        with pytest.raises(TypeError):
            vars(r)


def test_csv_round_trip(tmp_path):
    ds = SurvivalDataset(
        [
            SurvivalRecord(1, 1, 1.25, 1, covariates=(0.0, 28.5)),
            SurvivalRecord(1, 2, None, 0, 0.7071067811865476, covariates=(0.0, 29.0)),
            SurvivalRecord(2, 1, 3.0, 1, covariates=(1.0, 44.0)),
        ],
        ("sex", "age"),
    )
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    assert read_dataset_csv(path) == ds


@pytest.mark.parametrize(
    "record",
    [
        SurvivalRecord(1, 1, np.float64(2.0), 1),
        SurvivalRecord(1, 1, None, 0, np.float64(2.0)),
        SurvivalRecord(1, 1, 2.0, 1, covariates=(np.float64(0.5),)),
        SurvivalRecord(1, 1, 2.0, 1.0),
        SurvivalRecord(1, 1, 2.0, True),
    ],
    ids=["numpy-time", "numpy-censor-time", "numpy-covariate", "float-event", "bool-event"],
)
def test_csv_round_trip_of_numpy_and_non_int_values(tmp_path, record):
    ds = SurvivalDataset([record], ("x",) if record.covariates else ())
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    assert read_dataset_csv(path) == ds


def test_csv_malformed_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject,replicate,time,status\n1,1,5.0,1\n2,1,oops,1\n")
    with pytest.raises(DataFormatError, match=":3:"):
        read_dataset_csv(path)


def test_csv_event_with_missing_time_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject,replicate,time,status\n1,1,,1\n")
    with pytest.raises(DataFormatError, match=":2:.*missing time"):
        read_dataset_csv(path)


def test_csv_bad_status_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject,replicate,time,status\n1,1,5.0,2\n")
    with pytest.raises(DataFormatError, match="status"):
        read_dataset_csv(path)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,time,status\n1,5.0,1\n")
    with pytest.raises(DataFormatError, match="header"):
        read_dataset_csv(path)


def test_kidney_shape():
    k = load_kidney()
    assert k.n_records == 76
    assert k.n_subjects == 38
    assert k.n_events == 58
    assert int((~k.event_flags).sum()) == 18
    assert k.max_observed_time == 562.0
    assert k.covariate_names == ("sex", "age")


def test_kidney_sex_counts():
    k = load_kidney()
    sex = k.design_matrix[:, 0]
    # 10 male patients (sex 0), 28 female (sex 1), two records each
    assert int((sex == 0.0).sum()) == 20
    assert int((sex == 1.0).sum()) == 56


def test_kidney_sex_of_patients_20_and_21():
    # McGilchrist & Aisbett (1991): patient 21, who owns the longest catheter
    # time (562 days), is male; patient 20 is female.
    k = load_kidney()
    sex = {(r.subject_id, r.replicate_id): r.covariates[0] for r in k.records}
    longest = k.records[int(np.argmax(k.marginal_times))]
    assert (longest.subject_id, longest.time) == (21, 562.0)
    assert sex[21, 1] == sex[21, 2] == 0.0
    assert sex[20, 1] == sex[20, 2] == 1.0


def test_kidney_round_trip(tmp_path):
    k = load_kidney()
    path = tmp_path / "kidney.csv"
    write_dataset_csv(k, path)
    assert read_dataset_csv(path) == k
