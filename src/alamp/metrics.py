"""Experiment reports: evaluation metrics, serialization, and aggregation."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .dataset import imbalance_ratio

__all__ = [
    "RunMeta",
    "IterationRecord",
    "Report",
    "average_accuracy",
    "samples_to_accuracy",
    "imbalance_profile",
    "write_report",
    "read_report",
    "aggregate",
    "write_aggregate",
]


@dataclasses.dataclass(frozen=True)
class RunMeta:
    af: str
    seed: int
    total_budget: int
    iterations: int
    dataset: str
    cost_sensitive: bool


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    """One iteration of a run; the labeled pool's size and imbalance ratio
    are derived from its class counts."""

    iteration: int
    accuracy: float
    class_counts: tuple
    selected_ids: tuple

    @property
    def labeled_count(self) -> int:
        return sum(self.class_counts)

    @property
    def ir(self) -> float:
        return imbalance_ratio(self.class_counts)


REPORT_FORMATS = ("csv", "json")

# The report json key of each IterationRecord field, in file order, and the
# JSON type it holds.
_RECORD_KEYS = (("k", "iteration", "integer"), ("labeled", "labeled_count", "integer"),
                ("acc", "accuracy", "number"), ("ir", "ir", "number"),
                ("class_counts", "class_counts", "array"),
                ("selected", "selected_ids", "array"))
# The keys of the report json's other objects, and the JSON type each holds.
_REPORT_KEYS = {"meta": "object", "records": "array"}
_META_KEYS = {"af": "string", "seed": "integer", "plan": "object", "dataset": "string",
              "cost_sensitive": "boolean"}
_PLAN_KEYS = {"b": "integer", "t": "integer"}
# The Python types json.load gives each JSON type: exact, so true/false is
# neither an integer nor a number.
_JSON_TYPES = {"string": (str,), "integer": (int,), "number": (int, float),
               "boolean": (bool,), "object": (dict,), "array": (list,)}


@dataclasses.dataclass(frozen=True)
class Report:
    """One run's metadata and its records, stored in iteration order."""

    meta: RunMeta
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records",
                           tuple(sorted(self.records, key=lambda r: r.iteration)))


def average_accuracy(report: Report) -> float:
    """Unweighted mean of per-iteration test accuracies."""
    if not report.records:
        raise ValueError("empty report")
    return float(np.mean([r.accuracy for r in report.records]))


def samples_to_accuracy(report: Report, threshold: float):
    """Smallest cumulative labeled count reaching the accuracy threshold.

    Returns None when the threshold is never reached.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    for record in report.records:
        if record.accuracy >= threshold:
            return record.labeled_count
    return None


def imbalance_profile(report: Report):
    """Per-iteration imbalance ratio of the labeled pool."""
    return [r.ir for r in report.records]


def _write(path, format: str, payload, csv_header: str, csv_rows) -> None:
    """Write `payload` as indented json, or the csv header then its rows; a
    non-finite number in `payload` raises ValueError before the file opens."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}")
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if format == "csv":
        text = "".join(row + "\n" for row in (csv_header, *csv_rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def _report_payload(report: Report) -> dict:
    return {
        "meta": {
            "af": report.meta.af,
            "seed": report.meta.seed,
            "plan": {"b": report.meta.total_budget, "t": report.meta.iterations},
            "dataset": report.meta.dataset,
            "cost_sensitive": report.meta.cost_sensitive,
        },
        "records": [{key: getattr(r, field) for key, field, _ in _RECORD_KEYS}
                    for r in report.records],
    }


def write_report(report: Report, path, format: str = "json") -> None:
    """Serialize a report; json is lossless, csv carries the accuracy curve."""
    _write(path, format, _report_payload(report), "iteration,labeled_count,accuracy,ir",
           (f"{r.iteration},{r.labeled_count},{r.accuracy:.6f},{r.ir:.6f}"
            for r in report.records))


def _checked(value, keys: dict, where: str) -> dict:
    """`value`, which must be a JSON object with exactly the keys of `keys`,
    each holding the JSON type `keys` names; raises ValueError otherwise."""
    if type(value) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}")
    for key, kind in keys.items():
        if key not in value:
            raise ValueError(f"missing key {key!r} in {where}")
        if type(value[key]) not in _JSON_TYPES[kind]:
            raise ValueError(f"{where} key {key!r} must be a JSON {kind}, got {value[key]!r}")
    return value


def read_report(path) -> Report:
    """Inverse of write_report(format='json'); raises ValueError on a NaN or
    Infinity token, a missing or unknown key, a value of another JSON type
    than write_report writes (true/false is not a number), an `acc` outside
    [0, 1], a record whose `labeled` or `ir` disagrees with its
    `class_counts`, or iteration numbers `k` other than 0..len-1, each once."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh, parse_constant=_reject_constant)
    payload = _checked(payload, _REPORT_KEYS, "report")
    meta = _checked(payload["meta"], _META_KEYS, "meta")
    plan = _checked(meta["plan"], _PLAN_KEYS, "meta plan")
    meta = RunMeta(af=meta["af"], seed=meta["seed"], total_budget=plan["b"],
                   iterations=plan["t"], dataset=meta["dataset"],
                   cost_sensitive=meta["cost_sensitive"])
    record_keys = {key: kind for key, _, kind in _RECORD_KEYS}
    records = []
    for i, r in enumerate(payload["records"]):
        r = _checked(r, record_keys, f"record {i}")
        if not 0 <= r["acc"] <= 1:
            raise ValueError(f"record k={r['k']}: acc {r['acc']} is outside [0, 1]")
        for key in ("class_counts", "selected"):
            if not all(type(v) is int for v in r[key]):
                raise ValueError(f"record k={r['k']}: {key} must hold integers, got {r[key]}")
        record = IterationRecord(iteration=r["k"], accuracy=r["acc"],
                                 class_counts=tuple(r["class_counts"]),
                                 selected_ids=tuple(r["selected"]))
        if (r["labeled"], r["ir"]) != (record.labeled_count, record.ir):
            raise ValueError(f"record k={r['k']}: labeled {r['labeled']} and ir {r['ir']} "
                             f"disagree with class_counts {r['class_counts']}")
        records.append(record)
    report = Report(meta=meta, records=records)
    iterations = [r.iteration for r in report.records]
    if iterations != list(range(len(iterations))):
        raise ValueError(f"record iterations {iterations} are not 0..{len(iterations) - 1}, "
                         "each once")
    return report


def aggregate(reports) -> dict:
    """Mean and population std of accuracy and labeled-pool ir per iteration.

    All reports must share their meta, the seed aside, and their iterations.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    meta = dataclasses.replace(reports[0].meta, seed=None)
    iterations = [r.iteration for r in reports[0].records]
    for report in reports[1:]:
        if dataclasses.replace(report.meta, seed=None) != meta:
            raise ValueError(f"report of seed {report.meta.seed} has meta {report.meta}, "
                             f"which differs from {reports[0].meta} in more than the seed")
        if [r.iteration for r in report.records] != iterations:
            raise ValueError(f"report of seed {report.meta.seed} has iterations "
                             f"other than {iterations}")
    rows = []
    for records in zip(*(report.records for report in reports)):
        accs = [r.accuracy for r in records]
        irs = [r.ir for r in records]
        rows.append({
            "k": records[0].iteration,
            "labeled": records[-1].labeled_count,
            "acc_mean": float(np.mean(accs)),
            "acc_std": float(np.std(accs)),
            "ir_mean": float(np.mean(irs)),
            "ir_std": float(np.std(irs)),
        })
    return {
        "af": reports[0].meta.af,
        "seeds": [r.meta.seed for r in reports],
        "rows": rows,
    }


def write_aggregate(agg: dict, path, format: str = "json") -> None:
    _write(path, format, agg, "iteration,labeled_count,acc_mean,acc_std,ir_mean,ir_std",
           (f"{row['k']},{row['labeled']},{row['acc_mean']:.6f},"
            f"{row['acc_std']:.6f},{row['ir_mean']:.6f},{row['ir_std']:.6f}"
            for row in agg["rows"]))
