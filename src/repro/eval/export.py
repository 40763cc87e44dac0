"""Sweep result export: CSV and JSON for external analysis and sharding.

Downstream users (plotting notebooks, the VerilogEval-style leaderboards)
want raw records, not our rendered ASCII tables.  Exports are stable:
column order is fixed and enum fields serialize to their string values.

Beyond plain record tables, this module is the wire codec for the
distributed sweep service: jobs, skips, errors, configs and whole
:class:`~repro.eval.jobs.SweepResult`s round-trip through dicts/JSON so
shard manifests (:mod:`repro.service.sharding`) and the HTTP eval
service (:mod:`repro.service.server`) share one schema.  A whole
result ships its records job-major (:data:`RUN_COLUMNS`): one entry
per run of a job's consecutive samples, its verdicts as bit strings.  The
record tables (CSV, :func:`sweep_to_json`, :func:`record_to_dict`) keep
one row per record.
"""

from __future__ import annotations

import csv
import io
import json

from ..problems import Difficulty, PromptLevel
from ..verilog import finding_from_dict, finding_to_dict
from .harness import CompletionRecord, Sweep, SweepConfig

_LEVEL_BY_VALUE = {str(level): level for level in PromptLevel}
_DIFFICULTY_BY_VALUE = {str(d): d for d in Difficulty}

CSV_COLUMNS = (
    "model", "base_model", "fine_tuned", "problem", "difficulty", "level",
    "temperature", "n", "sample_index", "compiled", "passed",
    "inference_seconds",
)


def _row(record: CompletionRecord) -> dict:
    return {
        "model": record.model,
        "base_model": record.base_model,
        "fine_tuned": record.fine_tuned,
        "problem": record.problem,
        "difficulty": str(record.difficulty),
        "level": str(record.level),
        "temperature": record.temperature,
        "n": record.n,
        "sample_index": record.sample_index,
        "compiled": record.compiled,
        "passed": record.passed,
        # full repr, not rounded: JSON floats round-trip exactly, so
        # wire-shipped shard results merge with *exact* record parity
        "inference_seconds": record.inference_seconds,
    }


def sweep_to_csv(sweep: Sweep) -> str:
    """Render a sweep as CSV text (header + one row per completion)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for record in sweep.records:
        writer.writerow(_row(record))
    return buffer.getvalue()


def sweep_to_json(sweep: Sweep, indent: int | None = None) -> str:
    """Render a sweep as a JSON array of record objects."""
    return json.dumps([_row(r) for r in sweep.records], indent=indent)


def save_sweep(sweep: Sweep, path: str) -> None:
    """Write a sweep to ``path`` (.csv or .json decides the format)."""
    if path.endswith(".csv"):
        payload = sweep_to_csv(sweep)
    elif path.endswith(".json"):
        payload = sweep_to_json(sweep)
    else:
        raise ValueError(f"unsupported export extension: {path!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def record_from_dict(row: dict) -> CompletionRecord:
    """Rebuild one :class:`CompletionRecord` from its :func:`_row` dict."""
    return CompletionRecord(
        model=row["model"],
        base_model=row["base_model"],
        fine_tuned=bool(row["fine_tuned"]),
        problem=int(row["problem"]),
        difficulty=_DIFFICULTY_BY_VALUE[row["difficulty"]],
        level=_LEVEL_BY_VALUE[row["level"]],
        temperature=float(row["temperature"]),
        n=int(row["n"]),
        sample_index=int(row["sample_index"]),
        compiled=bool(row["compiled"]),
        passed=bool(row["passed"]),
        inference_seconds=float(row["inference_seconds"]),
    )


record_to_dict = _row


def load_sweep_json(payload: str) -> Sweep:
    """Rebuild a Sweep from :func:`sweep_to_json` output."""
    return Sweep(records=[record_from_dict(row) for row in json.loads(payload)])


# ----------------------------------------------------------------------
# Job / skip / error / config codecs (the service + shard wire schema)
# ----------------------------------------------------------------------
def job_to_dict(job) -> dict:
    return {
        "model": job.model,
        "base_model": job.base_model,
        "fine_tuned": job.fine_tuned,
        "problem": job.problem,
        "level": str(job.level),
        "temperature": job.temperature,
        "n": job.n,
        "max_tokens": job.max_tokens,
    }


def job_from_dict(row: dict):
    from .jobs import GenerationJob

    return GenerationJob(
        model=row["model"],
        base_model=row["base_model"],
        fine_tuned=bool(row["fine_tuned"]),
        problem=int(row["problem"]),
        level=_LEVEL_BY_VALUE[row["level"]],
        temperature=float(row["temperature"]),
        n=int(row["n"]),
        max_tokens=int(row["max_tokens"]),
    )


def skip_to_dict(skip) -> dict:
    return {
        "model": skip.model,
        "problem": skip.problem,
        "level": str(skip.level),
        "temperature": skip.temperature,
        "n": skip.n,
        "reason": skip.reason,
    }


def skip_from_dict(row: dict):
    from .jobs import SkippedJob

    return SkippedJob(
        model=row["model"],
        problem=int(row["problem"]),
        level=_LEVEL_BY_VALUE[row["level"]],
        temperature=float(row["temperature"]),
        n=int(row["n"]),
        reason=row["reason"],
    )


def error_to_dict(error) -> dict:
    return {
        "job": job_to_dict(error.job),
        "error": error.error,
        "attempts": error.attempts,
        "stage": error.stage,
        "exception": error.exception,
        "line": error.line,
        "code": error.code,
        "path": error.path,
        "attempt_seconds": list(error.attempt_seconds),
        "backoff_seconds": error.backoff_seconds,
    }


def error_from_dict(row: dict):
    from .jobs import JobError

    return JobError(
        job=job_from_dict(row["job"]),
        error=row["error"],
        attempts=int(row.get("attempts", 1)),
        stage=str(row.get("stage", "")),
        exception=str(row.get("exception", "")),
        line=int(row.get("line", 0)),
        code=str(row.get("code", "")),
        path=str(row.get("path", "")),
        attempt_seconds=tuple(
            float(s) for s in row.get("attempt_seconds", [])
        ),
        backoff_seconds=float(row.get("backoff_seconds", 0.0)),
    )


def config_to_dict(config: SweepConfig) -> dict:
    return {
        "temperatures": list(config.temperatures),
        "completions_per_prompt": list(config.completions_per_prompt),
        "levels": [str(level) for level in config.levels],
        "problem_numbers": list(config.problem_numbers),
        "max_tokens": config.max_tokens,
    }


def config_from_dict(row: dict) -> SweepConfig:
    if not isinstance(row, dict):
        raise ValueError(
            f"a sweep config is a JSON object, got {type(row).__name__}"
        )
    defaults = SweepConfig()
    return SweepConfig(
        temperatures=tuple(
            float(t) for t in row.get("temperatures", defaults.temperatures)
        ),
        completions_per_prompt=tuple(
            int(n)
            for n in row.get(
                "completions_per_prompt", defaults.completions_per_prompt
            )
        ),
        levels=tuple(
            _LEVEL_BY_VALUE[str(level)]
            for level in row.get("levels", [str(l) for l in defaults.levels])
        ),
        problem_numbers=tuple(
            int(p)
            for p in row.get("problem_numbers", defaults.problem_numbers)
        ),
        max_tokens=int(row.get("max_tokens", defaults.max_tokens)),
    )


# ----------------------------------------------------------------------
# Verdict codec (the on-disk verdict store + coordinator state schema)
# ----------------------------------------------------------------------
def evaluation_to_dict(evaluation) -> dict:
    """Serialize one :class:`~repro.eval.pipeline.CompletionEvaluation`."""
    return {
        "compiled": evaluation.compiled,
        "passed": evaluation.passed,
        "compile_errors": list(evaluation.compile_errors),
        "sim_finished": evaluation.sim_finished,
        "stage": evaluation.stage,
        "error_line": evaluation.error_line,
        "findings": [finding_to_dict(f) for f in evaluation.findings],
    }


def evaluation_from_dict(row: dict):
    from .pipeline import CompletionEvaluation

    return CompletionEvaluation(
        compiled=bool(row["compiled"]),
        passed=bool(row["passed"]),
        compile_errors=tuple(str(e) for e in row.get("compile_errors", [])),
        sim_finished=bool(row.get("sim_finished", False)),
        stage=str(row.get("stage", "")),
        error_line=int(row.get("error_line", 0)),
        findings=tuple(
            finding_from_dict(f) for f in row.get("findings", [])
        ),
    )


# ----------------------------------------------------------------------
# Whole-result round-trip (records + skip/error metadata + stats)
# ----------------------------------------------------------------------
#: the fields every record of one job run shares, in record order
RUN_FIELDS = (
    "model", "base_model", "fine_tuned", "problem", "difficulty", "level",
    "temperature", "n",
)

#: the columns of one job run: its job fields, the first record's
#: ``sample_index``, one '0'/'1' per record for ``compiled`` and
#: ``passed``, and the records' ``inference_seconds``
RUN_COLUMNS = RUN_FIELDS + (
    "first_sample", "compiled", "passed", "inference_seconds",
)


def _records_to_runs(records) -> dict:
    """``records`` as job runs: consecutive records that share every
    :data:`RUN_FIELDS` value and have consecutive ``sample_index``."""
    runs = []
    key = None
    expected = None
    for record in records:
        fields = (
            record.model, record.base_model, record.fine_tuned,
            record.problem, record.difficulty, record.level,
            record.temperature, record.n,
        )
        if fields != key or record.sample_index != expected:
            key = fields
            compiled, passed, seconds = [], [], []
            runs.append((fields, record.sample_index, compiled, passed,
                         seconds))
        compiled.append("1" if record.compiled else "0")
        passed.append("1" if record.passed else "0")
        # full repr, not rounded: JSON floats round-trip exactly, so
        # wire-shipped shard results merge with *exact* record parity
        seconds.append(record.inference_seconds)
        expected = record.sample_index + 1
    return {
        "columns": list(RUN_COLUMNS),
        "runs": [
            [model, base_model, fine_tuned, problem, str(difficulty),
             str(level), temperature, n, first, "".join(compiled),
             "".join(passed), seconds]
            for (model, base_model, fine_tuned, problem, difficulty, level,
                 temperature, n), first, compiled, passed, seconds in runs
        ],
    }


def _bits(text, size: int) -> list[bool]:
    if not isinstance(text, str) or len(text) != size or text.strip("01"):
        raise ValueError(
            f"job run verdicts must be a bit string of {size} '0'/'1' "
            f"characters, got {text!r}"
        )
    return [bit == "1" for bit in text]


def _records_from_runs(records) -> list[CompletionRecord]:
    """Rebuild the records of :func:`_records_to_runs` output."""
    if not isinstance(records, dict) or records.get("columns") != list(
        RUN_COLUMNS
    ):
        raise ValueError(
            "result records are not job runs "
            f'({{"columns": {json.dumps(RUN_COLUMNS)}, "runs": [...]}}); '
            "results written with one row per record are not read — "
            "re-run the sweep"
        )
    out = []
    for run in records["runs"]:
        if not isinstance(run, list) or len(run) != len(RUN_COLUMNS):
            raise ValueError(
                f"a job run is a list of {len(RUN_COLUMNS)} columns, "
                f"got {run!r:.80}"
            )
        (model, base_model, fine_tuned, problem, difficulty, level,
         temperature, n, first, compiled, passed, seconds) = run
        if not isinstance(seconds, list) or not seconds:
            raise ValueError(
                "job run inference_seconds must be a non-empty list"
            )
        fine_tuned = bool(fine_tuned)
        problem = int(problem)
        difficulty = _DIFFICULTY_BY_VALUE[difficulty]
        level = _LEVEL_BY_VALUE[level]
        temperature = float(temperature)
        n = int(n)
        first = int(first)
        # positional, in CompletionRecord's field order: a quarter
        # faster than keywords, and a result holds thousands of records
        out.extend(
            CompletionRecord(
                model, base_model, fine_tuned, problem, difficulty, level,
                temperature, n, first + offset, ok, good, float(took),
            )
            for offset, (ok, good, took) in enumerate(zip(
                _bits(compiled, len(seconds)), _bits(passed, len(seconds)),
                seconds,
            ))
        )
    return out


def sweep_result_to_dict(result) -> dict:
    """Serialize a :class:`~repro.eval.jobs.SweepResult` losslessly.

    ``records`` holds job runs (:data:`RUN_COLUMNS`), not one row per
    record: the wire, coordinator checkpoints and shard-result
    files all carry this layout.
    """
    return {
        "records": _records_to_runs(result.sweep.records),
        "skipped": [skip_to_dict(s) for s in result.skipped],
        "errors": [error_to_dict(e) for e in result.errors],
        "stats": result.stats,
    }


def sweep_result_from_dict(row: dict):
    """Rebuild :func:`sweep_result_to_dict` output; ``ValueError`` when
    its records are not job runs (an old per-record row list)."""
    from .jobs import SweepResult

    return SweepResult(
        sweep=Sweep(records=_records_from_runs(row["records"])),
        skipped=[skip_from_dict(s) for s in row.get("skipped", [])],
        errors=[error_from_dict(e) for e in row.get("errors", [])],
        stats=dict(row.get("stats", {})),
    )


def sweep_result_to_json(result, indent: int | None = None) -> str:
    return json.dumps(sweep_result_to_dict(result), indent=indent)


def load_sweep_result_json(payload: str):
    """Rebuild a SweepResult from :func:`sweep_result_to_json` output."""
    return sweep_result_from_dict(json.loads(payload))


def save_sweep_result(result, path: str) -> None:
    """Write a full SweepResult (records + skips + errors) to JSON."""
    if not path.endswith(".json"):
        raise ValueError(f"sweep results export to .json, got {path!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sweep_result_to_json(result))
