"""Sweep grid and record table: models x problems x levels x
temperature x n (Fig. 1).

:class:`SweepConfig` names the grid the paper sweeps (Sec. IV-B);
:class:`repro.api.Session` plans and runs it, and every evaluated
completion lands as one :class:`CompletionRecord` in a :class:`Sweep`,
the flat table that the report module slices into the paper's tables
and figures.  The "best results" selection (Sec. V-B: present each model
at the temperature where its completions were most successful, per
difficulty and description level) is implemented in
:meth:`Sweep.best_temperature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.calibration import TEMPERATURES
from ..problems import ALL_PROBLEMS, Difficulty, Problem, PromptLevel
from .metrics import mean, pass_fraction


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One evaluated completion."""

    model: str  # full variant name, e.g. "codegen-16b-ft"
    base_model: str  # Table-I name, e.g. "codegen-16b"
    fine_tuned: bool
    problem: int
    difficulty: Difficulty
    level: PromptLevel
    temperature: float
    n: int
    sample_index: int
    compiled: bool
    passed: bool
    inference_seconds: float


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep."""

    temperatures: tuple[float, ...] = TEMPERATURES
    completions_per_prompt: tuple[int, ...] = (10,)
    levels: tuple[PromptLevel, ...] = tuple(PromptLevel)
    problem_numbers: tuple[int, ...] = tuple(p.number for p in ALL_PROBLEMS)
    max_tokens: int = 300

    def problems(self) -> list[Problem]:
        by_number = {p.number: p for p in ALL_PROBLEMS}
        return [by_number[n] for n in self.problem_numbers]


@dataclass
class Sweep:
    """All records of one sweep run, with slicing helpers."""

    records: list[CompletionRecord] = field(default_factory=list)
    _groups: dict | None = field(default=None, repr=False, compare=False)

    def append(self, record: CompletionRecord) -> None:
        """Add one record and invalidate the group index."""
        self.records.append(record)
        self._groups = None

    def extend(self, records: list[CompletionRecord]) -> None:
        """Add many records and invalidate the group index."""
        self.records.extend(records)
        self._groups = None

    def invalidate_index(self) -> None:
        """Force an index rebuild after mutating ``records`` in place.

        Prefer :meth:`append`/:meth:`extend`; this hook exists for code
        that replaces or reorders records directly, which the length
        fallback in :meth:`_index` cannot detect.
        """
        self._groups = None

    def _index(self) -> dict:
        """Lazy group index keyed by (model, difficulty, level, t, n).

        Built once per sweep; report assembly over tens of thousands of
        records drops from repeated linear scans to dict lookups.
        Invalidated by :meth:`append`/:meth:`extend`; the length check is
        only a fallback for legacy code appending to ``records`` directly
        (it cannot see same-length replacements — call
        :meth:`invalidate_index` for those).
        """
        if self._groups is None or sum(
            len(v) for v in self._groups.values()
        ) != len(self.records):
            groups: dict = {}
            for record in self.records:
                key = (
                    record.model, record.difficulty, record.level,
                    record.temperature, record.n,
                )
                groups.setdefault(key, []).append(record)
            self._groups = groups
        return self._groups

    def group(
        self,
        model: str,
        difficulty: Difficulty,
        level: PromptLevel | None,
        temperature: float,
        n: int,
    ) -> list[CompletionRecord]:
        """Indexed record slice; level=None merges all three levels."""
        groups = self._index()
        if level is not None:
            return groups.get((model, difficulty, level, temperature, n), [])
        merged: list[CompletionRecord] = []
        for lvl in PromptLevel:
            merged.extend(
                groups.get((model, difficulty, lvl, temperature, n), [])
            )
        return merged

    def filter(
        self,
        model: str | None = None,
        base_model: str | None = None,
        fine_tuned: bool | None = None,
        difficulty: Difficulty | None = None,
        level: PromptLevel | None = None,
        temperature: float | None = None,
        n: int | None = None,
        problem: int | None = None,
    ) -> list[CompletionRecord]:
        out = self.records
        if model is not None:
            out = [r for r in out if r.model == model]
        if base_model is not None:
            out = [r for r in out if r.base_model == base_model]
        if fine_tuned is not None:
            out = [r for r in out if r.fine_tuned == fine_tuned]
        if difficulty is not None:
            out = [r for r in out if r.difficulty == difficulty]
        if level is not None:
            out = [r for r in out if r.level == level]
        if temperature is not None:
            out = [r for r in out if abs(r.temperature - temperature) < 1e-9]
        if n is not None:
            out = [r for r in out if r.n == n]
        if problem is not None:
            out = [r for r in out if r.problem == problem]
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def rate(records: list[CompletionRecord], metric: str = "passed") -> float:
        """Pass@(scenario*n) over a record slice."""
        if metric == "passed":
            return pass_fraction([r.passed for r in records])
        if metric == "compiled":
            return pass_fraction([r.compiled for r in records])
        raise ValueError(f"unknown metric {metric!r}")

    def temperatures(self) -> list[float]:
        return sorted({r.temperature for r in self.records})

    def model_names(self) -> list[str]:
        return sorted({r.model for r in self.records})

    def best_temperature(
        self,
        model: str,
        difficulty: Difficulty,
        level: PromptLevel | None,
        n: int,
        metric: str = "passed",
    ) -> tuple[float, float]:
        """(best_t, rate) per the paper's best-results selection.

        Ties break toward higher compile rate, then lower temperature.
        """
        best: tuple[float, float, float] | None = None  # (rate, compile, -t)
        best_t = 0.0
        for t in self.temperatures():
            slice_ = self.group(model, difficulty, level, t, n)
            if not slice_:
                continue
            key = (
                self.rate(slice_, metric),
                self.rate(slice_, "compiled"),
                -t,
            )
            if best is None or key > best:
                best = key
                best_t = t
        if best is None:
            return 0.0, 0.0
        return best_t, best[0]

    def mean_inference_seconds(self, model: str) -> float:
        return mean(
            [r.inference_seconds for r in self.filter(model=model)]
        )

    def __len__(self) -> int:
        return len(self.records)

