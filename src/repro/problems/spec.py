"""Dataclasses describing the 17-problem evaluation set (paper Table II).

A :class:`Problem` bundles everything the evaluation pipeline needs:

* three prompts of increasing detail (L/M/H, paper Sec. IV-B) — each is
  the text handed to the LLM, ending mid-module so the model completes it;
* the canonical (correct) completion body;
* *wrong variants*: completions that compile but fail the test bench,
  modelled on the paper's published failure examples (Fig. 2c/3c/4c);
* a self-checking test bench whose output contains ``ALL TESTS PASSED``
  exactly when the design under test is functionally correct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Difficulty(enum.Enum):
    """Problem difficulty level from Table II."""

    BASIC = "basic"
    INTERMEDIATE = "intermediate"
    ADVANCED = "advanced"

    def __str__(self) -> str:
        return self.value


class PromptLevel(enum.Enum):
    """Prompt description detail from Sec. IV-B."""

    LOW = "L"
    MEDIUM = "M"
    HIGH = "H"

    def __str__(self) -> str:
        return self.value


PASS_MARKER = "ALL TESTS PASSED"


def completion_source(completion: str) -> str:
    """The completion's part of :meth:`Problem.full_source`, which
    follows the prompt's: the completion stripped, then a newline."""
    return completion.strip() + "\n"


@dataclass(frozen=True)
class WrongVariant:
    """A completion that compiles but fails functional tests."""

    name: str
    body: str
    description: str = ""


@dataclass(frozen=True)
class Problem:
    """One problem of the evaluation set."""

    number: int
    slug: str
    title: str
    difficulty: Difficulty
    module_name: str
    prompts: dict[PromptLevel, str]
    canonical_body: str
    testbench: str
    wrong_variants: tuple[WrongVariant, ...] = field(default_factory=tuple)

    def prompt(self, level: PromptLevel) -> str:
        return self.prompts[level]

    def full_source(self, completion: str, level: PromptLevel = PromptLevel.LOW) -> str:
        """Assemble a complete module: prompt text + completion body."""
        return self.prompt_source(level) + completion_source(completion)

    def prompt_source(self, level: PromptLevel = PromptLevel.LOW) -> str:
        """The prompt's part of :meth:`full_source`: the prompt text
        ending in exactly one newline, so a completion starts on a line
        of its own."""
        return self.prompts[level].rstrip("\n") + "\n"

    def canonical_source(self, level: PromptLevel = PromptLevel.LOW) -> str:
        return self.full_source(self.canonical_body, level)

    def bench_source(self, completion: str, level: PromptLevel = PromptLevel.LOW) -> str:
        """Module-under-test plus its test bench, ready to simulate."""
        return self.full_source(completion, level) + "\n" + self.testbench

    def __str__(self) -> str:
        return f"Problem {self.number}: {self.title} ({self.difficulty})"
