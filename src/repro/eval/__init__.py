"""Evaluation framework: truncation, compile/functional gates, metrics,
sweep harness and paper-table reporting (paper Sec. IV-V).

The facade is lazy (:mod:`repro._lazy`): a name loads its submodule on
first use.  The sweep path (:mod:`~repro.eval.pipeline`,
:mod:`~repro.eval.jobs`, :mod:`~repro.eval.store`) is imported by the
modules that run it; reporting, statistics and batch analysis load only
when asked for.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".analysis": (
        "BootstrapInterval",
        "bootstrap_interval",
        "model_comparison",
        "pass_at_k_curve",
        "scenario_pass_at_k",
    ),
    ".analyze": (
        "AnalysisTarget",
        "TargetReport",
        "analysis_report_to_dict",
        "analysis_report_to_json",
        "analyze_target",
        "analyze_targets",
        "corpus_summary",
        "render_analysis_report",
        "targets_from_files",
        "targets_from_problems",
    ),
    ".export": (
        "evaluation_from_dict",
        "evaluation_to_dict",
        "load_sweep_json",
        "load_sweep_result_json",
        "save_sweep",
        "save_sweep_result",
        "sweep_result_to_json",
        "sweep_to_csv",
        "sweep_to_json",
    ),
    ".harness": ("CompletionRecord", "Sweep", "SweepConfig"),
    ".jobs": (
        "Executor",
        "GenerationJob",
        "JobError",
        "RetryPolicy",
        "SkippedJob",
        "SweepExecutor",
        "SweepPlan",
        "SweepPlanner",
        "SweepResult",
    ),
    ".prompting": (
        "HINT_MARKER",
        "PROBLEM_HINTS",
        "engineered_prompt",
        "has_hint",
        "hint_coverage",
        "hint_for",
    ),
    ".metrics": (
        "mean",
        "pass_at_k",
        "pass_at_k_by_problem",
        "pass_fraction",
        "repair_budget_curve",
    ),
    ".pipeline": ("CompletionEvaluation", "Evaluator"),
    ".store": ("KeyedJsonStore", "VerdictStore", "resolve_store"),
    ".report": (
        "Headline",
        "fig6_completions",
        "fig6_temperature",
        "fig7_difficulty",
        "fig7_levels",
        "headline_numbers",
        "per_problem_pass_counts",
        "render_headline",
        "render_series",
        "render_table3",
        "render_table4",
        "table3",
        "table4",
    ),
    ".truncate": ("has_endmodule", "truncate_completion"),
})
