"""LLM substrate: trainable LMs, sampling, and the calibrated model zoo.

The facade is lazy (:mod:`repro._lazy`): the zoo and its calibration
load with the backends that serve them, while the trainable models
(n-gram, transformer, fine-tuning, sampling) and numpy load only when
one of their names is used.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".base": (
        "Completion",
        "GenerationConfig",
        "LanguageModel",
        "MODEL_SPECS",
        "MODEL_TABLE",
        "ModelSpec",
        "stable_hash",
    ),
    ".calibration": (
        "COMPILE_RATES",
        "COMPLETIONS_PER_PROMPT",
        "FUNCTIONAL_RATES",
        "INFERENCE_SECONDS",
        "PROBLEM_HARDNESS",
        "TEMPERATURES",
        "RatePoint",
        "resolve_rates",
        "temperature_factor",
    ),
    ".finetune": (
        "FineTuneReport",
        "finetune_ngram",
        "finetune_transformer",
        "finetune_zoo_model",
        "train_tokenizer",
    ),
    ".mutations": ("SYNTAX_MUTATORS", "break_syntax", "cosmetic_variant"),
    ".ngram": ("NGramModel",),
    ".sampling": (
        "apply_temperature", "nucleus_filter", "sample_token", "softmax"),
    ".transformer": ("TransformerConfig", "TransformerLM"),
    ".zoo": (
        "SimulatedLLM",
        "make_model",
        "match_prompt_to_problem",
        "paper_model_variants",
        "repairable_model_variants",
    ),
})
