"""Training-corpus pipeline: gathering, de-duplication, filtering.

Reproduces paper Sec. III-A: a GitHub leg (BigQuery-style query, MinHash/
Jaccard de-duplication, module-pair and size filters) and a textbook leg
(cleaning, snippet validation, sliding-window examples).

The facade is lazy (:mod:`repro._lazy`): the zoo's prompt matcher
imports :mod:`~repro.corpus.filters` alone, and the pipeline loads only
when one of its names is used.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".documents": ("Corpus", "SourceFile"),
    ".filters": (
        "MAX_FILE_CHARS", "apply_filters", "has_module_pair",
        "strip_comments"),
    ".github": ("Repository", "SyntheticGitHub", "bigquery_verilog_query"),
    ".minhash": (
        "MinHasher", "deduplicate", "estimate_jaccard", "exact_jaccard",
        "shingles"),
    ".pipeline": (
        "CorpusConfig",
        "TrainingCorpus",
        "build_combined_corpus",
        "build_corpus",
        "build_github_corpus",
    ),
    ".textbook": (
        "Textbook",
        "clean_textbook",
        "extract_snippets",
        "generate_library",
        "generate_textbook",
        "sliding_windows",
        "textbook_examples",
    ),
})
