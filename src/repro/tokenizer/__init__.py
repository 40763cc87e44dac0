"""Byte-pair-encoding tokenizer trained on the Verilog corpus.

The facade is lazy (:mod:`repro._lazy`): :mod:`~repro.tokenizer.bpe`
loads when one of its names is first used.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".bpe": ("BPETokenizer", "pretokenize"),
})
