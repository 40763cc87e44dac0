"""Completion truncation (paper Sec. IV, step 7 of Fig. 1).

"The LLM-produced code completions on the problem are then truncated at
keywords ``end`` and ``endmodule``" — i.e. everything after the module's
closing keyword (explanatory prose, further modules, repeated prompts) is
discarded before compilation.
"""

from __future__ import annotations

import re

#: ``\bendmodule\b`` without its leading ``\b``: a pattern that starts
#: with a literal lets the regex engine skip ahead to each ``endmodule``
#: instead of trying a match at every position; :func:`_endmodule_end`
#: checks the leading boundary itself.
_ENDMODULE_RE = re.compile(r"endmodule\b")


def _endmodule_end(text: str) -> int:
    r"""End offset of the first ``\bendmodule\b`` in ``text``, or -1.

    A candidate preceded by a word character (``\w`` is ``isalnum()``
    or ``_``) is rejected and the search resumes one character later; a
    rejected candidate cannot hide an accepted one, since two matches of
    ``endmodule\b`` never overlap.
    """
    match = _ENDMODULE_RE.search(text)
    while match is not None:
        start = match.start()
        before = text[start - 1] if start else " "
        if not (before.isalnum() or before == "_"):
            return match.end()
        match = _ENDMODULE_RE.search(text, start + 1)
    return -1


def truncate_completion(text: str) -> str:
    """Keep the completion up to and including the first ``endmodule``.

    A completion with no ``endmodule`` is returned unchanged (it will fail
    the compile gate on its own).
    """
    end = _endmodule_end(text)
    return text if end < 0 else text[:end]


def has_endmodule(text: str) -> bool:
    return _endmodule_end(text) >= 0
