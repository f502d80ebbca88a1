"""Full-text tokenisation used by both the indexer and the query evaluator.

A token is a maximal run of Unicode letters and digits; ``.`` and ``-`` join
a run only when the characters on both sides are digits, so ``13.378`` and
``2018-09-13`` stay single tokens while ``foo-bar`` splits. Tokens are
lowercased. Underscore is a separator.
"""

from __future__ import annotations

import re

# \w minus underscore = Unicode letters, digits, and combining marks
_TOKEN_RE = re.compile(r"[^\W_]+(?:(?<=\d)[.-](?=\d)[^\W_]+)*")


def tokenize(text: str) -> set[str]:
    """Lowercased token set of ``text``."""
    return {t.lower() for t in set(_TOKEN_RE.findall(text))}
