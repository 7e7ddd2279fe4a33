"""Context polishing: send raw prompt sections through the polishing prompt
and keep their token lengths before and after, grouped by task kind.

Polishing computes on text alone, so this module, unlike ``alignment``,
loads no numpy. A token is a whitespace-separated word
(``prompt_forge.word_count``).
"""

from __future__ import annotations

import json
from functools import lru_cache

from .gateway import TranscriptLog, error_text, timed_complete
from .prompt_forge import POLISH, SECTION_RAW, build_task_prompt, word_count


class ContextLengthStats:
    """Token-length samples before/after polishing, grouped by task kind."""

    def __init__(self):
        self.raw_lengths: dict[str, list[int]] = {}
        self.polished_lengths: dict[str, list[int]] = {}

    def add(self, kind: str, raw_tokens: int, polished_tokens: int) -> None:
        self.raw_lengths.setdefault(kind, []).append(raw_tokens)
        self.polished_lengths.setdefault(kind, []).append(polished_tokens)

    def _samples(self, kind: str, which: str) -> list[int]:
        table = self.raw_lengths if which == "raw" else self.polished_lengths
        return table.get(kind, [])

    def mean(self, kind: str, which: str = "raw") -> float:
        samples = self._samples(kind, which)
        return sum(samples) / len(samples) if samples else 0.0

    def median(self, kind: str, which: str = "raw") -> float:
        samples = sorted(self._samples(kind, which))
        if not samples:
            return 0.0
        mid = len(samples) // 2
        if len(samples) % 2:
            return float(samples[mid])
        return (samples[mid - 1] + samples[mid]) / 2.0

    def histogram(self, kind: str, which: str = "raw") -> dict[int, int]:
        hist: dict[int, int] = {}
        for v in self._samples(kind, which):
            hist[v] = hist.get(v, 0) + 1
        return dict(sorted(hist.items()))

    def to_json(self) -> str:
        payload = {
            which: {
                k: {"samples": v, "mean": self.mean(k, which), "median": self.median(k, which)}
                for k, v in sorted(table.items())
            }
            for which, table in (("raw", self.raw_lengths), ("polished", self.polished_lengths))
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# The polishing prompt's system text and RAW OUTPUT header, counted once.
_count_once = lru_cache(maxsize=2)(word_count)


def polish_context(
    gateway,
    task_kind: str,
    raw_text: str,
    stats: ContextLengthStats,
    transcript: TranscriptLog | None = None,
) -> str:
    """Send raw prompt sections through the polishing prompt; track lengths.

    The exchange goes to ``transcript`` (if any), a failed one before its
    ``GatewayError`` is raised. Its token counts reuse the two that
    ``stats`` takes, since newlines part the raw text from the header."""
    prompt = build_task_prompt(POLISH, raw_text)
    polished, error, latency = timed_complete(gateway, prompt.system_text, prompt.user_text)
    raw_tokens = word_count(raw_text)
    polished_tokens = 0 if polished is None else word_count(polished)
    if transcript is not None:
        transcript.append(
            system_text=prompt.system_text, user_text=prompt.user_text, response_text=polished,
            error=error_text(error),
            latency_ms=latency, completion_tokens=polished_tokens,
            prompt_tokens=_count_once(prompt.system_text) + _count_once(SECTION_RAW) + raw_tokens,
        )
    if error is not None:
        raise error
    stats.add(task_kind, raw_tokens, polished_tokens)
    return polished
