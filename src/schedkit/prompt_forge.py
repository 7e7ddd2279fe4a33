"""Prompt assembly from plain-text templates plus run-time sections.

Templates live under ``prompts/`` next to this module, one file per task
kind. Assembly is a pure function of its inputs, so every prompt is
byte-reproducible. Rules are an input (``run-eval --rules``), not generated
here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from . import DataError

_PROMPT_DIR = Path(__file__).parent / "prompts"

MVP = "MVP"
DA = "DA"
AP = "AP"
POLISH = "Polish"
TASK_KINDS = (MVP, DA, AP, POLISH)

_TASK_FILES = {
    MVP: "task_mvp.txt",
    DA: "task_da.txt",
    AP: "task_ap.txt",
    POLISH: "task_polish.txt",
}

SECTION_ROW = "ROW:"
SECTION_KNOWLEDGE = "STATIC KNOWLEDGE:"
SECTION_CONTEXT = "CONTEXT:"
SECTION_RULES = "RULES:"
SECTION_RAW = "RAW OUTPUT:"


class PromptError(DataError):
    pass


class UnknownTaskError(PromptError):
    pass


class MissingSectionError(PromptError):
    pass


@dataclass(frozen=True)
class TaskPrompt:
    """One prompt pair. ``pieces`` are ``(head, context, tail)``: they join
    to ``user_text``, and the context meets its neighbours at ``\n``, so
    whitespace token counts add up across them (see ``prompt_tokens``)."""

    system_text: str
    user_text: str
    pieces: tuple[str, str, str]


_template_cache: dict[str, str] = {}


def _load(filename: str) -> str:
    if filename not in _template_cache:
        path = _PROMPT_DIR / filename
        if not path.is_file():
            raise PromptError(f"template file missing: {path}")
        text = path.read_text("utf-8")
        if "{" in text or "}" in text:
            raise PromptError(f"template {filename} carries undeclared placeholders")
        _template_cache[filename] = text.rstrip("\n")
    return _template_cache[filename]


def _answer_format(n_values: int, top_k: int) -> str:
    base = (
        f"Return exactly {n_values} value(s) as a comma-separated list, each "
        f"enclosed within [Value] and [/Value] tags, in the same order as the "
        f"missing columns listed in the row."
    )
    if top_k > 1:
        base += (
            f" You may supply up to {top_k} ranked candidates per value, "
            f"separated by '|' inside the tags, best first."
        )
    return base


def build_task_prompt(
    kind: str,
    masked_row_text: str,
    static_knowledge_text: str = "",
    context_text: str = "",
    rules_text: str = "",
    *,
    masked_columns: Sequence[str] = (),
    top_k: int = 2,
) -> TaskPrompt:
    """Assemble the system/user pair for one task instance.

    MVP/DA/AP user text carries the four fixed sections in order and asks
    for one value per masked column; Polish instead wraps the payload to
    refine under RAW OUTPUT.
    """
    if kind not in TASK_KINDS:
        raise UnknownTaskError(kind)
    system_text = _load(_TASK_FILES[kind])
    if kind == POLISH:
        if not masked_row_text.strip():
            raise MissingSectionError("polish payload is empty")
        user_text = f"{SECTION_RAW}\n{masked_row_text}\n"
        return TaskPrompt(system_text, user_text, (user_text, "", ""))

    if not masked_row_text.strip():
        raise MissingSectionError("masked row text is empty")
    if not masked_columns:
        raise MissingSectionError("no masked columns to ask for")
    fmt = _answer_format(len(masked_columns), top_k)
    head = (
        f"{SECTION_ROW}\n{masked_row_text}\n\n"
        f"{SECTION_KNOWLEDGE}\n{static_knowledge_text}\n\n"
        f"{SECTION_CONTEXT}\n"
    )
    tail = f"\n\n{SECTION_RULES}\n{rules_text}\n\n{fmt}\n"
    user_text = f"{head}{context_text}{tail}"
    return TaskPrompt(system_text, user_text, (head, context_text, tail))


def word_count(text: str) -> int:
    return len(text.split())


def prompt_tokens(
    prompt: TaskPrompt, count=word_count, context_tokens: int | None = None
) -> int:
    """``word_count(system_text) + word_count(user_text)``, added up from the
    pieces. ``count`` may memoise: the system text and the tail repeat
    across prompts. A caller that knows the context's count passes it as
    ``context_tokens``."""
    head, context_text, tail = prompt.pieces
    if context_tokens is None:
        context_tokens = count(context_text)
    return count(prompt.system_text) + word_count(head) + context_tokens + count(tail)
