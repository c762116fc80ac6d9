"""Transport for external scorer endpoints (subprocess or HTTP).

Protocol: one JSON object per request line, one float in [0, 1] per response
line. Shared by the table-merge continuation scorer and the reward scorer.
A scorer is any callable that maps such a payload dict to its float and
raises :class:`ScorerFailure` when it cannot.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable

from .errors import FormatError

Scorer = Callable[[dict], float]


class ScorerFailure(FormatError):
    """External scorer unavailable or returned garbage."""


def _parse_score(text: str) -> float:
    try:
        score = float(text.strip().splitlines()[0])
    except (ValueError, IndexError) as exc:
        raise ScorerFailure(f"bad scorer response: {text!r}") from exc
    if not 0.0 <= score <= 1.0:
        raise ScorerFailure(f"score {score} outside [0,1]")
    return score


def score_via_subprocess(command: list[str], payload: dict, timeout: float = 30.0) -> float:
    """Run ``command``, write one JSON line to stdin, read one float line."""
    # imported here, as urllib is below: a run with no scorer set never needs it
    import subprocess

    try:
        proc = subprocess.run(
            command,
            input=json.dumps(payload) + "\n",
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise ScorerFailure(str(exc)) from exc
    if proc.returncode != 0:
        raise ScorerFailure(f"scorer exited {proc.returncode}: {proc.stderr.strip()}")
    return _parse_score(proc.stdout)


def score_via_http(url: str, payload: dict, timeout: float = 30.0) -> float:
    """POST the JSON payload; the response body is a single float line."""
    # imported here: urllib.request pulls in http.client, a large share of
    # start-up time for a transport that most runs never use
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            body = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ScorerFailure(str(exc)) from exc
    return _parse_score(body)


def external_scorer(cmd: str, url: str) -> Scorer | None:
    """The scorer behind a command line or an HTTP URL, or ``None`` when
    neither is set. The command wins when both are."""
    if cmd:
        import shlex

        return functools.partial(score_via_subprocess, shlex.split(cmd))
    if url:
        return functools.partial(score_via_http, url)
    return None
