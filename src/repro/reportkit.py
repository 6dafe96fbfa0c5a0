"""The report kit behind ``hiss-report``, ``hiss-sweep``, ``hiss-slo``,
``hiss-postmortem`` and ``hiss-trace``.

Pages: the house CSS, the :func:`page` shell (the input document rides
along as embedded JSON, so tooling can recover it from the page alone),
the SVG frame, the bar cell, the alert-history table and
:func:`write_html`.  Pages are pure functions of their input, so the
same document renders the same bytes.  CLIs: :func:`load_json`, the
``INVALID:`` printer, :func:`command_parser` and the BrokenPipe-safe
:func:`run`.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .version import add_version_flag

#: Tables, muted/mono text and bars: the rules every page uses.
BASE_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 960px; color: #222; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
table { border-collapse: collapse; width: 100%; margin: 0.6em 0; }
th, td { text-align: left; padding: 4px 10px; border-bottom: 1px solid #e5e5e5;
         font-variant-numeric: tabular-nums; }
th { background: #f7f7f7; font-weight: 600; }
td.num, th.num { text-align: right; }
.muted { color: #888; } .mono { font-family: ui-monospace, monospace; }
.bar { background: #4c78a8; height: 11px; display: inline-block;
       vertical-align: middle; border-radius: 2px; }
"""

#: The house style: the base rules plus the firing/ok alert states.
CSS = BASE_CSS + """.bar.bad { background: #e45756; }
.firing { color: #b0272a; font-weight: 600; }
.ok { color: #2a7d2e; }
"""


# ----------------------------------------------------------------------
# Pages
# ----------------------------------------------------------------------
def page(title: str, body: Iterable[str], data_id: str, data: Any, css: str = CSS) -> str:
    """One self-contained page: ``body`` between the heading and ``data``."""
    e = html.escape
    payload = json.dumps(data, sort_keys=True).replace("</", "<\\/")
    return "".join([
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>",
        f"<title>{e(title)}</title><style>{css}</style></head><body>",
        f"<h1>{e(title)}</h1>",
        *body,
        f"<script type='application/json' id='{data_id}'>{payload}</script>",
        "</body></html>",
    ])


def svg_open(width: int, height: int, background: bool = False) -> str:
    """An inline SVG's opening tag, optionally with the framed backdrop."""
    tag = (
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        "xmlns='http://www.w3.org/2000/svg' role='img'>"
    )
    if background:
        tag += (
            f"<rect x='0' y='0' width='{width}' height='{height}' fill='#fafafa' "
            "stroke='#ddd'/>"
        )
    return tag


def bar(px: int, bad: bool = False) -> str:
    """A horizontal bar ``px`` wide; 2 px at least, so zero still shows."""
    cls = "bar bad" if bad else "bar"
    return f"<span class='{cls}' style='width:{max(px, 2)}px'></span>"


def alert_history_table(history: List[Dict[str, Any]]) -> str:
    """SLO alert transitions (``hiss.alerts/1`` history rows) as a table."""
    e = html.escape
    rows = [
        "<table><thead><tr><th>slo</th><th>state</th>"
        "<th class='num'>burn fast</th><th class='num'>burn slow</th>"
        "<th>detail</th></tr></thead><tbody>"
    ]
    for event in history:
        cls = "firing" if event.get("state") == "firing" else "ok"
        rows.append(
            f"<tr><td class='mono'>{e(str(event.get('slo', '?')))}</td>"
            f"<td class='{cls}'>{e(str(event.get('state', '?')))}</td>"
            f"<td class='num'>{event.get('burn_fast', 0.0):.2f}x</td>"
            f"<td class='num'>{event.get('burn_slow', 0.0):.2f}x</td>"
            f"<td class='muted'>{e(str(event.get('detail') or ''))}</td></tr>"
        )
    rows.append("</tbody></table>")
    return "".join(rows)


def write_html(text: str, path: str) -> int:
    """Write a rendered page to ``path``; returns the byte count."""
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def fmt_s(seconds: Optional[float]) -> str:
    """A wall-clock duration in s/ms/µs; ``-`` when unknown."""
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} µs"


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------
def load_json(prog: str, path: str, what: str = "JSON") -> Any:
    """Parse ``path``, or exit with a one-line ``<prog>: ...`` message."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as error:
        raise SystemExit(f"{prog}: cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"{prog}: {path} is not valid {what}: {error}")


def print_problems(problems: Iterable[str], prefix: str = "") -> bool:
    """Print each problem as an ``INVALID:`` line on stderr; any printed?"""
    printed = False
    for problem in problems:
        print(f"INVALID: {prefix}{problem}", file=sys.stderr)
        printed = True
    return printed


def load_valid(prog: str, path: str, validate: Callable[[Any], List[str]]) -> Any:
    """:func:`load_json`, then exit 2 (after the ``INVALID:`` lines) unless
    ``validate`` finds nothing wrong — renderers never draw garbage."""
    document = load_json(prog, path)
    if print_problems(validate(document)):
        raise SystemExit(2)
    return document


def command_parser(prog: str, description: str) -> Tuple[argparse.ArgumentParser, Any]:
    """A ``--version``-aware parser and its required subcommand group;
    each subcommand sets ``func`` for :func:`run`."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    add_version_flag(parser)
    return parser, parser.add_subparsers(dest="command", required=True)


def run(parser: argparse.ArgumentParser, argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and call the chosen subcommand's ``func``."""
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `summary | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
