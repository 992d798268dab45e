#!/usr/bin/env python3
"""Generate docs/api.md: every public symbol with its one-line summary.

Run from the repository root after changing public APIs:

    python tools/gen_api_doc.py

The reference is committed so it is readable without running anything; a
test (tests/unit/test_api_doc.py) fails when it drifts from the code.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro",
    "repro.pmf",
    "repro.system",
    "repro.apps",
    "repro.ra",
    "repro.dls",
    "repro.sim",
    "repro.faults",
    "repro.exec",
    "repro.framework",
    "repro.paper",
    "repro.reporting",
    "repro.obs",
    "repro.obs.schema",
    "repro.validation",
    "repro.io",
    "repro.rng",
    "repro.cli",
]

HEADER = """# API reference

Every public symbol (`__all__`) with its summary line. Generated by
`tools/gen_api_doc.py` — do not edit by hand.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def render() -> str:
    parts = [HEADER]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        names = sorted(getattr(module, "__all__", []))
        if not names:
            continue
        parts.append(f"\n## `{module_name}`\n")
        mod_doc = first_line(module)
        if mod_doc:
            parts.append(f"{mod_doc}\n")
        parts.append("| symbol | kind | summary |")
        parts.append("|---|---|---|")
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj):
                kind = "function"
            elif isinstance(obj, dict):
                kind = "mapping"
            elif isinstance(obj, (tuple, list, str, int, float)):
                kind = "constant"
            else:
                kind = type(obj).__name__
            summary = first_line(obj) if kind in ("class", "function") else ""
            summary = summary.replace("|", "\\|")
            parts.append(f"| `{name}` | {kind} | {summary} |")
        parts.append("")
    return "\n".join(parts)


def main() -> None:
    out = Path(__file__).resolve().parents[1] / "docs" / "api.md"
    out.write_text(render())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
