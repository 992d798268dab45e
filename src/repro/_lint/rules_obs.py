"""Observability-discipline rules.

The library stays quiet and measurable by construction: every byte of
stdout flows through :func:`repro.obs.console` (or the ``repro`` logger)
and every wall-clock read through the :mod:`repro.obs` span/timer clock.
Two rules enforce the discipline; :mod:`repro.obs` itself is the one
exempt package (it *implements* both paths):

* ``OBS001`` — no bare ``print()`` calls outside ``repro/obs/``;
* ``OBS002`` — no direct wall-clock reads (``time.time``,
  ``time.perf_counter``, ``time.monotonic``, ``time.process_time`` and
  their ``_ns`` variants — called under any import alias, or imported
  from ``time``) outside ``repro/obs/``. ``time.gmtime``,
  ``time.localtime``, ``time.ctime`` and ``time.asctime`` called without
  their time argument, and ``time.strftime(fmt)`` without its time tuple,
  read the clock too; given a time they only format it. This is the one
  rule on ``time`` clocks; RNG101 leaves them to it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .core import Finding, Module, Rule, dotted_name, register

__all__ = ["PrintCallRule", "WallClockRule"]

#: The one package allowed to write stdout / read the wall clock.
_OBS_PREFIX = "obs/"

#: Clock-reading attributes of the stdlib ``time`` module.
_CLOCK_NAMES = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``time`` functions that format a given time but read the wall clock
#: when it is left out: name -> position of the time argument.
_CLOCK_DEFAULTS = {
    "gmtime": 0,
    "localtime": 0,
    "ctime": 0,
    "asctime": 0,
    "strftime": 1,
}


def _in_obs(module: Module) -> bool:
    return module.pkgpath.startswith(_OBS_PREFIX)


@register
class PrintCallRule(Rule):
    id = "OBS001"
    title = "no bare print() outside repro/obs/"
    rationale = (
        "stray prints bypass the console writer and the repro logger, so "
        "library output cannot be silenced, redirected, or traced"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if _in_obs(module):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield module.finding(
                    node,
                    self.id,
                    "bare `print()` call; route stdout through "
                    "repro.obs.console or log via repro.obs.get_logger",
                )


@register
class WallClockRule(Rule):
    id = "OBS002"
    title = "no direct wall-clock reads outside repro/obs/"
    rationale = (
        "ad-hoc time.time()/perf_counter() timings are invisible to the "
        "obs layer; spans and phase gauges must share one clock"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if _in_obs(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                raw = dotted_name(node.func)
                if raw is None:
                    continue
                name = module.resolve(raw)  # `import time as t` → time.*
                head, _, attr = name.partition(".")
                if head != "time":
                    continue
                if attr in _CLOCK_NAMES or (
                    attr in _CLOCK_DEFAULTS
                    and len(node.args) <= _CLOCK_DEFAULTS[attr]
                ):
                    yield module.finding(
                        node,
                        self.id,
                        f"direct `{name}()` call; use repro.obs spans "
                        "(obs.span) for timings",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _CLOCK_NAMES:
                            yield module.finding(
                                node,
                                self.id,
                                f"import of `time.{alias.name}`; use "
                                "repro.obs spans (obs.span) for timings",
                            )
