"""Repo-specific static invariant linter.

The CDSF reproduction rests on a handful of invariants that ordinary
linters cannot express: all randomness flows through :mod:`repro.rng`,
:class:`~repro.pmf.PMF` instances are immutable, time/probability values
are never compared with ``==``, stdout and clock reads go through
:mod:`repro.obs`, and pool payloads pickle. This package machine-checks them.

Every rule reads one module at a time and resolves names through that
module's own import statements (:meth:`~repro._lint.core.Module.resolve`).
There is no project pass, no call graph and no inline suppression.
Facts about the running package are checked at runtime instead:
``tests/unit/test_errors_and_exports.py`` holds every public module's
``__all__`` and the technique/heuristic registries to what ``import``
sees, and ``tests/integration/test_obs_names.py`` holds every trace
emitter to the list in ``docs/observability.md``.

Entry points
------------
* ``python tools/lint_invariants.py src`` — the CLI (CI runs this).
* :func:`run_lint` — lint files/directories programmatically.
* :func:`lint_sources` — lint in-memory sources (used by the rule tests).

Rules register themselves on import via :func:`repro._lint.core.register`;
importing this package loads every rule module.
"""

from __future__ import annotations

from .core import (
    Finding,
    Module,
    Rule,
    all_rules,
    known_ids,
    lint_sources,
    parse_paths,
    register,
    run_lint,
)

# Importing the rule modules populates the registry (side-effect imports).
from . import rules_rng  # noqa: F401  (registers RNG001-RNG003, RNG101)
from . import rules_pmf  # noqa: F401  (registers PMF001)
from . import rules_floats  # noqa: F401  (registers FLT001)
from . import rules_obs  # noqa: F401  (registers OBS001-OBS002)
from . import rules_exec  # noqa: F401  (registers EXEC001, EXEC101-EXEC102)

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "all_rules",
    "known_ids",
    "lint_sources",
    "parse_paths",
    "register",
    "run_lint",
]
