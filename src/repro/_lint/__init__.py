"""Repo-specific static invariant linter.

The CDSF reproduction rests on a handful of invariants that ordinary
linters cannot express: all randomness flows through :mod:`repro.rng`,
:class:`~repro.pmf.PMF` instances are immutable, every concrete technique /
heuristic is reachable through its registry, time/probability values
are never compared with ``==``, and pool payloads pickle. This package
machine-checks them. (Trace names are checked at runtime instead:
``tests/integration/test_obs_names.py`` holds every emitter to the list
in ``docs/observability.md``.)

Every rule reads one module at a time and resolves names through that
module's own import statements (:meth:`~repro._lint.core.Module.resolve`);
only registry completeness (REG001/REG002) compares modules with each
other. There is no call graph.

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
from . import rules_registry  # noqa: F401  (registers REG001-REG002)
from . import rules_floats  # noqa: F401  (registers FLT001)
from . import rules_exports  # noqa: F401  (registers ALL001-ALL003)
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
