"""Stage-I allocations: which processors each application gets.

An :class:`Allocation` maps every application of a batch to a
:class:`~repro.system.ProcessorGroup` (``n`` processors of one type). The
paper's constraints (§IV): every application must be assigned, to a
*power-of-2* number of processors of a *single* type, and the assignments of
one type must fit within that type's processor count.

:func:`candidate_assignments` and :func:`enumerate_allocations` define the
search space shared by all RA heuristics; the incremental heuristics reach
them through :class:`~repro.ra.base.SearchSpace`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from ..apps import Batch
from ..errors import AllocationError, InfeasibleAllocationError
from ..system import HeterogeneousSystem, ProcessorGroup

__all__ = [
    "Allocation",
    "candidate_assignments",
    "count_allocations",
    "enumerate_allocations",
    "powers_of_two_upto",
    "type_usage",
]


def powers_of_two_upto(n: int) -> list[int]:
    """All powers of two ``<= n`` (ascending). Empty for ``n < 1``."""
    out = []
    k = 1
    while k <= n:
        out.append(k)
        k <<= 1
    return out


def type_usage(groups: Iterable[ProcessorGroup]) -> dict[str, int]:
    """Processors used per type name, in order of each type's first group."""
    usage: dict[str, int] = {}
    for group in groups:
        usage[group.ptype.name] = usage.get(group.ptype.name, 0) + group.size
    return usage


class Allocation:
    """Immutable mapping ``application name -> ProcessorGroup``.

    Validates power-of-2 group sizes and, against a system and batch, that
    all applications are assigned, type names are known, and per-type
    capacity is respected.
    """

    def __init__(
        self,
        groups: Mapping[str, ProcessorGroup],
        *,
        system: HeterogeneousSystem | None = None,
        batch: Batch | None = None,
    ) -> None:
        self._groups = dict(groups)
        if not self._groups:
            raise AllocationError("an allocation must assign at least one application")
        for app_name, group in self._groups.items():
            if group.size & (group.size - 1):
                raise AllocationError(
                    f"application {app_name!r} assigned {group.size} "
                    "processors; the model requires a power-of-2 count"
                )
        if batch is not None:
            missing = set(batch.names) - set(self._groups)
            if missing:
                raise AllocationError(
                    f"applications not assigned: {sorted(missing)} "
                    "(all applications must be assigned)"
                )
            extra = set(self._groups) - set(batch.names)
            if extra:
                raise AllocationError(
                    f"allocation references unknown applications: {sorted(extra)}"
                )
        if system is not None:
            for type_name, used in type_usage(self._groups.values()).items():
                cap = system.type(type_name).count
                if used > cap:
                    raise AllocationError(
                        f"type {type_name!r} oversubscribed: {used} > {cap}"
                    )

    # ------------------------------------------------------------------ data

    def group(self, app_name: str) -> ProcessorGroup:
        try:
            return self._groups[app_name]
        except KeyError:
            raise AllocationError(
                f"no group allocated to application {app_name!r}"
            ) from None

    def __contains__(self, app_name: str) -> bool:
        return app_name in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def items(self) -> Iterator[tuple[str, ProcessorGroup]]:
        return iter(self._groups.items())

    @property
    def app_names(self) -> tuple[str, ...]:
        return tuple(self._groups)

    def usage(self) -> dict[str, int]:
        """Processors used per type name."""
        return type_usage(self._groups.values())

    def total_processors(self) -> int:
        """``sum_i max_i`` — all processors allocated across applications."""
        return sum(g.size for g in self._groups.values())

    def as_table(self) -> list[tuple[str, str, int]]:
        """Rows ``(application, type name, processor count)`` — Table IV form."""
        return [
            (app, group.ptype.name, group.size) for app, group in self._groups.items()
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return {
            k: (g.ptype.name, g.size) for k, g in self._groups.items()
        } == {k: (g.ptype.name, g.size) for k, g in other._groups.items()}

    def __hash__(self) -> int:
        return hash(
            frozenset(
                (k, g.ptype.name, g.size) for k, g in self._groups.items()
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{app}->{g.size}x{g.ptype.name}" for app, g in self._groups.items()
        )
        return f"Allocation({inner})"


def candidate_assignments(
    app_name: str, batch: Batch, system: HeterogeneousSystem
) -> list[ProcessorGroup]:
    """All power-of-2 single-type groups an application could receive.

    Other applications are ignored. Only processor types for which the
    application has an execution-time PMF are considered.
    """
    app = batch.app(app_name)
    groups: list[ProcessorGroup] = []
    for ptype in system.types:
        if app.exec_time.supports(ptype.name):
            groups.extend(
                ProcessorGroup(ptype, n) for n in powers_of_two_upto(ptype.count)
            )
    if not groups:
        raise InfeasibleAllocationError(
            f"application {app_name!r} cannot run on any processor type "
            "of this system"
        )
    return groups


def _candidate_lists(
    batch: Batch, system: HeterogeneousSystem, allowed: set[int] | None
) -> list[list[ProcessorGroup]]:
    """Each application's candidate groups of an ``allowed`` size, in order."""
    return [
        [
            g
            for g in candidate_assignments(name, batch, system)
            if allowed is None or g.size in allowed
        ]
        for name in batch.names
    ]


def enumerate_allocations(
    batch: Batch,
    system: HeterogeneousSystem,
    *,
    sizes_filter: Iterable[int] | None = None,
) -> Iterator[Allocation]:
    """Every feasible complete allocation, lazily (backtracking search).

    ``sizes_filter`` restricts group sizes (e.g. ``{4}`` for the naive
    equal-share allocator). An application left without any candidate group
    raises ``InfeasibleAllocationError`` at the call, before iteration
    starts. The number of allocations grows exponentially in the batch
    size; this enumerator is intended for small instances and as the ground
    truth that scalable heuristics are compared against.
    """
    names = batch.names
    sizes_allowed = set(sizes_filter) if sizes_filter is not None else None
    candidates_per_app = _candidate_lists(batch, system, sizes_allowed)
    for name, cands in zip(names, candidates_per_app):
        if not cands:
            raise InfeasibleAllocationError(
                f"no candidate groups for application {name!r} under the "
                f"size filter {sorted(sizes_allowed) if sizes_allowed else None}"
            )

    assignment: dict[str, ProcessorGroup] = {}

    def backtrack(i: int, remaining: dict[str, int]) -> Iterator[Allocation]:
        if i == len(names):
            yield Allocation(dict(assignment), system=system, batch=batch)
            return
        name = names[i]
        for group in candidates_per_app[i]:
            if group.size > remaining[group.ptype.name]:
                continue
            assignment[name] = group
            remaining[group.ptype.name] -= group.size
            yield from backtrack(i + 1, remaining)
            remaining[group.ptype.name] += group.size
            del assignment[name]

    return backtrack(0, {t.name: t.count for t in system.types})


def count_allocations(
    batch: Batch,
    system: HeterogeneousSystem,
    limit: int,
    *,
    sizes_filter: Iterable[int] | None = None,
) -> int:
    """How many allocations :func:`enumerate_allocations` yields, capped.

    Returns ``limit + 1`` as soon as more than ``limit`` exist, and 0 when
    an application has no candidate group under ``sizes_filter``. No
    allocation is built: the number of ways to place applications ``i``
    onward depends only on ``i`` and the processors left of each type, so
    it is memoized on that state.
    """
    candidates_per_app = _candidate_lists(
        batch, system, set(sizes_filter) if sizes_filter is not None else None
    )
    slot = {t.name: k for k, t in enumerate(system.types)}
    cap = limit + 1
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def count(i: int, remaining: tuple[int, ...]) -> int:
        if i == len(candidates_per_app):
            return 1
        if (i, remaining) not in memo:
            total = 0
            for group in candidates_per_app[i]:
                k = slot[group.ptype.name]
                if total < cap and group.size <= remaining[k]:
                    left = (*remaining[:k], remaining[k] - group.size, *remaining[k + 1:])
                    total += count(i + 1, left)
            memo[i, remaining] = min(total, cap)
        return memo[i, remaining]

    return count(0, tuple(t.count for t in system.types))
