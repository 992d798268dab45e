"""Unit tests of allocations and the search space (repro.ra.allocation)."""

import pytest

from repro.errors import AllocationError, InfeasibleAllocationError
from repro.ra import (
    Allocation,
    SearchSpace,
    StageIEvaluator,
    candidate_assignments,
    enumerate_allocations,
    powers_of_two_upto,
)
from repro.ra.allocation import count_allocations
from repro.system import ProcessorGroup


class TestPowersOfTwo:
    def test_values(self):
        assert powers_of_two_upto(8) == [1, 2, 4, 8]
        assert powers_of_two_upto(5) == [1, 2, 4]
        assert powers_of_two_upto(1) == [1]
        assert powers_of_two_upto(0) == []


class TestAllocation:
    def _alloc(self, system, batch, mapping):
        return Allocation(
            {
                app: ProcessorGroup(system.type(t), n)
                for app, (t, n) in mapping.items()
            },
            system=system,
            batch=batch,
        )

    def test_valid(self, paper_like_system, paper_like_batch):
        alloc = self._alloc(
            paper_like_system,
            paper_like_batch,
            {"app1": ("type1", 2), "app2": ("type1", 2), "app3": ("type2", 8)},
        )
        assert alloc.group("app3").size == 8
        assert alloc.usage() == {"type1": 4, "type2": 8}
        assert alloc.total_processors() == 12
        assert len(alloc) == 3
        assert "app1" in alloc

    def test_as_table(self, paper_like_system, paper_like_batch):
        alloc = self._alloc(
            paper_like_system,
            paper_like_batch,
            {"app1": ("type1", 2), "app2": ("type1", 2), "app3": ("type2", 8)},
        )
        assert ("app3", "type2", 8) in alloc.as_table()

    def test_equality(self, paper_like_system, paper_like_batch):
        mapping = {"app1": ("type1", 2), "app2": ("type1", 2), "app3": ("type2", 8)}
        a = self._alloc(paper_like_system, paper_like_batch, mapping)
        b = self._alloc(paper_like_system, paper_like_batch, mapping)
        assert a == b and hash(a) == hash(b)

    def test_missing_app_rejected(self, paper_like_system, paper_like_batch):
        with pytest.raises(AllocationError):
            self._alloc(
                paper_like_system,
                paper_like_batch,
                {"app1": ("type1", 2), "app2": ("type1", 2)},
            )

    def test_unknown_app_rejected(self, paper_like_system, paper_like_batch):
        with pytest.raises(AllocationError):
            self._alloc(
                paper_like_system,
                paper_like_batch,
                {
                    "app1": ("type1", 2),
                    "app2": ("type1", 2),
                    "app3": ("type2", 8),
                    "ghost": ("type2", 1),
                },
            )

    def test_oversubscription_rejected(self, paper_like_system, paper_like_batch):
        with pytest.raises(AllocationError):
            self._alloc(
                paper_like_system,
                paper_like_batch,
                {"app1": ("type1", 4), "app2": ("type1", 2), "app3": ("type2", 8)},
            )

    def test_power_of_two_enforced(self, paper_like_system, paper_like_batch):
        with pytest.raises(AllocationError):
            Allocation(
                {
                    "app1": ProcessorGroup(paper_like_system.type("type1"), 3),
                    "app2": ProcessorGroup(paper_like_system.type("type1"), 1),
                    "app3": ProcessorGroup(paper_like_system.type("type2"), 8),
                },
                system=paper_like_system,
                batch=paper_like_batch,
            )

    def test_empty_rejected(self):
        with pytest.raises(AllocationError):
            Allocation({})

    def test_unallocated_group_lookup(self, paper_like_system, paper_like_batch):
        alloc = self._alloc(
            paper_like_system,
            paper_like_batch,
            {"app1": ("type1", 2), "app2": ("type1", 2), "app3": ("type2", 8)},
        )
        with pytest.raises(AllocationError):
            alloc.group("ghost")


class TestCandidates:
    def test_paper_counts(self, paper_like_system, paper_like_batch):
        # type1 (4 procs): sizes 1,2,4; type2 (8 procs): 1,2,4,8 -> 7 options.
        cands = candidate_assignments("app1", paper_like_batch, paper_like_system)
        assert len(cands) == 7

    def test_only_supported_types(self, paper_like_system, paper_like_batch):
        # app supports both types in the paper batch; restrict via a custom app
        from repro.apps import Application, Batch, normal_exectime_model

        batch = Batch(
            [Application("only1", 0, 10, normal_exectime_model({"type1": 10.0}))]
        )
        cands = candidate_assignments("only1", batch, paper_like_system)
        assert {g.ptype.name for g in cands} == {"type1"}

    def test_unsupported_everywhere_rejected(self, paper_like_system):
        from repro.apps import Application, Batch, normal_exectime_model

        batch = Batch(
            [Application("alien", 0, 10, normal_exectime_model({"typeX": 10.0}))]
        )
        with pytest.raises(InfeasibleAllocationError):
            candidate_assignments("alien", batch, paper_like_system)


class TestEnumerate:
    def test_paper_space_size(self, paper_like_system, paper_like_batch):
        allocations = list(
            enumerate_allocations(paper_like_batch, paper_like_system)
        )
        # Matches the exhaustive allocator's evaluation count.
        assert len(allocations) == 153
        assert len(set(allocations)) == 153

    def test_all_feasible(self, paper_like_system, paper_like_batch):
        for alloc in enumerate_allocations(paper_like_batch, paper_like_system):
            usage = alloc.usage()
            assert usage.get("type1", 0) <= 4
            assert usage.get("type2", 0) <= 8

    def test_sizes_filter(self, paper_like_system, paper_like_batch):
        allocations = list(
            enumerate_allocations(
                paper_like_batch, paper_like_system, sizes_filter={4}
            )
        )
        assert allocations  # the equal-share space is nonempty
        for alloc in allocations:
            assert all(g.size == 4 for _, g in alloc.items())

    def test_sizes_filter_infeasible(self, paper_like_system, paper_like_batch):
        with pytest.raises(InfeasibleAllocationError):
            list(
                enumerate_allocations(
                    paper_like_batch, paper_like_system, sizes_filter={16}
                )
            )

    def test_candidates_checked_at_call(self, paper_like_system, paper_like_batch):
        # Raised before iteration, so callers can tell "no candidate" apart
        # from errors raised while the enumeration is consumed.
        with pytest.raises(InfeasibleAllocationError):
            enumerate_allocations(
                paper_like_batch, paper_like_system, sizes_filter={16}
            )


class TestCount:
    # tests/property/test_prop_ra.py::test_count_matches_enumeration
    # compares the count with the enumeration on random instances.
    @pytest.mark.parametrize("limit, counted", [(0, 1), (10, 11), (152, 153), (153, 153)])
    def test_capped_one_past_the_limit(
        self, paper_like_system, paper_like_batch, limit, counted
    ):
        # The paper instance has 153 allocations.
        assert count_allocations(paper_like_batch, paper_like_system, limit) == counted


class TestSearchSpace:
    @pytest.fixture
    def space(self, paper_like_batch, paper_like_system):
        return SearchSpace(
            StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)
        )

    def group(self, space, type_name, size):
        return space.evaluator.system.group(type_name, size)

    def test_holds_candidates_and_capacity(
        self, space, paper_like_batch, paper_like_system
    ):
        assert space.names == ["app1", "app2", "app3"]
        for name in space.names:
            assert space.candidates[name] == candidate_assignments(
                name, paper_like_batch, paper_like_system
            )
        assert space.capacity == {"type1": 4, "type2": 8}

    def admits(self, space, group, remaining, pending):
        return group.size <= space.limits(remaining, pending)[group.ptype.name]

    def test_admits_checks_capacity(self, space):
        remaining = {"type1": 2, "type2": 8}
        assert space.limits(remaining, []) == remaining
        assert self.admits(space, self.group(space, "type1", 2), remaining, [])
        assert not self.admits(space, self.group(space, "type1", 4), remaining, [])

    def test_admits_keeps_a_processor_for_each_pending_app(self, space):
        remaining = {"type1": 1, "type2": 8}
        assert space.limits(remaining, ["app2", "app3"]) == {"type1": 1, "type2": 7}
        whole_type2 = self.group(space, "type2", 8)
        assert self.admits(space, whole_type2, remaining, ["app2"])
        assert not self.admits(space, whole_type2, remaining, ["app2", "app3"])
        assert self.admits(
            space, self.group(space, "type2", 4), remaining, ["app2", "app3"]
        )

    def test_fits(self, space):
        assert space.fits(
            {"app1": self.group(space, "type1", 2), "app2": self.group(space, "type1", 2)}
        )
        assert not space.fits(
            {"app1": self.group(space, "type1", 4), "app2": self.group(space, "type1", 1)}
        )

    def test_result(self, space):
        chosen = {
            "app1": self.group(space, "type1", 2),
            "app2": self.group(space, "type1", 2),
            "app3": self.group(space, "type2", 8),
        }
        result = space.result("demo", chosen, 5)
        assert result.allocation == Allocation(chosen)
        assert result.robustness == space.evaluator.robustness(result.allocation)
        assert (result.heuristic, result.evaluations) == ("demo", 5)
        assert space.result("demo", chosen, 5, robustness=0.5).robustness == 0.5

    def test_result_validates(self, space):
        oversubscribed = {
            "app1": self.group(space, "type1", 4),
            "app2": self.group(space, "type1", 1),
            "app3": self.group(space, "type2", 8),
        }
        with pytest.raises(AllocationError):
            space.result("demo", oversubscribed, 1)
