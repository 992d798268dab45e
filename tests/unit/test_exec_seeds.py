"""Unit tests of the deterministic seed tree (repro.exec.seeds)."""

import pytest

from repro.exec import SeedTree, derive_seed, encode_component


class TestEncodeComponent:
    def test_int_and_str_are_tagged_apart(self):
        assert encode_component(1) != encode_component("1")

    def test_stable_64_bit_words(self):
        word = encode_component("cell")
        assert word == encode_component("cell")
        assert 0 <= word < 2**64

    def test_rejects_non_scalar_components(self):
        with pytest.raises(TypeError):
            encode_component(1.5)
        with pytest.raises(TypeError):
            encode_component(True)
        with pytest.raises(TypeError):
            encode_component(("a",))


class TestSeedTree:
    def test_deterministic_for_explicit_root(self):
        assert SeedTree(42).child("rep", 0).seed() == SeedTree(42).child(
            "rep", 0
        ).seed()

    def test_none_root_draws_fresh_entropy(self):
        # "no seed" must mean a new experiment, not a replay of seed 0.
        a, b = SeedTree(None), SeedTree(None)
        assert a.entropy != b.entropy
        assert a.child("rep", 0).seed() != b.child("rep", 0).seed()

    def test_distinct_paths_distinct_seeds(self):
        tree = SeedTree(7)
        seeds = {
            tree.child("rep", r).seed() for r in range(200)
        } | {tree.child("cell", r).seed() for r in range(200)}
        assert len(seeds) == 400

    def test_path_order_matters(self):
        tree = SeedTree(7)
        assert tree.child("a", "b").seed() != tree.child("b", "a").seed()

    def test_child_chaining_equals_flat_path(self):
        tree = SeedTree(11)
        assert (
            tree.child("cell", "case1").child("rep", 3).seed()
            == tree.child("cell", "case1", "rep", 3).seed()
        )

    def test_child_requires_components(self):
        with pytest.raises(ValueError):
            SeedTree(0).child()

    def test_rejects_bool_and_non_int_roots(self):
        with pytest.raises(TypeError):
            SeedTree(True)
        with pytest.raises(TypeError):
            SeedTree(1.5)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_rejects_negative_roots(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            SeedTree(seed)

    def test_spawn_key_reflects_path(self):
        node = SeedTree(3).child("x", 1)
        assert node.spawn_key == (encode_component("x"), encode_component(1))
        assert node.seed_sequence().spawn_key == node.spawn_key

    def test_rng_streams_are_reproducible_and_independent(self):
        tree = SeedTree(5)
        a = tree.child("rep", 0).rng().random(8)
        b = tree.child("rep", 0).rng().random(8)
        c = tree.child("rep", 1).rng().random(8)
        assert (a == b).all()
        assert (a != c).any()

    def test_value_semantics(self):
        assert SeedTree(9).child("a") == SeedTree(9).child("a")
        assert SeedTree(9).child("a") != SeedTree(9).child("b")
        assert hash(SeedTree(9).child("a")) == hash(SeedTree(9).child("a"))


class TestDeriveSeed:
    def test_matches_tree_child(self):
        assert derive_seed(42, "rep", 0) == SeedTree(42).child("rep", 0).seed()

    def test_root_seed_without_path(self):
        assert derive_seed(42) == SeedTree(42).seed()

    def test_negative_root_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            derive_seed(-1, "x")

    def test_none_is_fresh_per_call(self):
        assert derive_seed(None, "rep", 0) != derive_seed(None, "rep", 0)


class TestAdHocSchemeRegression:
    """The integer-arithmetic derivations the seed tree replaced.

    Each historic scheme mapped ``(root, index)`` pairs onto the integer
    line, where distinct experiments can collide and replay each other's
    draws. The tree keeps root and path in separate SeedSequence fields,
    so the same pairs stay apart.
    """

    def test_study_case_scheme_collides_tree_does_not(self):
        # Old study.py: cell seed = base_seed + 7919 * case_index.
        old = lambda base, case: base + 7919 * case
        assert old(7919, 0) == old(0, 1)  # two different studies, same draws
        assert derive_seed(7919, "cell", 0) != derive_seed(0, "cell", 1)

    def test_loopsim_replication_scheme_collides_tree_does_not(self):
        # Old loopsim.py: replication seed = base * 1_000_003 + rep.
        old = lambda base, rep: base * 1_000_003 + rep
        assert old(1, 0) == old(0, 1_000_003)
        assert derive_seed(1, "rep", 0) != derive_seed(0, "rep", 1_000_003)

    def test_validation_scheme_collides_tree_does_not(self):
        # Old validation.py: run seed = seed * 99_991 + rep.
        old = lambda base, rep: base * 99_991 + rep
        assert old(2, 5) == old(1, 99_996)
        assert derive_seed(2, "rep", 5) != derive_seed(1, "rep", 99_996)

    def test_adjacent_roots_do_not_share_replication_streams(self):
        # base and base+1 overlap almost entirely under `base + rep`.
        a = {derive_seed(100, "rep", r) for r in range(64)}
        b = {derive_seed(101, "rep", r) for r in range(64)}
        assert not (a & b)
