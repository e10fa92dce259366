"""Unit tests for the frozen multiset."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.semiring.polynomial import Monomial, Polynomial
from repro.utils.multiset import FrozenMultiset


class TestConstruction:
    def test_empty(self):
        m = FrozenMultiset()
        assert len(m) == 0
        assert list(m) == []

    def test_sorted_storage(self):
        m = FrozenMultiset(["b", "a", "b"])
        assert m.items == ("a", "b", "b")

    def test_equal_multisets_equal_objects(self):
        assert FrozenMultiset(["a", "b"]) == FrozenMultiset(["b", "a"])

    def test_hash_consistency(self):
        assert hash(FrozenMultiset(["a", "b"])) == hash(FrozenMultiset(["b", "a"]))

    def test_inequality_with_other_type(self):
        assert FrozenMultiset(["a"]) != ["a"]


class TestQueries:
    def test_count(self):
        m = FrozenMultiset(["a", "a", "b"])
        assert m.count("a") == 2
        assert m.count("b") == 1
        assert m.count("z") == 0

    def test_contains(self):
        m = FrozenMultiset(["a"])
        assert "a" in m
        assert "b" not in m

    def test_counts_dict_is_fresh(self):
        m = FrozenMultiset(["a", "a"])
        counts = m.counts
        counts["a"] = 99
        assert m.count("a") == 2

    def test_support(self):
        m = FrozenMultiset(["a", "a", "b", "b", "b"])
        assert m.support() == FrozenMultiset(["a", "b"])

    def test_distinct(self):
        m = FrozenMultiset(["b", "a", "b"])
        assert m.distinct() == ("a", "b")


class TestOrder:
    def test_reflexive(self):
        m = FrozenMultiset(["a", "b"])
        assert m <= m

    def test_inclusion(self):
        small = FrozenMultiset(["a"])
        big = FrozenMultiset(["a", "a", "b"])
        assert small <= big
        assert not big <= small

    def test_multiplicity_matters(self):
        double = FrozenMultiset(["a", "a"])
        single = FrozenMultiset(["a", "b", "c"])
        assert not double <= single

    def test_strict_order(self):
        small = FrozenMultiset(["a"])
        big = FrozenMultiset(["a", "b"])
        assert small < big
        assert not small < small

    def test_incomparable(self):
        m1 = FrozenMultiset(["a"])
        m2 = FrozenMultiset(["b"])
        assert not m1 <= m2
        assert not m2 <= m1

    def test_ge_gt(self):
        big = FrozenMultiset(["a", "b"])
        small = FrozenMultiset(["a"])
        assert big >= small
        assert big > small


class TestAlgebra:
    def test_add_is_multiset_sum(self):
        m = FrozenMultiset(["a"]) + FrozenMultiset(["a", "b"])
        assert m == FrozenMultiset(["a", "a", "b"])

    def test_union_takes_max_multiplicity(self):
        m1 = FrozenMultiset(["a", "a", "b"])
        m2 = FrozenMultiset(["a", "b", "b"])
        assert m1.union(m2) == FrozenMultiset(["a", "a", "b", "b"])

    def test_add_wrong_type(self):
        with pytest.raises(TypeError):
            FrozenMultiset(["a"]) + ["a"]

    def test_heterogeneous_elements_sortable(self):
        m = FrozenMultiset([1, "a", 2])
        assert len(m) == 3
        assert m.count(1) == 1


class TestPickleAcrossProcesses:
    """A monomial pickled in one process must equal — and hash like —
    the same monomial built in another.  ``str`` hashes are randomized
    per process, so a cached hash must never travel in the pickle."""

    CHILD = (
        "import pickle, sys\n"
        "from repro.semiring.polynomial import Monomial, Polynomial\n"
        "from repro.utils.multiset import FrozenMultiset\n"
        "sys.stdout.buffer.write(pickle.dumps((\n"
        "    FrozenMultiset(['s1', 's2', 's1']),\n"
        "    Monomial(['s1', 's2', 's1']),\n"
        "    Polynomial.parse('s1^2*s2 + 3*s3'),\n"
        ")))\n"
    )

    # Two seeds: whatever this process hashes with, one of them differs.
    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_unpickled_equals_hashes_and_looks_up_like_local(self, seed):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        blob = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env, check=True, capture_output=True, timeout=60,
        ).stdout
        local = (
            FrozenMultiset(["s1", "s2", "s1"]),
            Monomial(["s1", "s2", "s1"]),
            Polynomial.parse("s1^2*s2 + 3*s3"),
        )
        for mine, theirs in zip(local, pickle.loads(blob)):
            assert theirs == mine
            assert hash(theirs) == hash(mine)
            assert {mine: "found"}[theirs] == "found"
        polynomial = pickle.loads(blob)[2]
        assert polynomial.coefficient(Monomial(["s1", "s1", "s2"])) == 1
