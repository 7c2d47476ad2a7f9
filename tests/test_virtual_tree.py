"""Tests for the virtual binary tree technique (paper Subsection 5.1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import virtual_tree as vt


class TestTreeShape:
    def test_depth_of_one(self):
        assert vt.tree_depth(1) == 0

    def test_depth_of_powers_of_two(self):
        assert vt.tree_depth(2) == 1
        assert vt.tree_depth(4) == 2
        assert vt.tree_depth(8) == 3

    def test_depth_rounds_up(self):
        assert vt.tree_depth(5) == 3
        assert vt.tree_depth(6) == 3
        assert vt.tree_depth(9) == 4

    def test_size_is_full_tree(self):
        assert vt.tree_size(1) == 1
        assert vt.tree_size(6) == 15
        assert vt.tree_size(8) == 15
        assert vt.tree_size(9) == 31

    def test_invalid_parameter_rejected(self):
        with pytest.raises(ValueError):
            vt.tree_depth(0)
        with pytest.raises(ValueError):
            vt.tree_size(-3)

    def test_relabel_matches_paper_figure(self):
        # Figure 1: B([1,6]) labels 1..15 map to 1,2,2,3,3,4,4,5,5,6,6,7,7,8,8.
        assert [vt.relabel(x) for x in range(1, 16)] == [
            1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
        ]

    def test_relabel_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            vt.relabel(0)

    def test_leaf_labels_are_odd(self):
        assert [vt.leaf_label_in_b(k) for k in range(1, 6)] == [1, 3, 5, 7, 9]

    def test_ancestors_of_root_is_root(self):
        root = 2 ** vt.tree_depth(6)
        assert vt.ancestors_in_b(root, 6) == [root]

    def test_ancestors_path_ends_at_root(self):
        for label in range(1, vt.tree_size(6) + 1):
            path = vt.ancestors_in_b(label, 6)
            assert path[0] == label
            assert path[-1] == 2 ** vt.tree_depth(6)

    def test_ancestors_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            vt.ancestors_in_b(16, 6)


class TestCommunicationSets:
    def test_figure2_example(self):
        assert sorted(vt.communication_set(3, 6)) == [3, 4, 5]
        assert sorted(vt.communication_set(5, 6)) == [5, 6]

    def test_k_is_always_in_its_own_set(self):
        for i in (1, 2, 5, 9, 16, 33):
            for k in range(1, i + 1):
                assert k in vt.communication_set(k, i)

    def test_sets_within_range(self):
        for i in (3, 7, 12):
            for k in range(1, i + 1):
                assert all(1 <= r <= i for r in vt.communication_set(k, i))

    def test_out_of_range_k_rejected(self):
        with pytest.raises(ValueError):
            vt.communication_set(0, 5)
        with pytest.raises(ValueError):
            vt.communication_set(6, 5)

    def test_observation4_size_bound_small(self):
        # |S_k([1,i])| <= ceil(log2 i) + 1 (Observation 4 up to the leaf term).
        for i in range(1, 70):
            bound = (math.ceil(math.log2(i)) if i > 1 else 0) + 1
            for k in range(1, i + 1):
                assert len(vt.communication_set(k, i)) <= bound

    def test_observation5_small_exhaustive(self):
        for i in range(2, 34):
            for k in range(1, i):
                for k_prime in range(k + 1, i + 1):
                    r = vt.common_round(k, k_prime, i)
                    assert k < r <= k_prime
                    assert r in vt.communication_set(k, i)
                    assert r in vt.communication_set(k_prime, i)

    def test_common_round_precondition(self):
        with pytest.raises(ValueError):
            vt.common_round(3, 3, 6)
        with pytest.raises(ValueError):
            vt.common_round(5, 3, 6)

    def test_communication_sets_bulk(self):
        sets = vt.communication_sets(10)
        assert set(sets) == set(range(1, 11))
        assert sets[3] == vt.communication_set(3, 10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=3000), st.data())
    def test_observation5_property(self, i, data):
        k = data.draw(st.integers(min_value=1, max_value=i - 1))
        k_prime = data.draw(st.integers(min_value=k + 1, max_value=i))
        r = vt.common_round(k, k_prime, i)
        assert k < r <= k_prime

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3000), st.data())
    def test_observation4_property(self, i, data):
        k = data.draw(st.integers(min_value=1, max_value=i))
        bound = (math.ceil(math.log2(i)) if i > 1 else 0) + 1
        assert len(vt.communication_set(k, i)) <= bound

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=2**40), st.data())
    def test_closed_form_membership(self, i, data):
        """``in_communication_set`` is the closed form of membership."""
        k = data.draw(st.integers(min_value=1, max_value=i))
        rounds = vt.communication_set(k, i)
        for r in {1, k, i, *rounds, *data.draw(st.lists(
                st.integers(min_value=1, max_value=i), max_size=8))}:
            assert bool(vt.in_communication_set(r, k)) == (r in rounds)

    def test_closed_form_membership_exhaustive_and_elementwise(self):
        np = pytest.importorskip("numpy")
        for i in range(1, 70):
            r, k = np.meshgrid(np.arange(1, i + 1), np.arange(1, i + 1))
            expected = [[x in vt.communication_set(row, i)
                         for x in range(1, i + 1)] for row in range(1, i + 1)]
            assert vt.in_communication_set(r, k).tolist() == expected


class TestCommunicationSetMemo:
    """``communication_set`` is memoised in a bounded cache: it must hand
    back what a fresh computation does, and never grow past its bound."""

    @staticmethod
    def _fresh(k, i):
        return vt.communication_set.__wrapped__(k, i)

    def test_cached_sets_equal_fresh_computations(self):
        vt.communication_set.cache_clear()
        for i in range(1, 40):
            for k in range(1, i + 1):
                first = vt.communication_set(k, i)
                assert vt.communication_set(k, i) is first
                assert first == self._fresh(k, i)
        assert vt.communication_set.cache_info().hits >= 780

    def test_cache_is_bounded(self):
        bound = vt.communication_set.cache_info().maxsize
        assert bound == vt.COMMUNICATION_SET_CACHE
        # Spread-out IDs from an (n + 2)^3 space, as VT-MIS draws them:
        # twice as many distinct keys as the cache holds.
        space = (1000 + 2) ** 3
        for k in range(2 * bound):
            key = k * 2_654_435_761 % space + 1
            assert vt.communication_set(key, space) == self._fresh(key, space)
        assert vt.communication_set.cache_info().currsize == bound


class TestVirtualTreeClass:
    def test_build_and_lookup(self):
        tree = vt.VirtualTree.build(6)
        assert tree.parameter == 6
        assert tree.depth == 3
        assert tree.size == 15
        assert tree.awake_rounds(3) == vt.communication_set(3, 6)

    def test_max_awake_rounds(self):
        tree = vt.VirtualTree.build(64)
        assert tree.max_awake_rounds() <= 7

    def test_rounds_with_listener_inverse(self):
        tree = vt.VirtualTree.build(12)
        for r in range(1, 13):
            listeners = tree.rounds_with_listener(r)
            for k in listeners:
                assert r in tree.awake_rounds(k)

    def test_awake_rounds_out_of_range(self):
        tree = vt.VirtualTree.build(6)
        with pytest.raises(ValueError):
            tree.awake_rounds(7)

    def test_figure_example_contents(self):
        example = vt.figure_example()
        assert example["S_3"] == [3, 4, 5]
        assert example["S_5"] == [5, 6]
        assert example["common_round_3_5"] == 5
        assert example["depth"] == 3
