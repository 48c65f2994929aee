"""Tests for the LabelStore."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import GraphError, NotIndexedError


class TestMutation:
    def test_starts_empty(self):
        store = LabelStore(4)
        assert store.total_entries == 0
        assert store.label_sizes() == [0, 0, 0, 0]
        assert store.avg_label_size == 0.0

    def test_add(self):
        store = LabelStore(3)
        store.add(1, 0, 2.5)
        assert store.label_size(1) == 1
        assert store.entries_of(1) == [(0, 2.5)]
        assert store.hubs_of(1) == [0]
        assert store.dists_of(1) == [2.5]

    def test_add_delta(self):
        store = LabelStore(3)
        n = store.add_delta([(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)])
        assert n == 3
        assert store.total_entries == 3
        assert store.label_size(1) == 2

    def test_avg_label_size(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        store.add(0, 1, 1.0)
        assert store.avg_label_size == 1.0

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            LabelStore(-1)

    def test_empty_store(self):
        store = LabelStore(0)
        assert store.avg_label_size == 0.0
        store.finalize()
        assert store.to_arrays()["indptr"].tolist() == [0]


class TestFinalize:
    def test_requires_finalize(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        with pytest.raises(NotIndexedError):
            store.finalized_hubs(0)
        with pytest.raises(NotIndexedError):
            store.finalized_dists(0)

    def test_sorts_by_hub(self):
        store = LabelStore(1)
        store.add(0, 3, 1.0)
        store.add(0, 1, 2.0)
        store.add(0, 2, 3.0)
        store.finalize()
        assert store.finalized_hubs(0).tolist() == [1, 2, 3]
        assert store.finalized_dists(0).tolist() == [2.0, 3.0, 1.0]

    def test_dedupes_keeping_min_distance(self):
        store = LabelStore(1)
        store.add(0, 5, 9.0)
        store.add(0, 5, 4.0)
        store.finalize()
        assert store.finalized_hubs(0).tolist() == [5]
        assert store.finalized_dists(0).tolist() == [4.0]

    def test_finalize_idempotent(self):
        store = LabelStore(1)
        store.add(0, 0, 1.0)
        store.finalize()
        first = store.finalized_arrays()
        store.finalize()
        second = store.finalized_arrays()
        for a, b in zip(first, second):
            assert a is b

    def test_mutation_invalidates_finalize(self):
        store = LabelStore(1)
        store.add(0, 0, 1.0)
        store.finalize()
        store.add(0, 1, 2.0)
        store.finalize()
        assert store.finalized_hubs(0).tolist() == [0, 1]

    def test_write_order_dists_before_hubs(self):
        """The lock-free-reader invariant: len(dists) >= len(hubs)."""
        store = LabelStore(1)
        # add() appends dist first; simulate interleaving by checking
        # the internal lists after each add.
        for i in range(5):
            store.add(0, i, float(i))
            assert len(store.dists_of(0)) >= len(store.hubs_of(0))


class TestMergeCopy:
    def test_copy_independent(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        b = a.copy()
        b.add(0, 1, 2.0)
        assert a.label_size(0) == 1
        assert b.label_size(0) == 2

    def test_merge_from_unions(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        b = LabelStore(2)
        b.add(0, 1, 2.0)
        b.add(1, 0, 3.0)
        added = a.merge_from(b)
        assert added == 2
        assert a.total_entries == 3

    def test_merge_skips_duplicates(self):
        a = LabelStore(1)
        a.add(0, 0, 1.0)
        b = LabelStore(1)
        b.add(0, 0, 1.0)
        assert a.merge_from(b) == 0
        assert a.total_entries == 1

    def test_merge_size_mismatch(self):
        with pytest.raises(GraphError):
            LabelStore(1).merge_from(LabelStore(2))


class TestSerialisation:
    def test_roundtrip(self):
        store = LabelStore(3)
        store.add(0, 0, 1.0)
        store.add(2, 0, 2.0)
        store.add(2, 1, 3.5)
        arrays = store.to_arrays()
        back = LabelStore.from_arrays(**arrays)
        assert back == store

    def test_roundtrip_applies_dedupe(self):
        store = LabelStore(1)
        store.add(0, 0, 5.0)
        store.add(0, 0, 3.0)
        back = LabelStore.from_arrays(**store.to_arrays())
        assert back.entries_of(0) == [(0, 3.0)]

    def test_from_arrays_validates_indptr(self):
        with pytest.raises(GraphError):
            LabelStore.from_arrays([0, 5], [0], [1.0])

    def test_from_arrays_validates_lengths(self):
        with pytest.raises(GraphError):
            LabelStore.from_arrays([0, 1], [0], [1.0, 2.0])

    def test_from_arrays_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError, match="vertex 1"):
            LabelStore.from_arrays([0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_from_arrays_rejects_out_of_range_hub(self):
        with pytest.raises(GraphError, match=r"L\(1\)"):
            LabelStore.from_arrays([0, 1, 2], [0, 7], [1.0, 2.0])

    def test_from_arrays_rejects_unsorted_hubs(self):
        with pytest.raises(GraphError, match="vertex 0.*unsorted"):
            LabelStore.from_arrays([0, 2, 2], [1, 0], [1.0, 2.0])

    def test_from_arrays_rejects_duplicate_hubs(self):
        with pytest.raises(GraphError, match="vertex 2.*duplicated"):
            LabelStore.from_arrays(
                [0, 1, 1, 3], [0, 1, 1], [1.0, 2.0, 2.0]
            )

    def test_from_arrays_validate_false_skips_structure_checks(self):
        store = LabelStore.from_arrays(
            [0, 2, 2], [1, 0], [1.0, 2.0], validate=False
        )
        assert store.finalized_hubs(0).tolist() == [1, 0]

    def test_to_arrays_shapes(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        arrays = store.to_arrays()
        assert arrays["indptr"].tolist() == [0, 1, 1]
        assert arrays["hubs"].dtype == np.int64
        assert arrays["dists"].dtype == np.float64

    def test_to_arrays_is_zero_copy(self):
        store = LabelStore(2)
        store.add(0, 0, 1.0)
        store.add(1, 0, 2.0)
        indptr, hubs, dists = store.finalized_arrays()
        arrays = store.to_arrays()
        assert arrays["indptr"] is indptr
        assert arrays["hubs"] is hubs
        assert arrays["dists"] is dists


class TestFrozenStore:
    """Stores adopted via from_arrays have no Python lists until thawed."""

    def _frozen(self):
        store = LabelStore(3)
        store.add(0, 0, 1.0)
        store.add(2, 0, 2.0)
        store.add(2, 1, 3.5)
        return LabelStore.from_arrays(**store.to_arrays())

    def test_reads_work_frozen(self):
        store = self._frozen()
        assert store.total_entries == 3
        assert store.label_sizes() == [1, 0, 2]
        assert store.label_size(2) == 2
        assert list(store.hubs_of(2)) == [0, 1]
        assert list(store.dists_of(2)) == [2.0, 3.5]
        assert store.entries_of(2) == [(0, 2.0), (1, 3.5)]

    def test_finalized_slices_are_views(self):
        store = self._frozen()
        hubs = store.finalized_hubs(2)
        assert hubs.base is store.finalized_arrays()[1]

    def test_mutation_thaws(self):
        store = self._frozen()
        store.add(1, 0, 4.0)
        assert store.label_size(1) == 1
        store.finalize()
        assert store.finalized_hubs(1).tolist() == [0]
        assert store.finalized_hubs(2).tolist() == [0, 1]

    def test_copy_thaws(self):
        store = self._frozen()
        clone = store.copy()
        clone.add(0, 1, 9.0)
        assert store.label_size(0) == 1
        assert clone.label_size(0) == 2


class TestEquality:
    def test_equal_ignores_order(self):
        a = LabelStore(1)
        a.add(0, 0, 1.0)
        a.add(0, 1, 2.0)
        b = LabelStore(1)
        b.add(0, 1, 2.0)
        b.add(0, 0, 1.0)
        assert a == b

    def test_unequal_distance(self):
        a = LabelStore(1)
        a.add(0, 0, 1.0)
        b = LabelStore(1)
        b.add(0, 0, 2.0)
        assert a != b

    def test_unequal_size(self):
        assert LabelStore(1) != LabelStore(2)

    def test_equal_with_duplicate_hubs_reduced_by_min(self):
        # Delayed-sync duplicates: (hub 2, 3.0) then (hub 2, 5.0).  The
        # semantic label is {2: 3.0}; a naive dict(zip(...)) would keep
        # the *last* distance (5.0) and wrongly report inequality.
        a = LabelStore(3)
        a.add(0, 2, 3.0)
        a.add(0, 2, 5.0)
        b = LabelStore(3)
        b.add(0, 2, 3.0)
        assert a == b

    def test_duplicate_hubs_still_unequal_when_min_differs(self):
        a = LabelStore(3)
        a.add(0, 2, 3.0)
        a.add(0, 2, 5.0)
        b = LabelStore(3)
        b.add(0, 2, 5.0)
        assert a != b

    def test_frozen_equals_mutable(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        a.add(1, 1, 2.0)
        frozen = LabelStore.from_arrays(**a.to_arrays())
        assert frozen == a

    def test_other_type(self):
        assert LabelStore(1).__eq__("x") is NotImplemented


class TestTornAppendFinalize:
    """Regression: finalize during a concurrent lock-free append.

    ``_sort_dedup_flat`` snapshots per-vertex sizes first and copies the
    lists after; a commit landing between the two leaves both lists one
    entry longer than the snapshot.  The committed prefix must be used
    for *both* arrays — the hub list used to be copied unsliced, which
    raised a numpy broadcast error instead of honoring the documented
    commit protocol.
    """

    class _RacyLists:
        """Per-vertex lists that grow between the size snapshot and the
        copy, like a concurrent ``add()`` landing mid-finalize: the
        size-snapshot iteration sees the committed lists, later indexed
        reads see one extra entry."""

        def __init__(self, committed, extra):
            self._committed = committed
            self._extra = extra

        def __len__(self):
            return len(self._committed)

        def __iter__(self):  # the sizes snapshot path
            return iter(self._committed)

        def __getitem__(self, v):  # the copy path, after the "append"
            return self._committed[v] + self._extra[v]

    def test_torn_append_commits_prefix_only(self):
        from repro.core.labels import _sort_dedup_flat

        hub_lists = self._RacyLists(
            committed=[[0], [1]], extra=[[2], []]
        )
        dist_lists = self._RacyLists(
            committed=[[1.0], [2.0]], extra=[[9.0], []]
        )
        indptr, hubs, dists = _sort_dedup_flat(2, hub_lists, dist_lists)
        # Only the committed prefix is finalized; the in-flight entry
        # (hub 2, 9.0) is not torn into the output.
        assert indptr.tolist() == [0, 1, 2]
        assert hubs.tolist() == [0, 1]
        assert dists.tolist() == [1.0, 2.0]


class TestExtendFromArrays:
    def test_bulk_append_matches_add_delta(self):
        a = LabelStore(4)
        a.add_delta([(0, 1, 1.5), (2, 0, 2.5), (0, 3, 3.5)])
        b = LabelStore(4)
        b.extend_from_arrays(
            np.array([0, 2, 0], dtype=np.int64),
            np.array([1, 0, 3], dtype=np.int64),
            np.array([1.5, 2.5, 3.5]),
        )
        assert b == a
        assert b.total_entries == 3

    def test_thaws_frozen_store(self):
        a = LabelStore(2)
        a.add(0, 0, 1.0)
        frozen = LabelStore.from_arrays(**a.to_arrays())
        assert frozen.extend_from_arrays([1], [1], [2.0]) == 1
        assert frozen.label_size(1) == 1


# ----------------------------------------------------------------------
# Incremental re-finalize
# ----------------------------------------------------------------------
KINDS = ("memory", "frozen", "mmap")
N_MAX = 6
# Few distinct distances, so duplicated hubs often tie or differ.
DISTS = st.sampled_from([0.0, 1e-9, 1.0, 2.5, 7.0, 1e9])


def _entries(n):
    return st.lists(
        st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), DISTS
        ),
        max_size=8,
    )


def _ops(n):
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), _entries(n)),
            st.tuples(st.just("add_delta"), _entries(n)),
            st.tuples(st.just("extend"), _entries(n)),
            st.tuples(st.just("merge"), _entries(n)),
            st.just(("finalize", None)),
        ),
        max_size=12,
    )


def _rows(store):
    """The store's current per-row lists (what a full sort would see)."""
    return [
        (list(store.hubs_of(v)), list(store.dists_of(v)))
        for v in range(store.n)
    ]


def _fully_finalized(rows):
    """The triple of a fresh store built from *rows* and finalized."""
    fresh = LabelStore(len(rows))
    for v, (hubs, dists) in enumerate(rows):
        for h, d in zip(hubs, dists):
            fresh.add(v, h, d)
    return fresh.finalized_arrays()


def _assert_bit_identical(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _store_of_kind(kind, n, initial, tmpdir):
    """A finalized store holding *initial*, in memory, frozen or mmap'd."""
    store = LabelStore(n)
    store.add_delta(initial)
    store.finalize()
    if kind == "memory":
        return store
    if kind == "frozen":
        return LabelStore.from_arrays(
            *(a.copy() for a in store.finalized_arrays())
        )
    PLLIndex(store, np.arange(n)).save(tmpdir, format="dir")
    loaded = PLLIndex.load(tmpdir, mmap=True).store
    assert isinstance(loaded.finalized_arrays()[1], np.memmap)
    return loaded


def _apply(store, op, arg):
    if op == "add":
        for v, h, d in arg:
            store.add(v, h, d)
    elif op == "add_delta":
        store.add_delta(arg)
    elif op == "extend":
        cols = np.array(arg, dtype=np.float64).reshape(-1, 3).T
        store.extend_from_arrays(
            cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2]
        )
    elif op == "merge":
        other = LabelStore(store.n)
        other.add_delta(arg)
        store.merge_from(other)


class TestIncrementalFinalize:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_splice_equals_full_finalize(self, data):
        n = data.draw(st.integers(1, N_MAX))
        initial = data.draw(_entries(n))
        ops = data.draw(_ops(n))
        for kind in KINDS:
            with tempfile.TemporaryDirectory() as tmpdir:
                store = _store_of_kind(kind, n, initial, tmpdir)
                files = {}
                if kind == "mmap":
                    for name in ("label_hubs", "label_dists"):
                        with open(f"{tmpdir}/{name}.npy", "rb") as fh:
                            files[name] = fh.read()
                for op, arg in ops:
                    if op == "finalize":
                        store.finalize()
                        _assert_bit_identical(
                            store.finalized_arrays(),
                            _fully_finalized(_rows(store)),
                        )
                        continue
                    before = _rows(store)
                    _apply(store, op, arg)
                    changed = [
                        v for v, row in enumerate(_rows(store))
                        if row != before[v]
                    ]
                    if changed:
                        # A row changed since the last finalize: the
                        # per-row accessors must not serve it.
                        with pytest.raises(NotIndexedError):
                            store.finalized_hubs(changed[0])
                store.finalize()
                _assert_bit_identical(
                    store.finalized_arrays(), _fully_finalized(_rows(store))
                )
                # The mmap files are never written.
                for name, raw in files.items():
                    with open(f"{tmpdir}/{name}.npy", "rb") as fh:
                        assert fh.read() == raw

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_pre_mutation_row_is_served(self, kind):
        with tempfile.TemporaryDirectory() as tmpdir:
            store = _store_of_kind(
                kind, 4, [(0, 0, 0.0), (1, 0, 1.0), (1, 1, 0.0), (3, 3, 0.0)],
                tmpdir,
            )
            before = store.finalized_hubs(1).tolist()
            store.add(1, 3, 2.0)
            store.add(1, 0, 0.5)  # a lower distance for a present hub
            for read in (store.finalized_hubs, store.finalized_dists):
                for v in range(4):
                    with pytest.raises(NotIndexedError):
                        read(v)
            indptr, hubs, dists = store.finalized_arrays()
            row = slice(int(indptr[1]), int(indptr[2]))
            assert before == [0, 1]
            assert hubs[row].tolist() == [0, 1, 3]
            assert dists[row].tolist() == [0.5, 0.0, 2.0]
            assert store.finalized_dists(1).tolist() == [0.5, 0.0, 2.0]
            assert store.finalized_hubs(3).tolist() == [3]

    def test_splice_allocates_fresh_arrays(self):
        store = LabelStore(3)
        store.add_delta([(0, 0, 0.0), (2, 2, 0.0)])
        store.finalize()
        old = [a.copy() for a in store.finalized_arrays()]
        held = store.finalized_arrays()
        store.add(2, 0, 4.0)
        store.finalize()
        # A caller still holding the old triple sees the old rows.
        for a, b in zip(held, old):
            assert a.tobytes() == b.tobytes()
        assert store.finalized_hubs(2).tolist() == [0, 2]

    def test_builder_without_csr_tracks_nothing(self):
        store = LabelStore(3)
        store.add_delta([(0, 0, 0.0), (1, 0, 1.0)])
        store.extend_from_arrays([2], [0], [3.0])
        assert not store._dirty
        store.finalize()
        store.add(2, 2, 0.0)
        assert store._dirty == {2}
