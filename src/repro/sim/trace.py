"""Simulation trace recording.

Every layer appends typed records (category + payload dict) to a shared
:class:`TraceRecorder`. Tests and the MCAN/LCAN property monitors query the
trace after a run; benchmarks use it to account bandwidth; the online
invariant monitors of :mod:`repro.obs.monitors` subscribe as streaming
sinks and check properties *while* the run is in progress.

The recorder keeps per-category and per-node indexes alongside the record
list, so :meth:`TraceRecorder.select` and :meth:`TraceRecorder.count` cost
O(matches) and O(1) instead of a scan over the whole trace — the difference
between interactive and unusable on the 100k-record traces a long
membership campaign produces (see ``benchmarks/bench_trace_queries.py``).

Long campaigns that only need live monitoring can cap memory with
``TraceRecorder(capacity=...)``: the recorder becomes a ring buffer that
evicts the oldest records (indexes included) while sinks still observe
every record as it happens. Finished traces stream to disk with
:meth:`TraceRecorder.export_jsonl` or live through a :class:`JsonlSink`.
"""

from __future__ import annotations

import heapq
import json
from array import array
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)
from collections import deque

TraceSink = Callable[["TraceRecord"], None]

#: Compact the backing list once this much dead space accumulates in ring
#: mode (and the dead space dominates), keeping eviction amortized O(1).
_COMPACT_THRESHOLD = 1024

#: When True, ``TraceRecorder(...)`` constructs a
#: :class:`ColumnarTraceRecorder`: times / categories / nodes live in
#: packed ``array`` columns (category names interned to small ints) and a
#: :class:`TraceRecord` object only materializes when a record is actually
#: observed — by a query, an iteration or a sink. Recording skips the
#: per-record object allocation entirely, which is the dominant cost of a
#: fully traced large-membership run, and the retained trace is a fraction
#: of the row-mode footprint. Queries return identical records in
#: identical order, so fingerprint-style comparisons cannot tell the two
#: modes apart. Ring-buffer mode (``capacity=...``) keeps the row
#: recorder: columnar storage is append-only. Read at construction, so
#: toggle it before building a network.
COLUMNAR = False

#: Lines buffered per write by the columnar bulk export.
_EXPORT_BATCH = 512


class TraceRecord:
    """One trace entry. Treat as immutable once recorded.

    A slotted plain class rather than a frozen dataclass: recorders append
    thousands of these per simulated second, and the frozen-dataclass
    ``__init__`` (one ``object.__setattr__`` per field) is measurable at
    that rate.

    Attributes:
        time: simulation time of the event, in kernel ticks.
        category: dotted event kind, e.g. ``"bus.tx"`` or ``"msh.view"``.
        node: node identifier the record concerns (-1 for bus-global events).
        data: free-form payload.
    """

    __slots__ = ("time", "category", "node", "data")

    def __init__(
        self,
        time: int,
        category: str,
        node: int = -1,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.node = node
        self.data = {} if data is None else data

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.node == other.node
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time}, category={self.category!r}, "
            f"node={self.node}, data={self.data!r})"
        )


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of a trace payload value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    try:
        # NodeSet and friends: iterable containers serialize as lists.
        return [_jsonable(item) for item in value]
    except TypeError:
        return repr(value)


def record_to_dict(record: TraceRecord) -> Dict[str, Any]:
    """A JSON-serializable projection of ``record``."""
    return {
        "time": record.time,
        "category": record.category,
        "node": record.node,
        "data": {key: _jsonable(value) for key, value in record.data.items()},
    }


def volume_by_category(records) -> Dict[str, Tuple[int, int]]:
    """``category -> (rows, bytes)`` over ``records``, sorted by category.

    ``bytes`` is the size of the records' JSONL export (one
    ``record_to_dict`` line each, newline included, UTF-8) — what the
    trace costs on disk, category by category.
    """
    volume: Dict[str, List[int]] = {}
    for record in records:
        line = json.dumps(record_to_dict(record)).encode()
        entry = volume.setdefault(record.category, [0, 0])
        entry[0] += 1
        entry[1] += len(line) + 1
    return {name: (rows, size) for name, (rows, size) in sorted(volume.items())}


class JsonlSink:
    """A streaming sink writing each record as one JSON line.

    Register with :meth:`TraceRecorder.add_sink`; pairs with ring-buffer
    mode for long campaigns: the in-memory trace stays bounded while the
    full history lands on disk.

    ``batch`` buffers that many encoded lines per file write: the default
    of 1 preserves the seed's record-at-a-time behaviour (each record is
    durable as soon as the sink returns), while bulk exports batch a few
    hundred lines per ``write`` and cut the syscall count by that factor.
    Buffered lines are flushed by :meth:`close` (and counted in
    ``records_written`` as soon as they are encoded).
    """

    def __init__(self, target: Union[str, IO[str]], batch: int = 1) -> None:
        if batch <= 0:
            raise ValueError(f"batch must be positive: {batch}")
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._batch = batch
        self._buffer: List[str] = []
        self.records_written = 0

    def __call__(self, record: TraceRecord) -> None:
        if self._batch == 1:
            self._handle.write(json.dumps(record_to_dict(record)) + "\n")
            self.records_written += 1
            return
        self._buffer.append(json.dumps(record_to_dict(record)))
        self.records_written += 1
        if len(self._buffer) >= self._batch:
            self._drain_buffer()

    def _drain_buffer(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def close(self) -> None:
        """Flush and close the underlying file (if this sink opened it)."""
        self._drain_buffer()
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class TraceRecorder:
    """Append-only sequence of :class:`TraceRecord` with indexed queries."""

    def __new__(
        cls, enabled: bool = True, capacity: Optional[int] = None
    ) -> "TraceRecorder":
        # Storage-mode dispatch: with COLUMNAR set, a plain
        # ``TraceRecorder(...)`` builds the columnar recorder instead —
        # call sites (the kernel included) need no knowledge of the mode.
        # Ring-buffer traces stay on row storage (columns are append-only),
        # and explicit subclass constructions are honoured as written.
        if cls is TraceRecorder and COLUMNAR and capacity is None:
            return object.__new__(ColumnarTraceRecorder)
        return object.__new__(cls)

    def __init__(
        self, enabled: bool = True, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.enabled = enabled
        self._capacity = capacity
        self._disabled: set = set()
        # Records live in ``_records[_offset:]``; each carries an absolute,
        # ever-increasing sequence number so index entries stay valid across
        # ring-buffer evictions. Record seq -> list slot translation is
        # ``seq - _first_seq + _offset``.
        self._records: List[TraceRecord] = []
        self._offset = 0
        self._first_seq = 0
        self._next_seq = 0
        self._by_category: Dict[str, Deque[int]] = {}
        self._by_node: Dict[int, Deque[int]] = {}
        self._sinks: List[TraceSink] = []
        self._max_time = 0

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records) - self._offset

    def __iter__(self) -> Iterator[TraceRecord]:
        for slot in range(self._offset, len(self._records)):
            yield self._records[slot]

    @property
    def capacity(self) -> Optional[int]:
        """Ring-buffer size, or ``None`` for an unbounded trace."""
        return self._capacity

    @property
    def evicted(self) -> int:
        """Records dropped so far by the ring buffer."""
        return self._first_seq

    @property
    def last_time(self) -> int:
        """Largest record time seen so far (0 on an empty trace)."""
        return self._max_time

    # -- recording ---------------------------------------------------------------

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Stream every future record to ``sink`` (returns it for removal)."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Stop streaming to ``sink`` (missing sinks are ignored)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def wants(self, category: str) -> bool:
        """Cheap pre-check: would a record of ``category`` be retained?

        Hot paths guard their ``record(...)`` calls with this so a disabled
        recorder (or a disabled category) skips building the payload dict
        entirely — the kwargs dict is the dominant cost of a dropped record.
        """
        return self.enabled and category not in self._disabled

    def disable_categories(self, *categories: str) -> None:
        """Drop future records of the given exact categories."""
        self._disabled.update(categories)

    def enable_categories(self, *categories: str) -> None:
        """Re-enable categories previously disabled (missing ones ignored)."""
        self._disabled.difference_update(categories)

    @property
    def disabled_categories(self) -> frozenset:
        """The categories currently filtered out."""
        return frozenset(self._disabled)

    def record(
        self,
        time: int,
        category: str,
        node: int = -1,
        **data: Any,
    ) -> None:
        """Append a record (no-op while the recorder or category is off)."""
        if not self.enabled or category in self._disabled:
            return
        # Bypasses TraceRecord.__init__: this is the single hottest
        # allocation site in a traced run (one record per frame and per
        # protocol event), and the extra constructor frame is measurable
        # there.
        entry = TraceRecord.__new__(TraceRecord)
        entry.time = time
        entry.category = category
        entry.node = node
        entry.data = data
        seq = self._next_seq
        self._next_seq = seq + 1
        if time > self._max_time:
            self._max_time = time
        self._records.append(entry)
        by_category = self._by_category.get(category)
        if by_category is None:
            by_category = self._by_category[category] = deque()
        by_category.append(seq)
        by_node = self._by_node.get(node)
        if by_node is None:
            by_node = self._by_node[node] = deque()
        by_node.append(seq)
        if self._capacity is not None and len(self) > self._capacity:
            self._evict_oldest()
        if self._sinks:
            for sink in self._sinks:
                sink(entry)

    def record_row(
        self, time: int, category: str, node: int, data: Dict[str, Any]
    ) -> None:
        """Positional fast lane of :meth:`record` for prebuilt payloads.

        Semantics are identical to ``record(time, category, node,
        **data)`` except the payload dict is stored as given — no kwargs
        repack. A caller may share one payload across several records;
        recorded payloads are therefore treated as immutable, exactly as
        :meth:`record`'s kwargs dicts already are.
        """
        if not self.enabled or category in self._disabled:
            return
        entry = TraceRecord.__new__(TraceRecord)
        entry.time = time
        entry.category = category
        entry.node = node
        entry.data = data
        seq = self._next_seq
        self._next_seq = seq + 1
        if time > self._max_time:
            self._max_time = time
        self._records.append(entry)
        by_category = self._by_category.get(category)
        if by_category is None:
            by_category = self._by_category[category] = deque()
        by_category.append(seq)
        by_node = self._by_node.get(node)
        if by_node is None:
            by_node = self._by_node[node] = deque()
        by_node.append(seq)
        if self._capacity is not None and len(self) > self._capacity:
            self._evict_oldest()
        if self._sinks:
            for sink in self._sinks:
                sink(entry)

    def _evict_oldest(self) -> None:
        oldest = self._records[self._offset]
        seq = self._first_seq
        for index in (
            self._by_category[oldest.category],
            self._by_node[oldest.node],
        ):
            if index and index[0] == seq:
                index.popleft()
        self._offset += 1
        self._first_seq += 1
        if (
            self._offset > _COMPACT_THRESHOLD
            and self._offset * 2 > len(self._records)
        ):
            del self._records[: self._offset]
            self._offset = 0

    # -- queries -----------------------------------------------------------------

    def _get(self, seq: int) -> TraceRecord:
        return self._records[seq - self._first_seq + self._offset]

    def _candidate_seqs(
        self, category: Optional[str], node: Optional[int]
    ) -> Iterator[int]:
        """Sequence numbers to inspect, narrowed by the cheapest index."""
        if category is not None and not category.endswith("."):
            exact = self._by_category.get(category)
            if exact is None:
                return iter(())
            if node is not None:
                by_node = self._by_node.get(node)
                if by_node is None:
                    return iter(())
                return iter(exact if len(exact) <= len(by_node) else by_node)
            return iter(exact)
        if category is not None:
            # Prefix query: merge the per-category runs back into insertion
            # order. Distinct categories are few, so this stays O(matches).
            runs = [
                index
                for key, index in self._by_category.items()
                if key.startswith(category)
            ]
            if not runs:
                return iter(())
            if len(runs) == 1:
                return iter(runs[0])
            return heapq.merge(*runs)
        if node is not None:
            index = self._by_node.get(node)
            return iter(index) if index is not None else iter(())
        return iter(range(self._first_seq, self._next_seq))

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Return records matching every given filter, in insertion order.

        ``category`` matches exactly, or as a prefix when it ends with
        ``"."`` (so ``select(category="bus.")`` returns all bus events).
        ``start``/``end`` bound the record time (inclusive). The category
        and node filters are answered from indexes, so the cost is
        proportional to the candidate matches, not the trace length.
        """
        prefix = category is not None and category.endswith(".")
        result = []
        for seq in self._candidate_seqs(category, node):
            record = self._get(seq)
            if prefix and not record.category.startswith(category):
                continue
            if not prefix and category is not None:
                if record.category != category:
                    continue
            if node is not None and record.node != node:
                continue
            if start is not None and record.time < start:
                continue
            if end is not None and record.time > end:
                continue
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def count(self, category: str) -> int:
        """Number of records with the given category (index lookup).

        A trailing ``"."`` counts the whole prefix, summing over the
        distinct matching categories.
        """
        if category.endswith("."):
            return sum(
                len(index)
                for key, index in self._by_category.items()
                if key.startswith(category)
            )
        index = self._by_category.get(category)
        return len(index) if index is not None else 0

    def categories(self) -> Dict[str, int]:
        """Record count per category, sorted by category name."""
        return {
            key: len(index)
            for key, index in sorted(self._by_category.items())
            if index
        }

    def window(self, start: int, end: int) -> List[TraceRecord]:
        """All records with ``start <= time <= end``, in insertion order.

        The slice the invariant monitors attach to a violation report.
        """
        return self.select(start=start, end=end)

    def category_columns(
        self, category: str
    ) -> Tuple["array", "array", List[Dict[str, Any]]]:
        """``(times, nodes, payloads)`` columns for one exact category.

        The storage-agnostic bulk accessor the analysis queries build on:
        times as an ``array('q')``, nodes as an ``array('i')``, payloads as
        a list of dicts, all in insertion order. On the row recorder the
        columns are gathered from the records; the columnar recorder
        answers straight from its backing arrays without materializing a
        single :class:`TraceRecord`.
        """
        records = self.select(category=category)
        return (
            array("q", (record.time for record in records)),
            array("i", (record.node for record in records)),
            [record.data for record in records],
        )

    # -- export ------------------------------------------------------------------

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the retained records as JSON lines; returns the count."""
        sink = JsonlSink(target)
        try:
            for record in self:
                sink(record)
        finally:
            sink.close()
        return sink.records_written

    def clear(self) -> None:
        """Drop all records and indexes (sinks stay registered)."""
        self._records.clear()
        self._offset = 0
        self._first_seq = self._next_seq
        self._by_category.clear()
        self._by_node.clear()
        self._max_time = 0


class ColumnarTraceRecorder(TraceRecorder):
    """Array-backed trace storage: columns instead of record objects.

    Times, interned category ids and node ids live in packed ``array``
    columns; only the free-form payload dicts stay as Python objects.
    Recording is four C-level appends plus one dict lookup — no
    :class:`TraceRecord` allocation — and records materialize lazily,
    only when something actually looks at them (a query, an iteration,
    a registered sink). Row indexes for category/node queries are built
    lazily on the first query and extended incrementally, so a run that
    never queries its trace pays nothing for them.

    Selected by the module-level :data:`COLUMNAR` toggle (see there for
    the equivalence contract); behaviour-identical to the row recorder
    for every query, in record values and order alike.
    """

    def __init__(
        self, enabled: bool = True, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None:
            raise ValueError(
                "columnar storage is append-only: ring-buffer capacity "
                "requires the row recorder"
            )
        super().__init__(enabled=enabled, capacity=None)
        self._times = array("q")
        self._cats = array("i")
        self._nodes = array("i")
        self._payloads: List[Dict[str, Any]] = []
        #: Category interning: name -> small int and back.
        self._cat_of: Dict[str, int] = {}
        self._cat_names: List[str] = []
        # Bound appends: the record() below runs once per trace record.
        self._t_append = self._times.append
        self._c_append = self._cats.append
        self._n_append = self._nodes.append
        self._p_append = self._payloads.append
        #: Lazy row indexes (category id / node -> array of row numbers),
        #: valid for rows ``< _indexed_rows``.
        self._cat_rows: Dict[int, "array"] = {}
        self._node_rows: Dict[int, "array"] = {}
        self._indexed_rows = 0

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        for row in range(len(self._times)):
            yield self._materialize(row)

    def _materialize(self, row: int) -> TraceRecord:
        entry = TraceRecord.__new__(TraceRecord)
        entry.time = self._times[row]
        entry.category = self._cat_names[self._cats[row]]
        entry.node = self._nodes[row]
        entry.data = self._payloads[row]
        return entry

    # -- recording ------------------------------------------------------------

    def record(
        self,
        time: int,
        category: str,
        node: int = -1,
        **data: Any,
    ) -> None:
        """Append a record (no-op while the recorder or category is off)."""
        if not self.enabled or category in self._disabled:
            return
        cat_id = self._cat_of.get(category)
        if cat_id is None:
            cat_id = self._cat_of[category] = len(self._cat_names)
            self._cat_names.append(category)
        self._t_append(time)
        self._c_append(cat_id)
        self._n_append(node)
        self._p_append(data)
        if time > self._max_time:
            self._max_time = time
        if self._sinks:
            # Sinks observe real records: materialize once, share the
            # payload dict exactly as the row recorder does.
            entry = TraceRecord.__new__(TraceRecord)
            entry.time = time
            entry.category = category
            entry.node = node
            entry.data = data
            for sink in self._sinks:
                sink(entry)

    def record_row(
        self, time: int, category: str, node: int, data: Dict[str, Any]
    ) -> None:
        """Positional fast lane of :meth:`record` (see the row recorder)."""
        if not self.enabled or category in self._disabled:
            return
        cat_id = self._cat_of.get(category)
        if cat_id is None:
            cat_id = self._cat_of[category] = len(self._cat_names)
            self._cat_names.append(category)
        self._t_append(time)
        self._c_append(cat_id)
        self._n_append(node)
        self._p_append(data)
        if time > self._max_time:
            self._max_time = time
        if self._sinks:
            entry = TraceRecord.__new__(TraceRecord)
            entry.time = time
            entry.category = category
            entry.node = node
            entry.data = data
            for sink in self._sinks:
                sink(entry)

    # -- queries --------------------------------------------------------------

    def _ensure_indexes(self) -> None:
        start = self._indexed_rows
        total = len(self._times)
        if start == total:
            return
        cats = self._cats
        nodes = self._nodes
        cat_rows = self._cat_rows
        node_rows = self._node_rows
        for row in range(start, total):
            cid = cats[row]
            bucket = cat_rows.get(cid)
            if bucket is None:
                bucket = cat_rows[cid] = array("q")
            bucket.append(row)
            nid = nodes[row]
            bucket = node_rows.get(nid)
            if bucket is None:
                bucket = node_rows[nid] = array("q")
            bucket.append(row)
        self._indexed_rows = total

    def _candidate_rows(
        self, category: Optional[str], node: Optional[int]
    ) -> Iterator[int]:
        """Row numbers to inspect, narrowed by the cheapest index."""
        self._ensure_indexes()
        if category is not None and not category.endswith("."):
            cid = self._cat_of.get(category)
            exact = self._cat_rows.get(cid) if cid is not None else None
            if exact is None:
                return iter(())
            if node is not None:
                by_node = self._node_rows.get(node)
                if by_node is None:
                    return iter(())
                return iter(exact if len(exact) <= len(by_node) else by_node)
            return iter(exact)
        if category is not None:
            runs = [
                self._cat_rows[cid]
                for name, cid in self._cat_of.items()
                if name.startswith(category) and cid in self._cat_rows
            ]
            if not runs:
                return iter(())
            if len(runs) == 1:
                return iter(runs[0])
            return heapq.merge(*runs)
        if node is not None:
            index = self._node_rows.get(node)
            return iter(index) if index is not None else iter(())
        return iter(range(len(self._times)))

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Column-native filtering; records materialize only on a match."""
        prefix = category is not None and category.endswith(".")
        want_cid: Optional[int] = None
        if category is not None and not prefix:
            want_cid = self._cat_of.get(category)
            if want_cid is None:
                return []
        times = self._times
        cats = self._cats
        nodes = self._nodes
        names = self._cat_names
        result = []
        for row in self._candidate_rows(category, node):
            if want_cid is not None and cats[row] != want_cid:
                continue
            if prefix and not names[cats[row]].startswith(category):
                continue
            if node is not None and nodes[row] != node:
                continue
            time = times[row]
            if start is not None and time < start:
                continue
            if end is not None and time > end:
                continue
            record = self._materialize(row)
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def count(self, category: str) -> int:
        """C-speed column scan — no index required."""
        if category.endswith("."):
            return sum(
                self._cats.count(cid)
                for name, cid in self._cat_of.items()
                if name.startswith(category)
            )
        cid = self._cat_of.get(category)
        return 0 if cid is None else self._cats.count(cid)

    def categories(self) -> Dict[str, int]:
        """Record count per category, sorted by category name."""
        self._ensure_indexes()
        counts = {
            name: len(self._cat_rows[cid])
            for name, cid in sorted(self._cat_of.items())
            if cid in self._cat_rows
        }
        return {name: count for name, count in counts.items() if count}

    def category_columns(
        self, category: str
    ) -> Tuple["array", "array", List[Dict[str, Any]]]:
        """``(times, nodes, payloads)`` straight off the backing arrays."""
        self._ensure_indexes()
        cid = self._cat_of.get(category)
        rows = self._cat_rows.get(cid) if cid is not None else None
        if not rows:
            return array("q"), array("i"), []
        times = self._times
        nodes = self._nodes
        payloads = self._payloads
        return (
            array("q", (times[row] for row in rows)),
            array("i", (nodes[row] for row in rows)),
            [payloads[row] for row in rows],
        )

    # -- export ---------------------------------------------------------------

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Batched bulk export: a few hundred lines per file write."""
        sink = JsonlSink(target, batch=_EXPORT_BATCH)
        try:
            for record in self:
                sink(record)
        finally:
            sink.close()
        return sink.records_written

    def clear(self) -> None:
        """Drop all records and indexes (sinks and interning stay)."""
        del self._times[:]
        del self._cats[:]
        del self._nodes[:]
        self._payloads.clear()
        self._cat_rows.clear()
        self._node_rows.clear()
        self._indexed_rows = 0
        self._max_time = 0
