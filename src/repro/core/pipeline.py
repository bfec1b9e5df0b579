"""Intra-shard pipelining: overlap ingest with enrich/analyze.

A month used to serialize its phases — read every ssl/x509 row, then
scan or enrich, then analyze. The batch ingest engine
(:func:`repro.zeek.tsv.iter_ssl_log_batches`) already yields decoded
record *batches* while the rest of the file is unread; this module adds
the thread plumbing that lets a shard consume those batches while the
reader is still decoding:

- :class:`Pipeline` — the on/off selector, mirroring
  :class:`~repro.zeek.ingest.FastPath` (results are byte-identical
  either way; the selector only chooses the execution strategy).
- :class:`BatchFeed` — a bounded producer/consumer feed: one daemon
  thread drains a batch generator into a small queue, the consumer
  iterates. The queue bound provides backpressure so a fast reader
  cannot buffer an unbounded month in memory; gzip/file I/O release
  the GIL, so decode genuinely overlaps the consuming phase.

Error contract: an exception raised by the reader is re-raised to the
consumer *at the position it occurred* (after every batch decoded
before it), so strict-mode ingest failures carry exactly the context
the serial path would have raised. :meth:`BatchFeed.drain_error` exists
for the ssl-error-wins priority: the serial path reads ssl.log before
x509.log, so when a concurrent x509 read fails the pipelined path must
first check whether the ssl stream also fails and surface that error
instead.
"""

from __future__ import annotations

import enum
import queue
import threading
from typing import Iterable, Iterator


class Pipeline(enum.Enum):
    """Intra-shard pipelining selector.

    ``off`` loads each shard serially (read everything, then compute);
    ``on`` (the default) streams ssl batches into the consuming phase
    through a :class:`BatchFeed` whenever the record source supports
    streaming (``stream_month``). Tables, reports, and error context
    are byte-identical in both modes — pinned by
    tests/core/test_pipeline.py.
    """

    ON = "on"
    OFF = "off"

    @classmethod
    def coerce(cls, value: "Pipeline | str | bool | None") -> "Pipeline":
        # ``auto``/``None`` name the retired default; they survive here
        # (and only here) so old scripts and configs still load.
        if isinstance(value, cls):
            return value
        if value is None:
            return cls.ON
        if isinstance(value, bool):
            return cls.ON if value else cls.OFF
        text = str(value).lower()
        if text == "auto":
            return cls.ON
        try:
            return cls(text)
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ValueError(
                f"invalid pipeline mode {value!r} (choose from: {choices})"
            ) from None

    @property
    def enabled(self) -> bool:
        return self is Pipeline.ON


#: Bounded-queue depth: how many decoded batches may sit between the
#: reader thread and the consumer before the reader blocks. Small on
#: purpose — one batch is ~a megabyte of text worth of records, and
#: backpressure (not buffering) is what keeps shard memory flat.
FEED_MAXSIZE = 8

_DONE = object()
_ERROR = object()


class BatchFeed:
    """Drain a batch iterable on a daemon thread; iterate the results.

    The consumer simply ``for batch in feed``. Closing (or exhausting,
    or erroring) the iteration aborts the feeder thread; an aborted
    feeder never blocks process exit. One feed is single-consumer.
    """

    def __init__(
        self, batches: Iterable[list], maxsize: int = FEED_MAXSIZE
    ) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize)
        self._abort = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._pump, args=(batches,), daemon=True
        )
        self._thread.start()

    def _pump(self, batches: Iterable[list]) -> None:
        try:
            for batch in batches:
                if not self._put(batch):
                    return
        except BaseException as exc:  # noqa: BLE001 - re-raised to consumer
            self._error = exc
            self._put(_ERROR)
            return
        self._put(_DONE)

    def _put(self, item) -> bool:
        while not self._abort.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def __iter__(self) -> Iterator[list]:
        try:
            while True:
                item = self._queue.get()
                if item is _DONE:
                    return
                if item is _ERROR:
                    raise self._error
                yield item
        finally:
            self.close()

    def drain_error(self) -> BaseException | None:
        """Run the feed to completion and return its error, if any.

        The ssl-error-wins hook: when the concurrent x509 read failed,
        the caller drains the ssl feed to learn whether the serial path
        (which reads ssl first) would have raised an ssl error instead.
        """
        try:
            for _ in self:
                pass
        except BaseException as exc:  # noqa: BLE001 - returned, not handled
            return exc
        return None

    def close(self) -> None:
        """Abort the feeder and release anything it has queued."""
        self._abort.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=1.0)
