"""Worker-sharded batch routing over a shared-memory compiled plane.

The packed wave walker (:func:`~repro.dataplane.fastpath
._route_batch_packed`) is a pure function of the dense
:class:`~repro.dataplane.fastpath._FlatPlane` arrays and the per-request
arrays (entry switches, positions, digest serials) — no live router, no
request ids.  That makes it shardable across processes with zero
per-request serialization cost on the plane side:

* :class:`PlaneSnapshot` packs every plane array into **one**
  ``multiprocessing.shared_memory`` block and describes the layout with
  a small spec (name, dtype, shape, byte offset per field);
* each :class:`ShardPool` worker attaches the block and rebuilds a
  ``_FlatPlane`` whose arrays are zero-copy views into it;
* a batch is split into contiguous shards, each worker walks its shard
  and ships back a picklable ``_PackedRoutes`` (plain numpy arrays and
  coded errors — the parent materializes traces and error strings);
* the parent merges the shard results back into one ``_PackedRoutes``
  whose contents are identical to a single-process walk of the whole
  batch (every request's walk is independent; only the wave *count* is
  per-shard, which is telemetry, not an outcome).

Snapshots are keyed by the fast-path state's ``(epoch, version)`` token:
any control-plane change re-exports the plane before the next sharded
batch, so workers can never route on stale state.

Worker processes are daemonic, start via ``fork`` where available
(``spawn`` elsewhere — the worker loop imports everything it needs), and
are reaped by ``close()`` or a ``weakref.finalize`` at pool
garbage-collection.
"""

from __future__ import annotations

import multiprocessing as mp
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fastpath import _FlatPlane, _PackedRoutes, _route_batch_packed

#: Plane fields exported into the shared block.  ``sid`` is an alias of
#: ``sid_sorted`` and rebuilt on attach; ``chain_errors`` is a small
#: list of strings shipped in the spec itself.
_SHARED_FIELDS = ("sid_sorted", "in_dt", "ns", "cx", "cy", "kind", "nid",
                  "nrow", "chain_off", "chain_len", "chain_err",
                  "chain_sids")

_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class PlaneSnapshot:
    """A compiled plane frozen into one shared-memory block.

    ``spec`` is everything a worker needs to attach: the block name,
    one ``(name, dtype, shape, offset)`` tuple per plane array, and the
    chain error strings.  The parent keeps the block alive until
    :meth:`dispose`; workers holding views keep their mapping valid
    even after the parent unlinks (POSIX shm semantics), so snapshot
    rotation never races a worker mid-batch.
    """

    def __init__(self, flat: _FlatPlane) -> None:
        if not flat.chains_built:
            raise ValueError("plane must have chains attached "
                             "before export")
        layout: List[Tuple[str, str, tuple, int]] = []
        total = 0
        arrays = {}
        for name in _SHARED_FIELDS:
            arr = np.ascontiguousarray(getattr(flat, name))
            offset = _aligned(total)
            layout.append((name, arr.dtype.str, arr.shape, offset))
            arrays[name] = (arr, offset)
            total = offset + arr.nbytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1))
        for name, (arr, offset) in arrays.items():
            view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=self._shm.buf, offset=offset)
            view[...] = arr
        self.spec = {
            "shm": self._shm.name,
            "layout": layout,
            "chain_errors": list(flat.chain_errors),
        }
        self._disposed = False

    def dispose(self) -> None:
        """Close and unlink the block (idempotent)."""
        if self._disposed:
            return
        self._disposed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _attach_plane(spec: dict) -> Tuple[_FlatPlane, shared_memory.SharedMemory]:
    """Rebuild a ``_FlatPlane`` from a snapshot spec with every array a
    zero-copy view into the shared block.  Returns the plane and the
    shm handle (the caller must keep the handle alive and close it)."""
    # The parent owns the segment's lifetime; attaching would register
    # it with the resource tracker *again* (shared with the parent
    # under ``fork``), so the tracker would either warn about a "leak"
    # at worker exit or choke on the double unregister.  Suppress the
    # attach-side registration entirely.  (Python 3.13+ has
    # ``track=False`` instead.)
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=spec["shm"])
    finally:
        resource_tracker.register = original_register
    plane = _FlatPlane.__new__(_FlatPlane)
    for name, dtype, shape, offset in spec["layout"]:
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=shm.buf, offset=offset)
        setattr(plane, name, view)
    plane.sid = plane.sid_sorted
    plane.chain_errors = list(spec["chain_errors"])
    plane.chains_built = True
    plane.scalar_rows = None
    plane.summarize_chains()
    return plane, shm


def _worker_main(conn) -> None:
    """Worker loop: attach planes, walk shards, ship packed results.

    Messages (pipe is ordered, so a ``plane`` always precedes the
    ``route`` batches that depend on it):

    * ``("plane", spec)`` — attach a new snapshot, dropping the old;
    * ``("route", entries, pxs, pys, serials, max_hops)`` — walk the
      shard, reply ``("ok", packed)`` or ``("raise", exc)``;
    * ``("stop",)`` — exit.
    """
    plane: Optional[_FlatPlane] = None
    shm: Optional[shared_memory.SharedMemory] = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            tag = msg[0]
            if tag == "plane":
                if shm is not None:
                    shm.close()
                plane, shm = _attach_plane(msg[1])
            elif tag == "route":
                _, entries, pxs, pys, serials, max_hops = msg
                try:
                    packed = _route_batch_packed(
                        plane, entries, pxs, pys, serials, max_hops)
                    conn.send(("ok", packed))
                except BaseException as exc:  # noqa: BLE001 - relayed
                    conn.send(("raise", exc))
            elif tag == "stop":
                break
    finally:
        if shm is not None:
            shm.close()
        conn.close()


def _shutdown(conns, procs, snapshot) -> None:
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():  # pragma: no cover - wedged worker
            proc.terminate()
            proc.join(timeout=2)
    if snapshot is not None:
        snapshot.dispose()


class ShardPool:
    """A pool of routing workers sharing one read-only compiled plane.

    The pool is sticky per worker count on the network facade; its
    lifecycle is decoupled from any single plane — :meth:`sync`
    re-exports the snapshot whenever the fast-path ``(epoch, version)``
    token moves, and :meth:`route_batch_packed` splits each batch into
    contiguous shards, one per worker.
    """

    def __init__(self, workers: int,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = mp.get_context(start_method)
        self.workers = workers
        self.start_method = start_method
        self._conns = []
        self._procs = []
        for i in range(workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child,),
                               daemon=True, name=f"gred-shard-{i}")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._snapshot: Optional[PlaneSnapshot] = None
        self._synced_token = None
        # Box the snapshot so the finalizer sees rotations without
        # holding a reference to ``self``.
        self._snapbox: Dict[str, Optional[PlaneSnapshot]] = {
            "snap": None}
        self._finalizer = weakref.finalize(
            self, _shutdown_box, list(self._conns), list(self._procs),
            self._snapbox)

    # ------------------------------------------------------------------
    def sync(self, router, token) -> None:
        """Ship the router's current plane to every worker unless the
        ``token`` (the fast-path ``(epoch, version)``) is already
        synced."""
        if token == self._synced_token:
            return
        flat = router._ensure_flat()
        snapshot = PlaneSnapshot(flat)
        for conn in self._conns:
            conn.send(("plane", snapshot.spec))
        old = self._snapshot
        self._snapshot = snapshot
        self._snapbox["snap"] = snapshot
        if old is not None:
            # Workers that still map the old block keep it valid until
            # they attach the new one (the plane message is already in
            # their pipe, ahead of any future batch).
            old.dispose()
        self._synced_token = token

    def route_batch_packed(self, entries_arr: np.ndarray,
                           pxs: np.ndarray, pys: np.ndarray,
                           serial_u64s: np.ndarray,
                           max_hops: int) -> _PackedRoutes:
        """Walk a batch across the pool and merge the shard results
        into one :class:`_PackedRoutes` identical in content to a
        single-process walk (``worker_waves`` additionally records the
        per-shard wave counts for telemetry)."""
        if self._synced_token is None:
            raise RuntimeError("ShardPool.sync() must run before "
                               "route_batch_packed()")
        k = int(entries_arr.size)
        bounds = np.linspace(0, k, self.workers + 1).astype(np.int64)
        shards = [(int(bounds[w]), int(bounds[w + 1]))
                  for w in range(self.workers)]
        for conn, (lo, hi) in zip(self._conns, shards):
            if hi > lo:
                conn.send(("route", entries_arr[lo:hi], pxs[lo:hi],
                           pys[lo:hi], serial_u64s[lo:hi], max_hops))
        replies: List[Optional[tuple]] = []
        for conn, (lo, hi) in zip(self._conns, shards):
            replies.append(conn.recv() if hi > lo else None)
        for reply in replies:
            if reply is not None and reply[0] == "raise":
                raise reply[1]
        merged = _PackedRoutes(k)
        merged.worker_waves = []
        trace_parts: List[np.ndarray] = []
        for reply, (lo, hi) in zip(replies, shards):
            if reply is None:
                merged.worker_waves.append(0)
                continue
            packed: _PackedRoutes = reply[1]
            sl = slice(lo, hi)
            merged.dest[sl] = packed.dest
            merged.serial[sl] = packed.serial
            merged.greedy[sl] = packed.greedy
            merged.vl[sl] = packed.vl
            merged.relays[sl] = packed.relays
            merged.known[sl] = packed.known
            merged.tlen[sl] = packed.tlen
            merged.errors.extend(
                (j + lo, code, args)
                for j, code, args in packed.errors)
            merged.hop_failures.extend(
                j + lo for j in packed.hop_failures)
            trace_parts.append(packed.trace_flat)
            merged.waves += packed.waves
            merged.worker_waves.append(packed.waves)
        merged.overlay = merged.greedy + merged.vl
        off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(merged.tlen, out=off[1:])
        merged.off = off
        merged.trace_flat = (np.concatenate(trace_parts)
                             if trace_parts
                             else np.empty(0, dtype=np.int64))
        return merged

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release the shared block
        (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()
        self._snapshot = None
        self._synced_token = None


def _shutdown_box(conns, procs, snapbox) -> None:
    _shutdown(conns, procs, snapbox.get("snap"))
