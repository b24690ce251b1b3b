"""A compiled greedy router for the batch request fast path.

``route_packet`` is faithful to the paper's per-switch pipeline — one
``Packet`` object, one ``process`` call and one candidate sort per hop —
which is the right shape for tracing and fault injection but dominates
the request latency of large workloads.  ``CompiledRouter`` flattens the
per-switch state (positions, greedy candidate lists, relay chains) into
plain tuples once per control-plane epoch and replays the *identical*
decision procedure with no per-packet object construction:

* greedy stage: minimal ``((d^2, x, y), kind, nid)`` candidate strictly
  closer than the current switch, physical (kind 0) before DT-only
  (kind 1), exactly Algorithm 2's comparison.  The switch's own
  position sits in its sorted candidate row as a deliver sentinel
  (kind 2), so one first-occurrence argmin decides forward versus
  deliver;
* virtual links: the relay chain toward a DT-only neighbor is resolved
  from the switches' installed ``VirtualLinkEntry`` tuples on first use
  and cached for the epoch;
* delivery: ``H(d) mod s`` server selection from the precomputed 64-bit
  digest prefix; extension entries are looked up live (range
  extensions come and go without an epoch bump).

:meth:`CompiledRouter.route_batch` advances a whole batch in
switch-grouped *waves* — every in-flight request shares one vectorized
candidate evaluation per wave — and hands the last few stragglers to a
scalar walker over the same plane once a wave no longer pays for
itself.

The router must be rebuilt when the control plane recomputes — callers
key it on :attr:`Controller.epoch`.  It assumes fault-free forwarding
(the facade falls back to ``route_packet`` when a fault state is
attached) and raises the same :class:`ForwardingError` messages as the
reference engine on inconsistent state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .switch import ForwardingError, GredSwitch


def _gate_fault_state(net) -> bool:
    return getattr(net, "fault_state", None) is not None


def _gate_position_fn(net) -> bool:
    from ..hashing import data_position

    return getattr(net, "_position_fn", None) is not data_position


def _gate_resilience(net) -> bool:
    pipeline = getattr(net, "_resilience", None)
    return pipeline is not None and pipeline.blocks_fastpath()


#: The single source of truth for fast-path eligibility: ``(predicate,
#: reason)`` gates evaluated against the facade.  A request batch may
#: take the vectorized path iff no predicate fires.  Both the facade's
#: ``_fastpath_usable`` and :func:`batch_fastpath_blockers` consume
#: this list, so the two can never drift apart again (they did once:
#: telemetry stopped blocking the fast path in PR 6 and only one copy
#: was updated at first).
FASTPATH_GATES: Tuple[Tuple[Callable[[object], bool], str], ...] = (
    (_gate_fault_state, "fault state attached"),
    (_gate_position_fn, "custom position_fn"),
    (_gate_resilience, "resilience breakers tripped"),
)


def batch_fastpath_blockers(net) -> List[str]:
    """Why ``place_many``/``retrieve_many`` would currently fall back
    to the scalar reference pipeline for ``net`` (empty = fast path
    eligible).

    Evaluates :data:`FASTPATH_GATES` — the same gates the facade's
    ``_fastpath_usable`` consults — so operators can see *which*
    condition is costing them the vectorized path (``gred stats
    --json`` surfaces this list).
    """
    return [reason for gate, reason in FASTPATH_GATES if gate(net)]


def fastpath_usable(net) -> bool:
    """``True`` iff no :data:`FASTPATH_GATES` predicate fires for
    ``net`` — the boolean twin of :func:`batch_fastpath_blockers`."""
    return not any(gate(net) for gate, _ in FASTPATH_GATES)


def federated_blockers(fed) -> Dict[int, List[str]]:
    """Per-region fast-path blockers of a federation.

    The federation has no global compiled plane — each region shard
    carries its own ``_FastPathState`` — so batch eligibility is a
    per-shard question: a fault injected into one region stands that
    shard down to the scalar reference path while every other region
    keeps its vectorized plane.  Returns ``region id -> blocker
    reasons`` (all empty = every shard batch-eligible), the federated
    twin of :func:`batch_fastpath_blockers`.
    """
    return {
        rid: batch_fastpath_blockers(shard.net)
        for rid, shard in sorted(fed.shards.items())
    }


#: ``route_batch`` hands stragglers to the scalar walker once fewer
#: than this many requests are in flight.  Measured on the 500-switch
#: uniform-bulk plane (2-vCPU x86-64 VM, ~12.5 cells per row): a wave
#: costs ~20 us at width 1 and ~50-65 us at width 64, a straggler
#: ~11-20 us for its whole remaining walk, and 64- and 100-request
#: batches walk equally fast (within 5%) for any handoff from 8 to 24
#: in flight — 16 is the middle of that flat crossover.
_WAVE_MIN_ACTIVE = 16

RouteOutcome = Union[Tuple[List[int], int, int, int], ForwardingError]


class _FlatPlane:
    """Dense, padded form of the whole switch plane for wave routing.

    Row ``r`` is the switch with the ``r``-th smallest id and holds its
    sorted candidate cells, deliver sentinel included; every row is
    right-padded to the widest switch so one gather yields the
    candidate block of all in-flight requests at once.  Pad cells carry
    ``+inf`` positions (their squared distance can never win the argmin
    against a finite target) and kind 2 / nid -1 sentinels.
    """

    __slots__ = ("sid_sorted", "sid", "ox", "oy", "in_dt", "ns",
                 "cx", "cy", "kind", "nid", "nrow",
                 "chain_off", "chain_len", "chain_err",
                 "chain_sids", "chain_errors", "chains_built",
                 "chain_span", "sound", "scalar_rows")

    def __init__(self, states: Dict[int, _CompiledSwitch]) -> None:
        sids = sorted(states)
        rows = {sid: r for r, sid in enumerate(sids)}
        n = len(sids)
        width = max((len(states[sid].cands) for sid in sids), default=1)
        self.sid_sorted = np.asarray(sids, dtype=np.int64)
        self.sid = self.sid_sorted
        self.ox = np.empty(n, dtype=np.float64)
        self.oy = np.empty(n, dtype=np.float64)
        self.in_dt = np.empty(n, dtype=bool)
        self.ns = np.empty(n, dtype=np.int64)
        self.cx = np.full((n, width), np.inf, dtype=np.float64)
        self.cy = np.full((n, width), np.inf, dtype=np.float64)
        self.kind = np.full((n, width), 2, dtype=np.int64)
        self.nid = np.full((n, width), -1, dtype=np.int64)
        self.nrow = np.full((n, width), -1, dtype=np.int64)
        self.scalar_rows = None
        for sid in sids:
            self.fill_row(rows[sid], states[sid], rows)
        self.invalidate_chains()
        self._assert_invariants()

    def fill_row(self, r: int, state: _CompiledSwitch,
                 rows: Dict[int, int]) -> None:
        """(Re)write row ``r`` from a compiled switch, keeping the
        scalar walker's cached copy of the row current."""
        self.ox[r] = state.x
        self.oy[r] = state.y
        self.in_dt[r] = state.in_dt
        self.ns[r] = max(state.num_servers, 0)
        self.cx[r, :] = np.inf
        self.cy[r, :] = np.inf
        self.kind[r, :] = 2
        self.nid[r, :] = -1
        self.nrow[r, :] = -1
        for c, (x, y, kind, nid) in enumerate(state.cands):
            self.cx[r, c] = x
            self.cy[r, c] = y
            self.kind[r, c] = kind
            self.nid[r, c] = nid
            self.nrow[r, c] = rows.get(nid, -1)
        if self.scalar_rows is not None:
            self.scalar_rows[r] = self._scalar_row(r)

    def _scalar_row(self, r: int) -> tuple:
        """``(sid, in_dt, cells)`` of row ``r`` as Python values;
        ``cells`` are the row's non-pad ``(x, y, kind, nid, nrow,
        col)`` tuples in sorted order."""
        cells = tuple(
            cell for cell in zip(
                self.cx[r].tolist(), self.cy[r].tolist(),
                self.kind[r].tolist(), self.nid[r].tolist(),
                self.nrow[r].tolist(), range(self.cx.shape[1]))
            if cell[0] != np.inf)
        return int(self.sid[r]), bool(self.in_dt[r]), cells

    def rows_py(self) -> List[tuple]:
        """Every row as :meth:`_scalar_row` tuples, built once per
        plane so the straggler walk never touches numpy per hop."""
        if self.scalar_rows is None:
            self.scalar_rows = [self._scalar_row(r)
                                for r in range(self.sid.size)]
        return self.scalar_rows

    def _assert_invariants(self) -> None:
        """Dtype invariant of the compile step: every id/count plane
        is ``int64`` and every coordinate plane ``float64``.  Mixing a
        ``uint64`` array into int64 arithmetic silently promotes the
        result to ``float64``, which corrupts exact comparisons above
        2**53 — ``ns`` shipped as uint64 once, so the invariant is now
        enforced at build time."""
        for name in ("sid_sorted", "sid", "ns", "kind", "nid", "nrow"):
            dtype = getattr(self, name).dtype
            if dtype != np.int64:
                raise AssertionError(
                    f"_FlatPlane.{name} must be int64, got {dtype}")
        for name in ("ox", "oy", "cx", "cy"):
            dtype = getattr(self, name).dtype
            if dtype != np.float64:
                raise AssertionError(
                    f"_FlatPlane.{name} must be float64, got {dtype}")

    def invalidate_chains(self) -> None:
        """Drop the CSR relay-chain arrays (after a scoped patch —
        chains are rebuilt from the router's pruned cache on next
        use)."""
        self.chain_off = None
        self.chain_len = None
        self.chain_err = None
        self.chain_sids = None
        self.chain_errors = None
        self.chains_built = False
        self.chain_span = None
        self.sound = False

    def attach_chains(self, resolver) -> None:
        """Resolve every forwarding cell's chain into CSR arrays
        (``chain_off``/``chain_len`` index a flat ``chain_sids`` run):
        a greedy cell's chain is its neighbor alone, a virtual-link
        cell's the relays through its DT neighbor.  A wave then
        appends any forward to a trace the same way.  Resolution
        failures are recorded per cell in ``chain_err`` (an index into
        ``chain_errors``) and surfaced only when a request actually
        crosses that cell — exactly the behavior of the lazy
        per-request resolution this replaces."""
        n, width = self.kind.shape
        off = np.full((n, width), -1, dtype=np.int64)
        length = np.zeros((n, width), dtype=np.int64)
        err = np.full((n, width), -1, dtype=np.int64)
        sids: List[int] = []
        messages: List[str] = []
        rows, cols = np.nonzero(self.kind < 2)
        for r, c in zip(rows.tolist(), cols.tolist()):
            dst = int(self.nid[r, c])
            if self.kind[r, c] == 0:
                chain = (dst,)
            else:
                try:
                    chain = resolver(int(self.sid[r]), dst)
                except ForwardingError as exc:
                    err[r, c] = len(messages)
                    messages.append(str(exc))
                    continue
            off[r, c] = len(sids)
            length[r, c] = len(chain)
            sids.extend(chain)
        self.chain_off = off
        self.chain_len = length
        self.chain_err = err
        self.chain_sids = np.asarray(sids, dtype=np.int64)
        self.chain_errors = messages
        self.chains_built = True
        self.summarize_chains()

    def summarize_chains(self) -> None:
        """Plane-wide facts that let a wave skip per-request checks:
        ``chain_span`` is ``arange`` of the longest chain, and
        ``sound`` says every forwarding cell names a known switch and
        every virtual-link cell resolved its chain."""
        self.chain_span = np.arange(int(self.chain_len.max(initial=0)))
        self.sound = not (((self.kind < 2) & (self.nrow < 0)).any()
                          or (self.chain_err >= 0).any())


class _CompiledSwitch:
    """Per-switch state flattened for the hot loop."""

    __slots__ = ("x", "y", "in_dt", "num_servers", "cands", "table")

    def __init__(self, switch: GredSwitch) -> None:
        self.x = switch.position[0]
        self.y = switch.position[1]
        self.in_dt = switch.in_dt
        self.num_servers = switch.num_servers
        self.table = switch.table
        # (x, y, kind, nid): physical candidates (kind 0), DT-only
        # candidates (kind 1) — mirroring the two scans of the greedy
        # stage; neighbors present in both sets are physical-only,
        # like the reference pipeline — and the switch's own position
        # as the deliver sentinel (kind 2, nid -1).  Sorted by (x, y,
        # kind, nid), a first-occurrence argmin over squared distances
        # selects the scalar lexicographic minimum of ((d^2, x, y),
        # kind, nid): a neighbor wins exactly when it strictly
        # improves on the switch's own key, and on a full (d^2, x, y)
        # tie the neighbor's lower kind beats the sentinel.
        cands: List[Tuple[float, float, int, int]] = [
            (self.x, self.y, 2, -1)]
        for nid, pos in switch.physical_neighbor_positions.items():
            cands.append((pos[0], pos[1], 0, nid))
        for nid, pos in switch.dt_neighbor_positions.items():
            if nid not in switch.physical_neighbor_positions:
                cands.append((pos[0], pos[1], 1, nid))
        cands.sort()
        self.cands = cands


def _error_text(code: str, args: tuple, data_id: str) -> str:
    """Materialize a deferred routing-error message.  The packed walk
    records ``(code, args)`` instead of strings so worker shards never
    need the request ids — the parent formats the byte-identical
    message the reference engine would have raised."""
    if code == "entry":
        return f"unknown entry switch {args[0]}"
    if code == "relay_only":
        return f"greedy stage reached relay-only switch {args[0]}"
    if code == "no_servers":
        return (f"switch {args[0]} must deliver {data_id!r} "
                f"but has no attached servers")
    if code == "unknown_fwd":
        return f"switch {args[0]} forwarded to unknown switch {args[1]}"
    return args[0]


class _PackedRoutes:
    """Array-of-struct result of one packed batch walk.

    Every per-request outcome lives in a parallel array: delivered
    requests carry ``dest >= 0`` plus the ``H(d) mod s`` serial and a
    ``trace_flat[off[j]:off[j+1]]`` switch trace; failed requests
    carry a coded entry in ``errors`` (or an index in
    ``hop_failures``) that :meth:`materialize` formats into the
    byte-identical :class:`ForwardingError` lazily.  The struct is
    picklable and id-free, so worker shards ship it back over a pipe
    without materializing any Python outcome objects.
    """

    __slots__ = ("k", "dest", "serial", "overlay", "greedy", "vl",
                 "relays", "known", "tlen", "trace", "off", "trace_flat",
                 "errors", "hop_failures", "waves", "worker_waves")

    def __init__(self, k: int) -> None:
        self.k = k
        self.dest = np.full(k, -1, dtype=np.int64)
        self.serial = np.zeros(k, dtype=np.int64)
        #: Overlay hops (greedy forwards + virtual-link starts), set
        #: by :meth:`finish`.
        self.overlay: Optional[np.ndarray] = None
        self.greedy = np.zeros(k, dtype=np.int64)
        self.vl = np.zeros(k, dtype=np.int64)
        self.relays = np.zeros(k, dtype=np.int64)
        self.known = np.ones(k, dtype=bool)
        # Trace lengths start at 1: the entry switch leads every trace,
        # so a request has walked ``tlen - 1`` physical hops.
        self.tlen = np.ones(k, dtype=np.int64)
        #: Row ``j`` holds request ``j``'s trace in its first
        #: ``tlen[j]`` cells while the walk runs; :meth:`finish`
        #: packs it into ``trace_flat``.
        self.trace: Optional[np.ndarray] = None
        self.off: Optional[np.ndarray] = None
        self.trace_flat: Optional[np.ndarray] = None
        #: ``(request_index, code, args)`` deferred errors.
        self.errors: List[Tuple[int, str, tuple]] = []
        #: Request indices that breached the hop bound (their message
        #: needs the assembled trace, hence a separate channel).
        self.hop_failures: List[int] = []
        self.waves = 0
        #: Per-shard wave counts when produced by a worker merge.
        self.worker_waves: Optional[List[int]] = None

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def begin(self, entries_arr: np.ndarray) -> None:
        """Start every trace at its entry switch."""
        self.trace = np.empty((self.k, 16), dtype=np.int64)
        self.trace[:, 0] = entries_arr

    def reserve(self, cols: int) -> None:
        """Grow the trace buffer to at least ``cols`` columns."""
        have = self.trace.shape[1]
        if cols > have:
            grown = np.empty((self.k, max(cols, 2 * have)),
                             dtype=np.int64)
            grown[:, :have] = self.trace
            self.trace = grown

    def put_chains(self, idx: np.ndarray, coff: np.ndarray,
                   lens: np.ndarray, flat: _FlatPlane) -> None:
        """Append chain ``chain_sids[coff[i]:coff[i] + lens[i]]`` to
        request ``idx[i]``'s trace, for every ``i`` at once.  Each row
        receives the plane's longest chain span; cells past its own
        chain lie beyond ``tlen``, so later steps overwrite them or
        :meth:`finish` drops them."""
        span = flat.chain_span
        start = self.tlen[idx]
        self.trace[idx[:, None], start[:, None] + span] = \
            flat.chain_sids.take(coff[:, None] + span, mode="clip")
        self.tlen[idx] = start + lens

    def finish(self) -> None:
        """Pack the trace rows into ``trace_flat`` with cumsum offsets
        and derive the overlay hop counts."""
        k = self.k
        self.overlay = self.greedy + self.vl
        off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(self.tlen, out=off[1:])
        trace = self.trace
        self.trace = None
        self.off = off
        self.trace_flat = trace[
            np.arange(trace.shape[1]) < self.tlen[:, None]]

    def stats_list(self) -> List[Optional[Tuple[int, int, int]]]:
        """Per-request ``(greedy, vl_starts, vl_relays)`` decision mix
        with the reference engine's event timing; ``None`` for
        unknown-entry requests (the reference engine raises before
        counting anything, so they carry no mix at all)."""
        stats: List[Optional[Tuple[int, int, int]]] = list(zip(
            self.greedy.tolist(), self.vl.tolist(),
            self.relays.tolist()))
        if not self.known.all():
            for j in np.flatnonzero(~self.known).tolist():
                stats[j] = None
        return stats

    def materialize(self, data_ids: Sequence[str],
                    max_hops: int) -> List[RouteOutcome]:
        """Format the packed arrays into one outcome per request:
        ``(trace, overlay_hops, destination, serial)`` tuples or the
        exact :class:`ForwardingError` the reference engine would have
        raised."""
        results: List[Optional[RouteOutcome]] = [None] * self.k
        flat_list = self.trace_flat.tolist()
        off = self.off.tolist()
        for j, code, args in self.errors:
            results[j] = ForwardingError(
                _error_text(code, args, data_ids[j]))
        for j in self.hop_failures:
            trace = flat_list[off[j]:off[j + 1]]
            results[j] = ForwardingError(
                f"hop bound {max_hops} exceeded routing "
                f"{data_ids[j]!r} (trace {trace})")
        dest = self.dest.tolist()
        serial = self.serial.tolist()
        overlay = self.overlay.tolist()
        for j, d in enumerate(dest):
            if d >= 0:
                results[j] = (flat_list[off[j]:off[j + 1]],
                              overlay[j], d, serial[j])
        return results


def _continue_plane_scalar(flat: _FlatPlane, packed: _PackedRoutes,
                           j: int, row: int, px: float, py: float,
                           max_hops: int) -> Optional[int]:
    """Walk one straggler to completion directly on the dense plane.

    Continues from the request's current row, reusing the wave prefix
    already accumulated in ``packed`` (trace, decision mix), over the
    plane's cached Python rows.  Each row is sorted with its deliver
    sentinel, so the first strictly smallest squared distance is the
    wave argmin's winner — the same float arithmetic and tie-breaks —
    and prefix + continuation is byte-identical to an all-wave walk.
    Returns the delivery row, or ``None`` when the walk failed."""
    rows = flat.rows_py()
    seg: List[int] = []
    hop = int(packed.tlen[j]) - 1
    greedy = vl = relays = 0
    try:
        while True:
            sid, in_dt, cells = rows[row]
            if not in_dt:
                packed.errors.append((j, "relay_only", (sid,)))
                return None
            bd2 = np.inf
            for cell in cells:
                dx = cell[0] - px
                dy = cell[1] - py
                d2 = dx * dx + dy * dy
                if d2 < bd2:
                    bd2 = d2
                    best = cell
            _, _, kind, nid, nrow, col = best
            if kind == 2:
                return row
            if kind == 0:
                greedy += 1
                if nrow < 0:
                    packed.errors.append((j, "unknown_fwd", (sid, nid)))
                    return None
                seg.append(nid)
                hop += 1
                row = nrow
                if hop > max_hops:
                    packed.hop_failures.append(j)
                    return None
            else:
                vl += 1
                cerr = int(flat.chain_err[row, col])
                if cerr >= 0:
                    packed.errors.append(
                        (j, "msg", (flat.chain_errors[cerr],)))
                    return None
                if nrow < 0:
                    # A virtual link into a switch the plane lacks:
                    # plane and tables disagree, so the whole batch
                    # fails with a KeyError naming that switch.
                    raise KeyError(nid)
                coff = int(flat.chain_off[row, col])
                clen = int(flat.chain_len[row, col])
                chain = flat.chain_sids[coff:coff + clen].tolist()
                for ci, relay in enumerate(chain):
                    if ci:
                        relays += 1
                    seg.append(relay)
                    hop += 1
                    if hop > max_hops:
                        packed.hop_failures.append(j)
                        return None
                row = nrow
    finally:
        packed.greedy[j] += greedy
        packed.vl[j] += vl
        packed.relays[j] += relays
        if seg:
            start = int(packed.tlen[j])
            end = start + len(seg)
            packed.reserve(end)
            packed.trace[j, start:end] = seg
            packed.tlen[j] = end


def _route_batch_packed(flat: _FlatPlane, entries_arr: np.ndarray,
                        pxs: np.ndarray, pys: np.ndarray,
                        serial_u64s: np.ndarray, max_hops: int,
                        min_active: int = _WAVE_MIN_ACTIVE
                        ) -> _PackedRoutes:
    """Advance a whole batch over the dense plane in waves, keeping
    every per-request output in numpy arrays.

    This is the pure-array core shared by the in-process fast path and
    the shared-memory worker shards: it needs only the plane and the
    request arrays (entries, positions, 64-bit digest serials) — no
    request ids, no live router — and returns a :class:`_PackedRoutes`.
    Once fewer than ``min_active`` requests are in flight, the rest
    continue scalar *on the plane* from their current switch.
    """
    k = int(entries_arr.size)
    packed = _PackedRoutes(k)
    g_arr = packed.greedy
    v_arr = packed.vl
    r_arr = packed.relays
    tlen = packed.tlen
    errors = packed.errors
    hop_failures = packed.hop_failures
    packed.begin(entries_arr)
    # Flat cell index ``row * width + col`` addresses every per-cell
    # plane array with one 1-D take.
    width = flat.kind.shape[1]
    kind_f = flat.kind.ravel()
    nrow_f = flat.nrow.ravel()
    nid_f = flat.nid.ravel()
    off_f = flat.chain_off.ravel()
    len_f = flat.chain_len.ravel()
    err_f = flat.chain_err.ravel()
    if flat.sid_sorted.size:
        lookup = np.minimum(
            np.searchsorted(flat.sid_sorted, entries_arr),
            flat.sid_sorted.size - 1)
        known = flat.sid_sorted[lookup] == entries_arr
    else:
        lookup = np.zeros(k, dtype=np.int64)
        known = np.zeros(k, dtype=bool)
    current = lookup.astype(np.int64, copy=True)
    # Row each request's walk ended at by delivering (-1: not yet).
    landed = np.full(k, -1, dtype=np.int64)
    packed.known = known
    if known.all():
        active = np.arange(k, dtype=np.int64)
    else:
        active = np.flatnonzero(known)
        for j, entry in zip(np.flatnonzero(~known).tolist(),
                            entries_arr[~known].tolist()):
            errors.append((j, "entry", (entry,)))
    while active.size:
        packed.waves += 1
        if active.size < min_active:
            # Stragglers: a wave's fixed numpy dispatch cost no longer
            # amortizes — continue them scalar on the plane from where
            # they stand (same outcome, no re-walk).
            for j, row, px, py in zip(
                    active.tolist(), current[active].tolist(),
                    pxs[active].tolist(), pys[active].tolist()):
                row = _continue_plane_scalar(flat, packed, j, row,
                                             px, py, max_hops)
                if row is not None:
                    landed[j] = row
            break
        # Bound on every trace length after this wave (a forward adds
        # at most the longest chain).  Within the hop bound on a sound
        # plane, no forward this wave can fail.
        ceiling = int(tlen.max()) + flat.chain_span.size
        packed.reserve(ceiling)
        safe = flat.sound and ceiling <= max_hops + 1
        rows = current[active]
        in_dt = flat.in_dt[rows]
        if not in_dt.all():
            stuck = active[~in_dt]
            for j, sid in zip(stuck.tolist(),
                              flat.sid[rows[~in_dt]].tolist()):
                errors.append((j, "relay_only", (sid,)))
            active = active[in_dt]
            if not active.size:
                break
            rows = rows[in_dt]
        # Squared distances, computed in place with the reference
        # engine's exact float operations: dx*dx + dy*dy.
        d2 = flat.cx.take(rows, axis=0)
        d2 -= pxs[active][:, None]
        d2 *= d2
        dy = flat.cy.take(rows, axis=0)
        dy -= pys[active][:, None]
        dy *= dy
        d2 += dy
        cell = rows * width
        cell += d2.argmin(axis=1)
        kinds = kind_f.take(cell)
        deliver = kinds == 2
        if deliver.any():
            landed[active[deliver]] = rows[deliver]
            moving = ~deliver
            if not moving.any():
                break
            active = active[moving]
            cell = cell[moving]
            kinds = kinds[moving]
        nrows = nrow_f.take(cell)
        phys = kinds == 0
        # The engine counts a greedy forward or a virtual-link start
        # at decision time, before any failure check.
        g_arr[active] += phys
        v_arr[active] += ~phys
        coff = off_f.take(cell)
        clen = len_f.take(cell)
        if not safe:
            # An unknown neighbor, an unresolved chain or the hop
            # bound may fail some forwards: settle those per request.
            cerr = err_f.take(cell)
            chained = cerr < 0
            unknown_dest = ~phys & chained & (nrows < 0)
            if unknown_dest.any():
                # A virtual link into a switch the plane lacks: plane
                # and tables disagree, so the whole batch fails with a
                # KeyError naming that switch (first such request).
                first = int(np.flatnonzero(unknown_dest)[0])
                raise KeyError(int(nid_f[cell[first]]))
            lost = phys & (nrows < 0)
            for j, c in zip(active[lost].tolist(), cell[lost].tolist()):
                errors.append((j, "unknown_fwd",
                               (int(flat.sid[c // width]), int(nid_f[c]))))
            for j, ei in zip(active[~chained].tolist(),
                             cerr[~chained].tolist()):
                errors.append((j, "msg", (flat.chain_errors[ei],)))
            hops = tlen[active] - 1
            go = chained & ~lost
            over = go & (hops + clen > max_hops)
            if over.any():
                # The reference engine appends switches one by one and
                # raises at the breaching step — keep exactly the
                # switches up to and including the breach.
                oj = active[over]
                part = max_hops - hops[over] + 1
                packed.put_chains(oj, coff[over], part, flat)
                r_arr[oj] += part - 1
                hop_failures.extend(oj.tolist())
                go &= ~over
            active = active[go]
            nrows = nrows[go]
            coff = coff[go]
            clen = clen[go]
        # Every forward appends its chain; a greedy hop is a
        # one-switch chain.
        packed.put_chains(active, coff, clen, flat)
        r_arr[active] += clen - 1
        current[active] = nrows
    done = np.flatnonzero(landed >= 0)
    drow = landed[done]
    ns = flat.ns[drow]
    empty = ns == 0
    if empty.any():
        for j, sid in zip(done[empty].tolist(),
                          flat.sid[drow[empty]].tolist()):
            errors.append((j, "no_servers", (sid,)))
        done = done[~empty]
        drow = drow[~empty]
        ns = ns[~empty]
    packed.dest[done] = flat.sid[drow]
    # ns is int64 (dtype invariant) but the modulo must stay exact
    # uint64 arithmetic: int64 % uint64 would promote to float64 and
    # corrupt serials above 2**53.
    packed.serial[done] = (serial_u64s[done] % ns.astype(np.uint64)
                           ).astype(np.int64)
    packed.finish()
    return packed


class CompiledRouter:
    """Epoch-scoped compiled form of a switch plane.

    Parameters
    ----------
    switches:
        The live data-plane switches (the compiled state snapshots
        their positions/candidates; forwarding *tables* are referenced,
        not copied, so extension rewrites are always current).
    """

    def __init__(self, switches: Dict[int, GredSwitch]) -> None:
        self._states: Dict[int, _CompiledSwitch] = {
            sid: _CompiledSwitch(sw) for sid, sw in switches.items()
        }
        self._default_max_hops = 4 * len(switches) + 16
        # (switch, dest) -> relay chain (first relay ... dest).
        self._chains: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # Dense plane for route_batch, built on first use.
        self._flat: Optional[_FlatPlane] = None
        #: Per-switch compilations so far (observability: a scoped
        #: patch after a join should grow this by a neighborhood, not
        #: by the network).
        self.switch_compiles = len(switches)
        #: Scoped :meth:`patch` applications.
        self.patch_events = 0
        #: Waves dispatched by the most recent :meth:`route_batch`
        #: (telemetry: proof the vectorized path ran, and the divisor
        #: for per-wave cost estimates).
        self.last_batch_waves = 0
        #: Per-request ``(greedy, vl_starts, vl_relays)`` of the most
        #: recent :meth:`route_batch`, aligned with its results — the
        #: decision mix the forwarding engine counts one event at a
        #: time, recovered so batch telemetry reports identical
        #: counters (partial counts up to a failure, like the engine).
        self.last_batch_stats: List[Optional[Tuple[int, int, int]]] = []

    def patch(self, switches: Dict[int, GredSwitch],
              touched, removed=()) -> None:
        """Recompile only the ``touched`` switches' state in place.

        ``removed`` switches are dropped.  Everything derived from the
        affected switches is invalidated selectively: relay chains
        whose source, destination or relays intersect them, the dense
        wave plane's rows (or the whole plane when membership changed
        — its row numbering is positional), and the default hop bound.
        Untouched switches keep their compiled rows, which is what
        makes a join's fast-path cost neighborhood-sized.
        """
        states = self._states
        membership_changed = False
        for sid in removed:
            if states.pop(sid, None) is not None:
                membership_changed = True
        for sid in sorted(touched):
            switch = switches.get(sid)
            if switch is None:
                if states.pop(sid, None) is not None:
                    membership_changed = True
                continue
            if sid not in states:
                membership_changed = True
            states[sid] = _CompiledSwitch(switch)
            self.switch_compiles += 1
        self._default_max_hops = 4 * len(states) + 16
        affected = set(touched) | set(removed)
        if self._chains:
            self._chains = {
                key: chain for key, chain in self._chains.items()
                if key[0] not in affected and key[1] not in affected
                and not affected.intersection(chain)
            }
        if membership_changed:
            self._flat = None
        elif self._flat is not None:
            self._flat = self._patched_flat(touched)
            if self._flat is not None:
                # Patched rows may carry different virtual-link
                # candidates and the chain cache was pruned above;
                # rebuild the CSR arrays on next use.
                self._flat.invalidate_chains()
        self.patch_events += 1

    def _patched_flat(self, touched) -> Optional[_FlatPlane]:
        """Update the dense plane's rows for ``touched`` in place
        (deliver sentinel and cached scalar rows included), or return
        ``None`` (rebuild on next use) when a new candidate row no
        longer fits the padded width."""
        flat = self._flat
        width = flat.cx.shape[1]
        rows = {sid: r for r, sid in
                enumerate(flat.sid_sorted.tolist())}
        for sid in touched:
            if len(self._states[sid].cands) > width:
                return None
        for sid in touched:
            flat.fill_row(rows[sid], self._states[sid], rows)
        return flat

    # ------------------------------------------------------------------
    def _chain(self, source: int, dest: int) -> Tuple[int, ...]:
        """Relay switches from ``source``'s successor through ``dest``
        for the virtual link toward DT neighbor ``dest``."""
        cached = self._chains.get((source, dest))
        if cached is not None:
            return cached
        entry = self._states[source].table.virtual_entry(dest)
        if entry is None or entry.succ is None:
            raise ForwardingError(
                f"switch {source} has no virtual-link entry "
                f"toward DT neighbor {dest}"
            )
        chain = [entry.succ]
        current = entry.succ
        bound = self._default_max_hops
        while current != dest:
            if current not in self._states:
                raise ForwardingError(
                    f"switch {chain[-2] if len(chain) > 1 else source} "
                    f"forwarded to unknown switch {current}"
                )
            relay = self._states[current].table.virtual_entry(dest)
            if relay is None or relay.succ is None:
                raise ForwardingError(
                    f"switch {current} has no relay entry toward "
                    f"virtual-link destination {dest}"
                )
            current = relay.succ
            chain.append(current)
            if len(chain) > bound:
                raise ForwardingError(
                    f"virtual link {source}->{dest} does not "
                    f"terminate within {bound} relays"
                )
        result = tuple(chain)
        self._chains[(source, dest)] = result
        return result

    # ------------------------------------------------------------------
    def route_batch(self, entries: Sequence[int],
                    data_ids: Sequence[str],
                    pxs: np.ndarray, pys: np.ndarray,
                    serial_u64s: np.ndarray,
                    max_hops: Optional[int] = None
                    ) -> List[RouteOutcome]:
        """Route many requests in switch-grouped waves.

        Each wave evaluates every in-flight request's current
        candidate row with one vectorized argmin whose float
        arithmetic and lexicographic tie-breaks match the reference
        engine exactly, so every outcome is byte-identical to
        ``route_packet``.  The walk itself is the pure-array
        :func:`_route_batch_packed` program and this wrapper
        materializes its packed result.

        Returns one outcome per request, in order: a ``(trace,
        overlay_hops, destination_switch, primary_serial)`` tuple or
        the :class:`ForwardingError` the reference engine would have
        raised (the caller decides whether to raise).
        """
        if max_hops is None:
            max_hops = self._default_max_hops
        packed = self.route_batch_packed(
            np.asarray(entries, dtype=np.int64),
            pxs, pys, serial_u64s, max_hops)
        self.last_batch_waves = packed.waves
        self.last_batch_stats = packed.stats_list()
        return packed.materialize(data_ids, max_hops)

    def route_batch_packed(self, entries_arr: np.ndarray,
                           pxs: np.ndarray, pys: np.ndarray,
                           serial_u64s: np.ndarray,
                           max_hops: int) -> _PackedRoutes:
        """Array-form batch walk over the dense plane — the unit the
        shared-memory worker shards execute.  Returns the raw
        :class:`_PackedRoutes` without touching the router's
        last-batch telemetry (the caller owns aggregation)."""
        flat = self._ensure_flat()
        return _route_batch_packed(
            flat, entries_arr,
            np.asarray(pxs, dtype=np.float64),
            np.asarray(pys, dtype=np.float64),
            np.asarray(serial_u64s, dtype=np.uint64),
            max_hops)

    def _ensure_flat(self) -> _FlatPlane:
        """The dense plane with relay-chain CSR arrays attached,
        building either lazily (chains resolve through the epoch's
        pruned chain cache, so a scoped patch recomputes only what it
        invalidated)."""
        flat = self._flat
        if flat is None:
            flat = self._flat = _FlatPlane(self._states)
        if not flat.chains_built:
            flat.attach_chains(self._chain)
        return flat
