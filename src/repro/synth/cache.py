"""State-keyed caching of intermediate AIGs for recipe synthesis.

The recipe-search engine evaluates thousands of candidate recipes that are
one-step mutations of each other, and many of their steps leave the AIG
unchanged or reach an AIG another recipe already reached.  A synthesis
cache therefore keys everything on the AIG itself:

* a **state** is an exact AIG snapshot keyed by its
  :meth:`~repro.aig.aig.Aig.fingerprint`, stored once however many recipes
  reach it;
* a **transition** ``(state, step) -> state`` records what one recipe step
  did to a stored state.

:meth:`SynthCache.apply` (the engine of
:func:`repro.synth.engine.apply_recipe`) walks the transitions from the
input's state as far as they are cached.  On a miss it runs one step,
stores the transition, then walks again from the state it reached.  So
``rw; rf`` and ``rf; rw`` that meet in one AIG share every later step, and
a pass that changed nothing lands back on a state whose continuations are
already known.

**The exact-resume contract.**  It rests on one premise: equal
fingerprints mean interchangeable synthesis inputs (every transform is
deterministic, and the fingerprint covers the exact structure, ids and
dead slots included; :meth:`~repro.aig.aig.Aig.check` verifies that the
state it leaves out is derived).  Snapshots are **exact clones**
(:meth:`~repro.aig.aig.Aig.clone`), not compacted copies, so a served state
is bit-identical to the one the walk would have computed — cached and
uncached synthesis produce the same AIG, which keeps search traces
deterministic no matter the cache state (``tests/test_search.py`` and the
golden search traces pin both).  Any new store must preserve it:
:meth:`SynthCache.lookup` returns either ``(0, None)`` or a *private* AIG
whose subsequent transforms behave exactly as they would on the original.

**Bounds.**  ``max_entries`` counts distinct states, evicted least recently
used first.  Each stored state carries its outgoing transitions, and they
are dropped with it; a transition into an evicted state is a dead end that
the walk stops at, and the next miss there overwrites it.  A cache thus
holds at most ``max_entries`` states and one transition per state and
distinct step.

Two stores share the walk and differ only in storage:

* :class:`SynthCache` — in-process LRU of clones; the default on every
  :class:`~repro.core.proxy.ProxyModel`.
* :class:`SharedSynthCache` — dicts of a ``multiprocessing.Manager`` that
  the cache starts itself, shared by every worker of a ``--jobs`` process
  pool under one lock, so fan-out keeps the serial path's hit rate instead
  of warming one cold cache per worker.  Counters live in the shared store
  too, which is what makes the hit/miss totals parent-visible after the
  pool is torn down.

A no-op pass lands on the state it started from, so a later recipe that
repeats it is served without running anything::

    >>> from repro.aig.aig import Aig
    >>> aig = Aig("and2")
    >>> _ = aig.add_po(aig.add_and(aig.add_pi("x"), aig.add_pi("y")), "z")
    >>> cache = SynthCache(max_entries=8)
    >>> _ = cache.apply(aig.clone(), ("rewrite", "balance"))
    >>> cache.stats()["prefix_misses"], cache.steps_executed
    (1, 2)
    >>> _ = cache.apply(aig.clone(), ("balance", "rewrite", "rewrite"))
    >>> cache.stats()["prefix_hits"], cache.steps_saved, len(cache)
    (1, 3, 1)
"""

from __future__ import annotations

import contextlib
import pickle
from typing import Iterable, Optional, Sequence

from repro.aig.aig import Aig
from repro.errors import SynthesisError
from repro.obs import metrics as _metrics
from repro.synth.engine import apply_transform

_COUNTERS = ("prefix_hits", "prefix_misses", "steps_saved", "steps_executed")


class SynthCache:
    """Bounded LRU of AIG states and the recipe steps between them.

    ``max_entries`` bounds memory: one entry is one distinct AIG clone
    together with its outgoing transitions.  Every :meth:`apply` call counts
    one hit (at least one step served) or one miss, and ``steps_saved`` /
    ``steps_executed`` account transform applications served vs. run, so
    benches can report the cache hit rate directly.

    Everything lives here; :class:`SharedSynthCache` swaps in only other
    storage: its dicts, its lock and how a snapshot is frozen and thawed.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 1:
            raise SynthesisError(
                f"{type(self).__name__} needs max_entries >= 1, "
                f"got {max_entries}"
            )
        self.max_entries = max_entries
        self._lock = contextlib.nullcontext()
        self._snapshots: dict = {}  # state -> frozen AIG
        self._moves: dict[str, dict[str, str]] = {}  # state -> {step: state}
        self._ticks: dict[str, int] = {}  # state -> last-use tick
        self._counts = dict.fromkeys(_COUNTERS + ("tick",), 0)

    def __len__(self) -> int:
        return len(self._moves)

    # -- the walk (shared by both stores) -------------------------------------

    def apply(self, aig: Aig, steps: Sequence[str]) -> Aig:
        """Apply ``steps`` to ``aig``, serving every step the cache knows.

        A step that runs may mutate ``aig``.  Returns the final AIG, which
        is the caller's ``aig`` or a private clone; it is bit-identical to
        applying every step uncached.
        """
        steps = tuple(steps)
        state = self._keep(aig)
        done = saved = 0
        while done < len(steps):
            served, resumed = self.lookup(state, steps[done:])
            if resumed is not None:
                aig, done, saved = resumed, done + served, saved + served
                if done == len(steps):
                    break
                state = aig.fingerprint()
            aig = apply_transform(aig, steps[done])
            state = self.store(state, steps[done], aig)
            done += 1
        self._record(saved, len(steps) - saved)
        return aig

    def lookup(
        self, fingerprint: str, steps: Sequence[str]
    ) -> tuple[int, Optional[Aig]]:
        """Follow cached transitions from state ``fingerprint`` along ``steps``.

        Returns ``(k, clone)`` where the clone is the state after the first
        ``k`` steps — the caller applies only ``steps[k:]`` — or
        ``(0, None)`` when not even the first step is cached.
        """
        with self._lock:
            path = [fingerprint]
            moves = self._moves.get(fingerprint)
            for step in steps:
                target = moves.get(step) if moves is not None else None
                moves = self._moves.get(target) if target is not None else None
                if moves is None:  # unknown step, or its target was evicted
                    break
                path.append(target)
            if len(path) == 1:
                return 0, None
            self._touch(path)
            frozen = self._snapshots[path[-1]]
        return len(path) - 1, self._thaw(frozen)

    def store(self, fingerprint: str, step: str, aig: Aig) -> str:
        """Record that ``step`` takes state ``fingerprint`` to ``aig``.

        Snapshots ``aig`` unless its state is stored already; returns the
        new state's fingerprint.
        """
        target = self._keep(aig)
        with self._lock:
            moves = self._moves.get(fingerprint)
            if moves is not None:  # the source may have been evicted
                moves[step] = target
                self._moves[fingerprint] = moves
        return target

    def _keep(self, aig: Aig) -> str:
        """Store ``aig`` as a state unless it is stored already."""
        state = aig.fingerprint()
        with self._lock:
            if state in self._moves:
                self._touch([state])
                return state
        frozen = self._freeze(aig)
        with self._lock:
            if state not in self._moves:
                self._snapshots[state] = frozen
                self._moves[state] = {}
            self._touch([state])
            while len(self._moves) > self.max_entries:
                self._forget_oldest()
        return state

    def _record(self, saved: int, executed: int) -> None:
        """Count one :meth:`apply` call: a hit iff it served any step."""
        outcome = "prefix_hits" if saved else "prefix_misses"
        with self._lock:
            counts = self._counts
            counts.update({
                outcome: counts[outcome] + 1,
                "steps_saved": counts["steps_saved"] + saved,
                "steps_executed": counts["steps_executed"] + executed,
            })
        # Mirrored into the calling process's metrics registry, so a pool
        # worker's span carries the traffic it generated.
        _metrics.inc(f"synth_cache.{outcome}")
        _metrics.inc("synth_cache.steps_saved", saved)
        _metrics.inc("synth_cache.steps_executed", executed)

    # Called with the lock held.
    def _touch(self, states: Iterable[str]) -> None:
        tick = self._counts["tick"] + 1
        self._counts["tick"] = tick
        self._ticks.update(dict.fromkeys(states, tick))

    def _forget_oldest(self) -> None:
        oldest = min(self._ticks.items(), key=lambda item: item[1])[0]
        del self._snapshots[oldest]
        del self._moves[oldest]
        del self._ticks[oldest]

    @staticmethod
    def _freeze(aig: Aig):
        return aig.clone()

    @staticmethod
    def _thaw(frozen) -> Aig:
        return frozen.clone()

    # -- accounting ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every state and transition; the counters are kept."""
        with self._lock:
            self._snapshots.clear()
            self._moves.clear()
            self._ticks.clear()

    def stats(self) -> dict:
        with self._lock:
            counts = dict(self._counts)
            transitions = sum(len(moves) for moves in self._moves.values())
            entries = len(self._moves)
        total = counts["steps_saved"] + counts["steps_executed"]
        return {
            "entries": entries,
            "transitions": transitions,
            "max_entries": self.max_entries,
            **{name: counts[name] for name in _COUNTERS},
            "hit_rate": (
                round(counts["steps_saved"] / total, 4) if total else 0.0
            ),
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of recipe steps served from snapshots instead of run."""
        stats = self.stats()
        total = stats["steps_saved"] + stats["steps_executed"]
        return stats["steps_saved"] / total if total else 0.0

    @property
    def prefix_hits(self) -> int:
        return self.stats()["prefix_hits"]

    @property
    def prefix_misses(self) -> int:
        return self.stats()["prefix_misses"]

    @property
    def steps_saved(self) -> int:
        return self.stats()["steps_saved"]

    @property
    def steps_executed(self) -> int:
        return self.stats()["steps_executed"]


class SharedSynthCache(SynthCache):
    """A :class:`SynthCache` whose store is shared across ``--jobs`` workers.

    A private :class:`SynthCache` defeats process fan-out: the scorer is
    pickled once per worker, so every worker warms its own cold cache and
    the hits that make parallel search pay are forfeited.  This class keeps
    the states, transitions, recency and counters in
    ``multiprocessing.Manager`` dicts; the handle pickles into pool workers
    (the unpicklable manager itself stays behind), so parent and workers
    all walk and extend the same cache, and the aggregated hit/miss totals
    remain visible in the parent after pool teardown.

    Snapshots cross the process boundary as pickled AIGs; a served state
    is re-:meth:`~repro.aig.aig.Aig.clone`'d on arrival, which rebuilds the
    fanout sets in canonical sorted order — the same normalization
    :class:`SynthCache` applies — so the exact-resume contract holds across
    processes exactly as it does within one.

    Eviction is LRU via a shared recency tick.  Every read and write of the
    store happens under one shared lock, so concurrent workers never
    corrupt it (at worst two workers race to run the same step once each).

    ``close()`` freezes the final stats in the parent and shuts the manager
    server down; call it only after the pool's workers have exited.
    """

    def __init__(self, max_entries: int = 512):
        super().__init__(max_entries)
        import multiprocessing

        self._manager = multiprocessing.Manager()
        self._lock = self._manager.Lock()
        self._snapshots = self._manager.dict()  # state -> pickled Aig bytes
        self._moves = self._manager.dict()      # state -> {step: state}
        self._ticks = self._manager.dict()      # state -> last-use tick
        self._counts = self._manager.dict(
            dict.fromkeys(_COUNTERS + ("tick",), 0)
        )
        self._closed = False
        self._final_stats: Optional[dict] = None

    # The SyncManager itself cannot be pickled (and workers never need it);
    # the proxies it handed out reconnect to the server from any process.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_manager"] = None
        return state

    @staticmethod
    def _freeze(aig: Aig) -> bytes:
        return pickle.dumps(aig, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _thaw(frozen: bytes) -> Aig:
        # clone() after unpickling canonicalizes fanout-set order, keeping
        # resumed passes deterministic regardless of pickling history.
        return pickle.loads(frozen).clone()

    def stats(self) -> dict:
        """Aggregated counters across every process that used the store."""
        if self._final_stats is not None:
            return dict(self._final_stats)
        return {**super().stats(), "shared": True}

    def close(self) -> None:
        """Freeze final stats and shut the manager server down; idempotent.

        Only the parent-side handle that started the manager holds it and
        shuts it down — handles that arrived by pickling (pool workers)
        hold none, and close() is a stats freeze for them.
        """
        if self._closed:
            return
        try:
            self._final_stats = self.stats()
        except Exception:  # manager already gone (interpreter teardown)
            self._final_stats = {}
        self._closed = True
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
