"""The dataset-owner process: where a shard's named datasets are mined.

§IV-B of the paper keeps the data resident in the process that works on
it.  A named dataset's warm state — a mirror of its window, one
:class:`~repro.core.incremental.IncrementalMiner` per mining key and the
diffs they emit — lives in one child process per shard, and every window
advance, warm job and change-feed render runs there, off the GIL that
serves the shard's HTTP requests.  The server keeps what it must answer
without a round trip (:class:`~repro.serve.datasets.ManagedDataset`): the
name, version and fingerprint chain, the window rows, the policies and
the ingest buffer, and each watch's log as the text the owner rendered.

:class:`DatasetOwner` is the server's handle.  Its child is a
:class:`~repro.engine.workerstore.WorkerProcess`, forked in
``MiningService.__init__`` beside the job workers while the process has
one thread (spawned at the first use otherwise).  One pipe carries, in
order:

* server → owner, fire and forget: ``load`` (a dataset's rows at a
  version — at create, and again after a respawn), ``drop``, ``advance``
  (the delta, how many rows retired, the new version, the watches the
  server let go) and ``watch`` (start emitting a key's diffs);
* server → owner, answered: ``job`` (the kept result of a warm miner
  caught up to a snapshot's rows, or ``None``: answer it cold),
  ``family`` (a key's whole family as the JSON rows a reset sends),
  ``report`` (how many warm miners and watches it holds) and
  ``inspect`` (the warm state, for tests and drills);
* owner → server: ``reply`` to a request, and one ``feed`` push per
  advance — every watched key's one-version diff, rendered once, with
  the window size.

The owner renders what it sends, from each watched key's family kept in
payload order with one ``%`` row template per itemset (:class:`KeptFamily`);
the server admits only datasets whose items are all ``str`` or all ``int``.

The pipe is FIFO and the owner handles every message in the order it
was sent, so a request sent after an append is answered from a window
that holds it (read-your-writes), and a version's diffs are pushed
before anything sent after its advance is answered.

One reader thread per handle (started with the first dataset) takes
every message off the pipe: a reply wakes its waiter, a push lands in
the dataset's watch logs.  A dead owner is seen there as EOF: the reader
starts another (``respawns``), and each dataset is loaded into it cold
from the server's rows the next time anything is sent for it — which
resets its watches, so a returning reader is answered ``reset: true``.

Locks: a message about a dataset is sent holding that dataset's lock,
which orders it against the dataset's advances; under it the handle's
send lock, held across every ``send``, and under that the dataset's feed
condition and the handle's state lock (the replies owed and the datasets
held), a leaf held across no send.  Receiving never waits on a sender:
a send blocks while the owner's end of the pipe is full, and the owner
may itself be blocked pushing to ours, so the reader takes only the
feed conditions and the state lock.  The send lock it takes once, to
swap in a new process after EOF — when a send still out on the dead
pipe fails at once.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import weakref
from bisect import bisect_left
from itertools import chain, compress
from pathlib import Path

from repro.common.errors import MiningError
from repro.engine.workerstore import (
    POLL_S,
    WorkerProcess,
    exit_with_parent,
    picklable_exception,
    start_method,
)
from repro.serve.jobs import ServeError

#: what a reply is when the owner died (or was stopped) before answering
GONE = object()


class _Reply:
    """One request's answer, handed from the reader to the waiter."""

    __slots__ = ("event", "ok", "value")

    def __init__(self):
        self.event = threading.Event()
        self.ok, self.value = True, GONE

    def set(self, ok: bool, value) -> None:
        self.ok, self.value = ok, value
        self.event.set()

    def wait(self, abandoned=None):
        """The answer (:data:`GONE` if the owner went first, or once the
        polled ``abandoned()`` returns something).  The GIL is released
        while waiting; what the owner raised is raised here."""
        while not self.event.wait(None if abandoned is None else POLL_S):
            if abandoned() is not None:
                return GONE
        if not self.ok:
            raise self.value
        return self.value


class DatasetOwner:
    """A shard's handle on its dataset-owner process (see the module
    docstring).  Every method may be called from any thread; the ones
    about a dataset are called holding that dataset's lock."""

    def __init__(self, name: str):
        self._process = WorkerProcess(f"repro-dataset-owner-{name}", _owner_main, tuple, _nothing)
        #: held across every send, and the respawn that swaps the pipe
        self._send_lock = threading.Lock()
        #: guards ``_replies``, ``_loaded`` and ``_ended``; held across no send
        self._state_lock = threading.Lock()
        self._replies: dict[int, _Reply] = {}
        self._ids = itertools.count(1)
        #: uid -> entry: the datasets the current process holds
        self._loaded: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._reader: threading.Thread | None = None
        self._ended = False
        self.respawns = 0
        self.requests = 0
        self.versions_applied = 0
        if start_method() == "fork":
            # now or never: 6 ms and the imports inherited; beside live
            # threads the first dataset spawns it (0.4 s)
            self._process.start()

    # -- sending -----------------------------------------------------------
    def holds(self, entry) -> bool:
        """Whether the current process holds ``entry`` (a respawn loses
        every dataset until its next message reloads it)."""
        with self._state_lock:
            return self._loaded.get(entry.uid) is entry

    def post(self, entry, message: tuple | None = None) -> bool:
        """Send ``message`` about ``entry`` (caller holds ``entry.lock``),
        the dataset loaded first if this process does not hold it — a
        load carries the current window, so an ``advance`` it already
        holds is not sent after it.  ``False`` when nothing could be sent
        (owner stopped or dead, entry retired): the next post reloads."""
        with self._send_lock:
            return self._post_locked(entry, message)

    def _post_locked(self, entry, message) -> bool:
        with self._state_lock:
            if self._ended or entry.retired:
                return False
        if self._process.proc is None:
            self._process.start()
        if self._reader is None:
            self._reader = threading.Thread(
                target=self._read, name=f"{self._process.name}-reader", daemon=True
            )
            self._reader.start()
        conn = self._process.conn
        try:
            if not self.holds(entry):
                entry.reloaded()
                conn.send(("load", entry.uid, entry.transactions, entry.version,
                           entry.changelog_limit))
                with self._state_lock:
                    self._loaded[entry.uid] = entry
                if message is not None and message[0] == "advance":
                    return True
            if message is not None:
                conn.send(message)
            return True
        except OSError:  # it died: the reader starts another
            return False

    def request(self, entry, kind: str, *args) -> _Reply:
        """Ask the owner ``kind`` about ``entry`` (caller holds
        ``entry.lock``); wait on the returned reply outside it."""
        reply = _Reply()
        with self._send_lock:
            with self._state_lock:
                rid = next(self._ids)
                self._replies[rid] = reply
                self.requests += 1
            if not self._post_locked(entry, (kind, rid, entry.uid, *args)):
                with self._state_lock:
                    self._replies.pop(rid, None)
                reply.set(True, GONE)
        return reply

    def drop(self, entry) -> None:
        """Forget ``entry`` (replaced; caller holds its lock)."""
        with self._send_lock:
            if self.holds(entry):
                with self._state_lock:
                    del self._loaded[entry.uid]
                try:
                    self._process.conn.send(("drop", entry.uid))
                except OSError:
                    pass

    def inspect(self, entry) -> dict | None:
        """The owner's warm state for ``entry`` — ``{"miners": {key:
        {...}}, "watched": [...], "renders": n, "n_transactions": n}`` —
        or ``None`` when it holds none (tests and drills)."""
        with entry.lock:
            if not self.holds(entry):
                return None
            reply = self.request(entry, "inspect")
        value = reply.wait()
        return None if value is GONE else value

    # -- receiving ---------------------------------------------------------
    def _read(self) -> None:
        """The reader thread: every message the owner sends, in order.
        Only this thread swaps the pipe, so it reads it without a lock."""
        while True:
            conn = self._process.conn
            try:
                message = conn.recv()
            except (EOFError, OSError):
                if not self._respawn():
                    return
                continue
            if message[0] == "reply":
                _, rid, ok, value = message
                with self._state_lock:
                    reply = self._replies.pop(rid, None)
                if reply is not None:
                    reply.set(ok, value)
            else:  # "feed"
                _, uid, version, n_transactions, steps = message
                self.versions_applied += 1
                with self._state_lock:
                    entry = self._loaded.get(uid)
                if entry is not None:
                    entry.logged(version, n_transactions, steps)

    def _respawn(self) -> bool:
        """The owner is gone: fail what waited on it and start another,
        which holds no dataset.  ``False`` once stopped.  The send lock
        keeps senders off the pipe while it is swapped; one holding it is
        out on the dead pipe, whose send fails at once."""
        with self._send_lock:
            with self._state_lock:
                if self._ended:
                    return False
                waiting, self._replies = list(self._replies.values()), {}
                entries = list(self._loaded.values())
                self._loaded.clear()
            self._process.start()
            self.respawns += 1
        for reply in waiting:
            reply.set(True, GONE)
        for entry in entries:  # parked readers: their watch is gone
            with entry.changed:
                entry.changed.notify_all()
        return True

    # -- lifecycle and observability ---------------------------------------
    def stop(self) -> None:
        """Final: kill the process, start no other, and let the reader go
        (a thread left behind would make the next service spawn, not
        fork, its workers)."""
        with self._send_lock, self._state_lock:
            self._ended = True
            waiting, self._replies = list(self._replies.values()), {}
            entries = list(self._loaded.values())
            self._loaded.clear()
        proc = self._process.proc
        if proc is not None:
            proc.kill()  # the reader sees EOF and goes ...
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)
        self._process.kill()  # ... before the pipe it reads is closed
        for reply in waiting:
            reply.set(True, GONE)
        for entry in entries:
            with entry.changed:
                entry.changed.notify_all()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def stats(self) -> dict:
        """The ``dataset_owner`` block of a shard's ``/metrics``."""
        pid = self.pid if self._process.alive else None
        with self._state_lock:
            n_datasets = len(self._loaded)
        return {
            "pid": pid,
            "started": self._process.started,
            "respawns": self.respawns,
            "datasets": n_datasets,
            "versions_applied": self.versions_applied,
            "requests": self.requests,
            "vm_hwm_kb": _vm_hwm_kb(pid),
        }


def _nothing() -> None:
    """A dead owner leaves nothing behind in the server to fold away."""


def _vm_hwm_kb(pid: int | None) -> int:
    """``VmHWM`` of process ``pid`` from ``/proc`` (0 where unreadable)."""
    if pid is None:
        return 0
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(match.group(1)) if match else 0


# -- the owner's renderer ------------------------------------------------------
# A field is one ``%`` over joined row templates — byte for byte what
# ``json.dumps`` makes of the same rows, ``%`` in an item doubled.

#: itemsets whose row template a dataset's owner keeps (emptied when
#: full): many times the ledger's 3 300-itemset family, well under 10 MB
TEMPLATE_LIMIT = 1 << 16


def _in_payload_order(by_itemset: dict) -> list:
    """The itemsets of ``by_itemset`` in the order payloads list them:
    shorter itemsets first, equal lengths in the items' own order.  The
    keys alone are sorted — a native tuple sort, then a stable one by
    ``len`` — at half the cost of sorting ``(itemset, value)`` pairs,
    which at a few thousand changed itemsets per version is GIL time
    taken from the writer."""
    keys = sorted(by_itemset)
    keys.sort(key=len)
    return keys


class RowTemplates(dict):
    """One dataset's itemset -> its row template, ``[<the itemset's
    JSON>, %d]``, made the first time the itemset is rendered.  A
    family's itemsets move version after version, their counts changing
    and the itemsets not: kept for the life of the owner, each is encoded
    once."""

    def __missing__(self, itemset) -> str:
        if len(self) >= TEMPLATE_LIMIT:
            self.clear()
        text = json.dumps(itemset).replace("%", "%%")
        template = self[itemset] = f"[{text}, %d]"
        return template


def _array(templates) -> str:
    """The JSON array of row ``templates``, their fields still open."""
    return "[" + ", ".join(templates) + "]"


def _filled(by_itemset: dict, templates: RowTemplates) -> str:
    """``by_itemset`` (itemset -> count) as its JSON rows in payload order."""
    keys = _in_payload_order(by_itemset)
    return _array(map(templates.__getitem__, keys)) % tuple(map(by_itemset.__getitem__, keys))


def _rank(itemset: tuple) -> tuple:
    """Where ``itemset`` sits in payload order."""
    return len(itemset), itemset


class KeptFamily:
    """A watched key's family in payload order, as its owner keeps it
    between versions: ``order``, the itemsets; ``rows`` and ``twins``,
    their row templates (``[<JSON>, %d]`` and ``[<JSON>, %d, %d]``) from
    ``templates``, the dataset's; ``text``, the family's array of
    templates, joined when first asked for after its membership moved;
    ``version``, the miner version the order is current at.

    An advance adds or removes a handful of a few thousand itemsets and
    moves the counts of most: the order is edited by the diff's
    membership (a bisect each), a diff's ``changed`` is the order
    filtered by membership, and a family is one ``%`` over the kept
    text."""

    __slots__ = ("order", "rows", "twins", "templates", "text", "version")

    def __init__(self, family, templates: RowTemplates, version: int):
        self.order = _in_payload_order(family)
        self.rows = [templates[itemset] for itemset in self.order]
        self.twins = [row[:-1] + ", %d]" for row in self.rows]
        self.templates = templates
        self.text = None
        self.version = version

    def move(self, diff, version: int) -> None:
        """Follow ``diff``, the one-version
        :class:`~repro.core.incremental.FamilyDiff` that took the miner to
        ``version``."""
        self.version = version
        if not (diff.added or diff.removed):
            return
        self.text = None
        order, rows, twins = self.order, self.rows, self.twins
        for itemset in diff.removed:
            at = bisect_left(order, _rank(itemset), key=_rank)
            del order[at], rows[at], twins[at]
        for itemset in diff.added:
            at = bisect_left(order, _rank(itemset), key=_rank)
            row = self.templates[itemset]
            order.insert(at, itemset)
            rows.insert(at, row)
            twins.insert(at, row[:-1] + ", %d]")

    def diff_text(self, diff) -> str:
        """``diff`` — the one this order last moved by — as the feed
        sends it (the layout of :func:`repro.serve.datasets._rows_text`):
        ``added`` / ``removed`` (a handful) sorted, ``changed`` the kept
        order filtered by membership."""
        moved = list(map(diff.changed.get, self.order))
        olds_news = tuple(chain.from_iterable(filter(None, moved)))
        changed = _array(compress(self.twins, moved)) % olds_news
        return '"added": %s, "removed": %s, "changed": %s' % (
            _filled(diff.added, self.templates), _filled(diff.removed, self.templates), changed,
        )

    def family_text(self, family: dict) -> str:
        """``family`` (the itemsets of this order, with their counts) as
        its JSON rows."""
        if self.text is None:
            self.text = _array(self.rows)
        return self.text % tuple(map(family.__getitem__, self.order))


# -- the owner process ---------------------------------------------------------
class _Owned:
    """One named dataset as its owner holds it: a mirror of the window,
    the warm miners by mining key, which of them are watched, and each
    watched key's family in payload order."""

    def __init__(self, rows: list, version: int, changelog_limit: int):
        self.window = list(rows)
        self.version = version
        self.changelog_limit = changelog_limit
        #: (min_support, max_length) -> IncrementalMiner
        self.miners: dict = {}
        #: mining key -> the version a job or a watch last used its miner
        self.last_used: dict = {}
        self.watched: set = set()
        #: watched mining key -> its family in payload order (KeptFamily)
        self.kept: dict = {}
        self.renders = 0
        #: the dataset's row templates, shared by its kept families
        self.templates = RowTemplates()

    def report(self) -> tuple:
        """``(warm miners, watches)``: what ``GET /datasets/{id}`` says."""
        return len(self.miners), len(self.watched)

    def miner_for(self, key: tuple, n_rows: int):
        """The warm miner for mining ``key`` with its window at our first
        ``n_rows`` rows — built on first use, caught up by one delta pass
        when lazily behind — or ``None`` when it has already moved past
        them: the one place a miner is built or caught up, for jobs and
        watches alike."""
        from repro.core.incremental import IncrementalMiner

        self.last_used[key] = self.version
        miner = self.miners.get(key)
        if miner is None:
            min_support, max_length = key
            miner = self.miners[key] = IncrementalMiner(
                self.window[:n_rows], min_support, max_length=max_length,
                # nobody reads diffs until a watch on the key asks
                track_family_diff=key in self.watched,
            )
        elif miner.n_transactions > n_rows:
            return None
        elif miner.n_transactions < n_rows:
            miner.append(self.window[miner.n_transactions : n_rows])
        return miner

    def watch(self, key: tuple) -> None:
        """From here on, every advance emits ``key``'s diff; its family is
        put in payload order here, once, and edited by each diff."""
        self.watched.add(key)
        miner = self.miner_for(key, len(self.window))
        miner.track_family_diff = True
        self.kept[key] = KeptFamily(miner.itemsets(), self.templates, miner.version)

    def unwatch(self, key: tuple) -> None:
        """``key``'s diffs are no longer emitted, nor its order kept."""
        self.watched.discard(key)
        self.kept.pop(key, None)

    def family_text(self, key: tuple, miner, family: dict) -> str:
        """``family`` — ``miner``'s, as it stands — as its JSON rows in
        payload order: a watched key's from its kept order, any other's
        sorted for this answer."""
        kept = self.kept.get(key)
        if kept is None or kept.version != miner.version:
            kept = KeptFamily(family, self.templates, miner.version)
        return kept.family_text(family)

    def advance(self, delta: list, n_retired: int, version: int, unwatched) -> list:
        """Bring the mirror and the miners along one window advance;
        returns ``[(key, diff, n_family)]`` for the watched keys.

        Watched keys slide eagerly — their diffs are the feed.  Unwatched
        miners stay lazy (the next job folds the delta) *except* across a
        retire: the retired rows leave the window now, so every miner
        retires now or its window stops being a prefix of ours.  A miner
        that cannot follow is dropped (its watch with it) and rebuilt on
        demand.  First, what nobody uses goes: the watches the server let
        go, and a miner no job or watch has used for ``changelog_limit``
        versions.  A watched key's kept order moves here, with its miner."""
        self.window.extend(delta)
        pre_trim = self.window
        if n_retired:
            pre_trim = list(self.window)
            del self.window[:n_retired]
        self.version = version
        for key in unwatched:
            self.unwatch(key)
            if key in self.miners:
                self.miners[key].track_family_diff = False
        stale = version - self.changelog_limit
        out = []
        for key, miner in list(self.miners.items()):
            watched = key in self.watched
            if not watched and self.last_used[key] < stale:
                del self.miners[key], self.last_used[key]
                continue
            if not watched and n_retired == 0:
                continue
            try:
                # ONE update per version bump: the window between the
                # append and the retire is never mined
                update = miner.slide(pre_trim[miner.n_transactions :], n_retired)
            except MiningError:
                del self.miners[key], self.last_used[key]
                self.unwatch(key)
                continue
            if watched:
                diff = update.family_diff
                self.kept[key].move(diff, miner.version)
                out.append((key, diff, miner.n_frequent))
        return out

    def inspect(self) -> dict:
        return {
            "miners": {
                key: {
                    "ident": id(miner),
                    "version": miner.version,
                    "n_transactions": miner.n_transactions,
                    "track_family_diff": miner.track_family_diff,
                    "last_kind": miner.last_update.kind,
                    "full_rebuild": miner.last_update.full_rebuild,
                }
                for key, miner in self.miners.items()
            },
            "last_used": dict(self.last_used),
            "watched": sorted(self.watched, key=repr),
            "kept": {key: list(kept.order) for key, kept in self.kept.items()},
            "renders": self.renders,
            "n_transactions": len(self.window),
        }


class _Owner:
    """The owner process's state: its datasets by uid, and the one pipe."""

    def __init__(self, conn):
        self.conn = conn
        self.datasets: dict[int, _Owned] = {}

    def handle(self, message: tuple) -> None:
        kind, *args = message
        if kind == "load":
            uid, rows, version, limit = args
            self.datasets[uid] = _Owned(rows, version, limit)
            return
        if kind == "drop":
            self.datasets.pop(args[0], None)
            return
        if kind in ("advance", "watch"):
            owned = self.datasets.get(args[0])
            if owned is None:  # dropped: nothing of it is wanted
                return
            if kind == "watch":
                try:
                    owned.watch(args[1])
                except Exception:  # noqa: BLE001 - no miner: the server's watch restarts
                    owned.unwatch(args[1])
                return
            delta, n_retired, version, unwatched = args[1:]
            diffs = owned.advance(delta, n_retired, version, unwatched)
            self.push(args[0], owned, version, diffs)
            return
        rid, uid, *rest = args
        owned = self.datasets.get(uid)
        try:
            if owned is None:
                raise ServeError(f"the dataset owner holds no dataset {uid}")
            value, ok = getattr(self, f"_{kind}")(owned, *rest), True
        except BaseException as exc:  # noqa: BLE001 - the server's to raise
            value, ok = picklable_exception(exc), False
        self.conn.send(("reply", rid, ok, value))

    def push(self, uid: int, owned: _Owned, version: int, diffs: list) -> None:
        """Render an advance's diffs, each once, and push them — every
        version, diffs or none, so the server's feed moves with it."""
        steps = []
        for key, diff, n_family in diffs:
            n_rows = len(diff.added) + len(diff.removed) + len(diff.changed)
            steps.append((key, owned.kept[key].diff_text(diff), n_rows, n_family))
        owned.renders += len(steps)
        self.conn.send(("feed", uid, version, len(owned.window), steps))

    # -- the answered requests ---------------------------------------------
    @staticmethod
    def _job(owned: _Owned, n_rows: int, key: tuple):
        from repro.serve.jobs import KeptItemsets

        miner = owned.miner_for(key, n_rows)
        if miner is None:
            return None
        # rendered here, once, as ``kept`` renders: the server unpickles one string
        result = miner.result()
        itemsets = result.itemsets
        result.itemsets = KeptItemsets(owned.family_text(key, miner, itemsets), len(itemsets))
        return result

    @staticmethod
    def _family(owned: _Owned, key: tuple) -> str:
        miner = owned.miner_for(key, len(owned.window))
        return '"family": ' + owned.family_text(key, miner, miner.itemsets())

    @staticmethod
    def _report(owned: _Owned) -> tuple:
        return owned.report()

    @staticmethod
    def _inspect(owned: _Owned) -> dict:
        return owned.inspect()


def _owner_main(conn) -> None:
    """The owner process: gone with its parent, deaf to SIGINT; every
    message handled in the order it was sent.  What it inherited from the
    server is frozen out of the collector: a full collection would write
    to every inherited object's header and copy the pages it still
    shares with the server and its siblings."""
    import gc
    import signal

    exit_with_parent()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    owner = _Owner(conn)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        owner.handle(message)


__all__ = ["DatasetOwner", "GONE"]
