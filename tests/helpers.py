"""Shared test helpers.

`FakeEnvironment` is a minimal in-memory implementation of
:class:`repro.core.interfaces.EnvironmentAPI` used by the protocol *unit*
tests: it records everything the process broadcasts and lets the test control
the failure-detector views directly, so each pseudocode branch can be
exercised without spinning up the simulator.  `LiteralAnonymousDetector`
computes AΘ / AP\\* views from their per-policy definitions on every query,
as the reference the shipped windowed oracle is checked against.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import sqlite3
import weakref
import zlib
from contextlib import closing
from pathlib import Path
from typing import Any

from repro.core.messages import TaggedMessage
from repro.failure_detectors.base import FailureDetectorView, FDPair
from repro.failure_detectors.oracle import GroundTruthOracle
from repro.failure_detectors.policies import DisseminationPolicy


class FakeEnvironment:
    """In-memory EnvironmentAPI for protocol unit tests."""

    def __init__(self, seed: int = 0,
                 atheta_view: FailureDetectorView | None = None,
                 apstar_view: FailureDetectorView | None = None) -> None:
        self._random = random.Random(seed)
        self.atheta_view = atheta_view or FailureDetectorView.empty()
        self.apstar_view = apstar_view or FailureDetectorView.empty()
        #: Every payload the process handed to ``broadcast``.
        self.broadcasts: list[Any] = []
        #: Every message reported through ``notify_delivery``.
        self.deliveries: list[TaggedMessage] = []
        #: Every message reported through ``notify_retire``.
        self.retirements: list[TaggedMessage] = []

    # -- EnvironmentAPI --------------------------------------------------- #
    def broadcast(self, payload: Any) -> None:
        self.broadcasts.append(payload)

    @property
    def random(self) -> random.Random:
        return self._random

    def atheta(self) -> FailureDetectorView:
        return self.atheta_view

    def apstar(self) -> FailureDetectorView:
        return self.apstar_view

    def notify_delivery(self, message: TaggedMessage) -> None:
        self.deliveries.append(message)

    def notify_retire(self, message: TaggedMessage) -> None:
        self.retirements.append(message)

    # -- test conveniences ------------------------------------------------ #
    def broadcasts_of_kind(self, kind: str) -> list[Any]:
        """Broadcast payloads whose wire kind matches *kind*."""
        return [p for p in self.broadcasts if getattr(p, "kind", None) == kind]

    def clear(self) -> None:
        """Forget recorded broadcasts/deliveries (keeps RNG state)."""
        self.broadcasts.clear()
        self.deliveries.clear()
        self.retirements.clear()


def drain_loopback(process, env: FakeEnvironment, max_rounds: int = 10) -> None:
    """Feed the process its own broadcasts until it stops producing new ones.

    Emulates a perfectly reliable loopback channel, useful for single-process
    unit tests of the acknowledge-then-count path.
    """
    delivered_upto = 0
    for _ in range(max_rounds):
        pending = env.broadcasts[delivered_upto:]
        if not pending:
            return
        delivered_upto = len(env.broadcasts)
        for payload in pending:
            process.on_receive(payload)
    raise AssertionError("loopback did not stabilise within max_rounds")


def track_live_runs(monkeypatch) -> "tuple[weakref.WeakSet, list[int]]":
    """Wrap the batch runner's ``run_scenario`` so that the trace of every
    run it executes in this process lands in the returned ``WeakSet``: its
    length is the number of finished runs somebody still holds.  The list
    gets that length each time a run finishes, the new run included."""
    from repro.experiments import batch

    live: weakref.WeakSet = weakref.WeakSet()
    at_finish: list[int] = []
    run_scenario = batch.run_scenario

    def tracked(scenario):
        result = run_scenario(scenario)
        live.add(result.simulation.trace)
        at_finish.append(len(live))
        return result

    monkeypatch.setattr(batch, "run_scenario", tracked)
    return live, at_finish


def downgrade_store(root: Path, version: int) -> None:
    """Rewrite a closed schema-3 result store as the version 1 or 2 layout.

    Those versions kept every payload as ``blobs/<k[:2]>/<k>.json.z`` beside
    the index and had no ``payloads`` table; version 1 also had no
    ``wall_time`` column.  The migration tests open the result.
    """
    with closing(sqlite3.connect(root / "index.sqlite")) as db, db:
        for key, payload in db.execute("SELECT cell_key, payload FROM payloads"):
            path = root / "blobs" / key[:2] / f"{key}.json.z"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
        db.execute("DROP TABLE payloads")
        if version == 1:
            db.execute("ALTER TABLE results DROP COLUMN wall_time")
        db.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                   (str(version),))


def rewrite_payload(root: Path, cell_key: str, edit) -> None:
    """Apply *edit* to the decoded payload of one cell of a closed store,
    through SQL."""
    with closing(sqlite3.connect(root / "index.sqlite")) as db, db:
        [(packed,)] = db.execute(
            "SELECT payload FROM payloads WHERE cell_key = ?", (cell_key,))
        payload = json.loads(zlib.decompress(packed))
        edit(payload)
        db.execute("UPDATE payloads SET payload = ? WHERE cell_key = ?",
                   (zlib.compress(json.dumps(payload).encode()), cell_key))


def tamper_with_payload(root: Path, cell_key: str) -> None:
    """Flip the stored validity verdict of one cell of a closed store: same
    key, different content — what a determinism bug would produce."""
    def flip(payload):
        payload["result"]["verdict"]["validity"] = False
    rewrite_payload(root, cell_key, flip)


# --------------------------------------------------------------------------- #
# fault injection at a SQLite write boundary (result store, lease table)
# --------------------------------------------------------------------------- #
class Killed(BaseException):
    """Stands in for SIGKILL: no ``except Exception`` on the way catches it."""


def disk_full() -> sqlite3.OperationalError:
    return sqlite3.OperationalError("database or disk is full")


class Fault:
    """Lets *after* statements through, then fails the next *failures* (by
    default every later one, as for a process that died)."""

    def __init__(self, error=None, after=float("inf"),
                 failures=float("inf")) -> None:
        self.error = error
        self.after = after
        self.failures = failures
        self.seen = 0

    def step(self) -> None:
        self.seen += 1
        if self.after < self.seen <= self.after + self.failures:
            raise self.error


class FaultyConnection(sqlite3.Connection):
    """A connection that consults its ``fault`` before every statement.

    (The commit that ends ``with connection:`` is not a statement anyone can
    fail from Python: the context manager calls SQLite's directly, and its
    atomicity is SQLite's own guarantee.)
    """

    fault = None

    def _guarded(self, run, *args):
        if self.fault is not None:
            self.fault.step()
        return run(*args)

    def execute(self, *args):
        return self._guarded(super().execute, *args)

    def executemany(self, *args):
        return self._guarded(super().executemany, *args)


def fault_arming(monkeypatch, owner: type):
    """``arm(method, nth, fault)`` for *owner*, a class that keeps its
    connection in ``_db``: the *nth* call of ``owner.<method>`` from now on
    runs with *fault* on that connection.  A call that survives takes the
    fault off again; one that does not leaves it on, a handle on which
    nothing works any more, like the process it stands for."""
    monkeypatch.setattr(sqlite3, "connect", functools.partial(
        sqlite3.connect, factory=FaultyConnection))
    originals: dict = {}

    def arm(method: str, nth: int, fault: Fault) -> Fault:
        real = originals.setdefault(method, getattr(owner, method))
        calls = itertools.count(1)

        def armed(self, *args, **kwargs):
            if next(calls) != nth:
                return real(self, *args, **kwargs)
            self._db.fault = fault
            result = real(self, *args, **kwargs)
            self._db.fault = None
            return result

        monkeypatch.setattr(owner, method, armed)
        return fault

    return arm


def trace_statements(monkeypatch, database: str = "") -> list[str]:
    """Every SQL statement SQLite runs on a connection opened from now on to
    a file whose path ends in *database* (the ``BEGIN`` the ``sqlite3``
    module issues by itself included)."""
    statements: list[str] = []
    connect = sqlite3.connect

    def traced_connect(path, *args, **kwargs):
        db = connect(path, *args, **kwargs)
        if str(path).endswith(database):
            db.set_trace_callback(statements.append)
        return db

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    return statements


def writes(statements: list[str]) -> list[str]:
    """The statements of *statements* that take SQLite's write lock."""
    return [sql for sql in statements
            if not sql.lstrip().upper().startswith(("SELECT", "PRAGMA"))]


class LiteralAnonymousDetector:
    """AΘ / AP\\* views built from each policy's definition on every query,
    with no cache: the three per-policy view builders the shipped
    ``AnonymousDetectorBase`` replaced with one windowed rule.  It draws its
    learn times exactly as the shipped oracle does, so two detectors given
    equally seeded *rng* have equal learn times."""

    def __init__(self, oracle: GroundTruthOracle, *,
                 policy: DisseminationPolicy | str,
                 detection_delay: float = 0.0, learn_delay: float = 0.0,
                 rng: random.Random) -> None:
        self.oracle = oracle
        self.policy = DisseminationPolicy.from_string(policy)
        self.detection_delay = float(detection_delay)
        n = oracle.n_processes
        self.learn_time: dict[tuple[int, int], float] = {}
        for viewer in range(n):
            for subject in range(n):
                if viewer == subject or learn_delay == 0.0:
                    self.learn_time[(viewer, subject)] = 0.0
                else:
                    self.learn_time[(viewer, subject)] = rng.uniform(
                        0.0, learn_delay)

    def _knows(self, viewer: int, subject: int, now: float) -> bool:
        return now >= self.learn_time[(viewer, subject)]

    def _detected(self, subject: int, now: float) -> bool:
        return self.oracle.crash_time(subject) + self.detection_delay <= now

    def view(self, viewer: int, now: float) -> FailureDetectorView:
        if self.policy is DisseminationPolicy.OWN_ONLY:
            return FailureDetectorView([FDPair(self.oracle.label_of(viewer), 1)])
        if self.policy is DisseminationPolicy.CORRECT_ONLY:
            # Only correct processes' labels, only at correct viewers, with
            # number |Correct| from the start.
            if self.oracle.is_faulty(viewer):
                return FailureDetectorView.empty()
            number = self.oracle.n_correct
            return FailureDetectorView(
                FDPair(self.oracle.label_of(subject), number)
                for subject in self.oracle.correct_indices()
                if self._knows(viewer, subject, now))
        # ALL_PROCESSES: every not-yet-detected process, with a number that
        # shrinks as crashes are detected.
        n = self.oracle.n_processes
        number = n - sum(1 for subject in range(n)
                         if self._detected(subject, now))
        return FailureDetectorView(
            FDPair(self.oracle.label_of(subject), number)
            for subject in range(n)
            if not self._detected(subject, now)
            and self._knows(viewer, subject, now))
