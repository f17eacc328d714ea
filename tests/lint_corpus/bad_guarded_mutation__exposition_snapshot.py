"""Seeded violation: a background server's lifecycle pattern with the
guarded thread/closed slots mutated outside the lock.

The lint must report ``guarded-mutation`` for the unlocked thread-slot
store and closed-flag flip in ``start``/``close``: state that a server
thread's owner guards with ``_lock`` (a correct version also moves the
blocking shutdown/join calls outside the lock; ``close_locked`` shows
the compliant shape minus that teardown).
"""

import threading


class SnapshotExposer:
    def __init__(self, registry) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        self._thread = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(  # BAD: no lock held
                target=self._serve, daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        self._closed = True  # BAD: no lock held
        self._thread = None  # BAD: no lock held

    def close_locked(self) -> None:
        with self._lock:
            self._closed = True  # fine: lock held
            self._thread = None

    def _serve(self) -> None:
        pass
