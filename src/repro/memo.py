"""One memo type for the host-side work simulated devices share.

The paper charges verification, transpilation, signature checks and
flash writes on every device, and so does the simulator: every modelled
cycle lands on the device's own virtual clock.  What devices may share
is the *host's* work of deriving one immutable value from the same
inputs.  Every such share is a :class:`Memo`, or an
:func:`identity_memo` for one object that many devices handle in a row,
and every memo keeps one rule:

* **Wall-clock only.**  A hit spares host work and nothing else: the
  caller charges its modelled cycles either way.
* **Exact keys, immutable values.**  The key holds every input the
  value depends on, and nobody mutates the value, so sharing cannot
  leak state between devices.
* **Success only.**  A derive that raises stores nothing, nor does one
  that returns ``None`` or ``False`` (a failed verdict, a malformed
  body): a hit never stands in for a check that would fail.
* **Bounded.**  Past ``max_entries`` the oldest-inserted entry ages
  out; an evicted value is derived again.

A memo's scope is where its instance lives: a module global is shared
process-wide, an engine attribute per engine, a publisher attribute per
publish.  :func:`memos_disabled` switches every memo off, wherever it
was created — the check that no modelled state depends on a share.
The simulator is single-threaded per process, so a plain dict (whose
insertion order is the eviction order) suffices.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields
from typing import Any, Callable, Hashable, Iterator

#: Set by :func:`memos_disabled`; read by every :meth:`Memo.get_or_derive`.
_disabled = False


class Memo:
    """Bounded map from an exact key to a derived value, evicting the
    oldest-inserted entry first."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: dict[Hashable, Any] = {}
        self.hits = 0
        #: Calls that derived (every call while memos are disabled).
        self.misses = 0

    def get_or_derive(self, key: Hashable, derive: Callable[..., Any],
                      *args: Any) -> Any:
        """The value stored under ``key``, or ``derive(*args)``'s, which
        is stored unless it is ``None`` or ``False`` (or it raised).
        Passing the arguments spares a frame-rate caller building a
        closure per lookup."""
        entries = self._entries
        if not _disabled:
            value = entries.get(key)
            if value is not None:
                self.hits += 1
                return value
        self.misses += 1
        value = derive(*args)
        if value is not None and value is not False and not _disabled:
            entries[key] = value
            if len(entries) > self.max_entries:
                del entries[next(iter(entries))]
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        """The stored keys, oldest inserted first."""
        return iter(self._entries)


def identity_memo(derive: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``derive`` behind a one-entry memo keyed by the *identity* of its
    argument.

    For host work that many devices repeat on one object in a row: every
    radio of a group parses the one frame object they all heard.  A hit
    costs one ``is`` test and never hashes or compares contents, so an
    object seen once (a unicast frame is a new object on every send)
    costs one call more than deriving it.  The entry holds its key, so
    the key's identity cannot be reused while it is stored; pass only
    immutable keys.  The rules of :class:`Memo` hold: wall-clock only,
    immutable values, success only, and :func:`memos_disabled` switches
    it off.  It is a closure, not a class, because it sits on the path
    of every received frame and a closure call is the cheapest.
    """
    last_key: Any = object()  # matches no caller's key
    last_value: Any = None

    def lookup(key: Any) -> Any:
        nonlocal last_key, last_value
        if key is last_key and not _disabled:
            return last_value
        value = derive(key)
        if value is not None and value is not False and not _disabled:
            last_key, last_value = key, value
        return value

    return lookup


def seal_hash(key: Any) -> None:
    """Hash a frozen dataclass once, at construction, into ``_hash``.

    A value that keys memos is hashed on every lookup; its class's
    ``__hash__`` returns the stored field hash instead, the same number
    the generated one computes.  Call it last in ``__post_init__``, after
    any field coercion."""
    object.__setattr__(key, "_hash",
                       hash(tuple(getattr(key, f.name) for f in fields(key))))


@contextmanager
def memos_disabled() -> Iterator[None]:
    """Within the block, every memo derives on every call and stores
    nothing, as if no host work were ever shared."""
    global _disabled
    previous, _disabled = _disabled, True
    try:
        yield
    finally:
        _disabled = previous
