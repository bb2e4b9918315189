"""The one memo type: a model test and a source scan.

:class:`~repro.memo.Memo` is checked against a plain-dict reference
over generated call sequences whose derives return a value, raise, or
return ``None`` or ``False``, at small bounds, some calls made under
:func:`~repro.memo.memos_disabled`.  The scan keeps it the only cache
implementation under ``src/repro/``.
"""

from __future__ import annotations

import ast
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.memo import Memo, identity_memo, memos_disabled

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: What a derive does: return a fresh value, raise, or return a failed
#: verdict (``None``, ``False``).
OUTCOMES = ("value", "raise", "none", "false")


class Boom(Exception):
    pass


def _derive(outcome: str, index: int, calls: list[int]):
    def derive():
        calls.append(index)
        if outcome == "raise":
            raise Boom(index)
        return {"value": ("v", index), "none": None, "false": False}[outcome]
    return derive


@settings(max_examples=300, deadline=None)
@given(bound=st.integers(1, 4),
       steps=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(OUTCOMES),
                                st.booleans()),
                      max_size=40))
def test_memo_matches_a_dict_model(bound, steps):
    """Stored keys in insertion order, returned values and hit/miss counts
    match the reference.  A raise or a falsy verdict is never stored,
    and under the switch every call derives and stores nothing — on an
    instance created before the switch was entered."""
    memo = Memo(bound)
    model: dict = {}  # insertion order is the eviction order
    hits = misses = 0
    for index, (key, outcome, disabled) in enumerate(steps):
        calls: list[int] = []
        with memos_disabled() if disabled else nullcontext():
            try:
                result = memo.get_or_derive(key, _derive(outcome, index,
                                                         calls))
            except Boom:
                result = Boom
        if not disabled and key in model:
            hits += 1
            assert calls == [] and result is model[key]
        else:
            misses += 1
            assert calls == [index]
            expected = {"value": ("v", index), "raise": Boom, "none": None,
                        "false": False}[outcome]
            assert result == expected
            if outcome == "value" and not disabled:
                model[key] = result
                if len(model) > bound:
                    del model[next(iter(model))]
        assert list(memo) == list(model)
        assert len(memo) == len(model)
        assert (memo.hits, memo.misses) == (hits, misses)


def test_bound_evicts_the_oldest_inserted():
    memo = Memo(4)
    for key in range(10):
        memo.get_or_derive(key, lambda: object())
    assert list(memo) == [6, 7, 8, 9]
    memo.get_or_derive(6, lambda: object())  # a hit keeps its place
    memo.get_or_derive(10, lambda: object())
    assert list(memo) == [7, 8, 9, 10]


def test_switch_covers_new_memos_nests_and_restores():
    outer = Memo(4)
    outer.get_or_derive("k", lambda: 1)
    with pytest.raises(Boom):
        with memos_disabled():
            inner = Memo(4)
            with memos_disabled():
                pass
            for memo in (outer, inner):
                assert memo.get_or_derive("k", lambda: 2) == 2
            raise Boom
    assert outer.get_or_derive("k", lambda: 3) == 1
    assert len(inner) == 0
    inner.get_or_derive("k", lambda: 4)
    assert inner.get_or_derive("k", lambda: 5) == 4


def test_identity_memo_hits_only_the_same_object():
    """A hit needs the very object of the stored call: an equal but
    distinct key derives again, so no content is hashed or compared.
    A failed derive stores nothing, and the off-switch makes every call
    derive."""
    calls = []

    def derive(raw):
        calls.append(raw)
        return None if raw.startswith(b"bad") else (raw,)

    memo = identity_memo(derive)
    frame = bytes(range(64))
    copy = frame[:32] + frame[32:]  # equal, but another object
    first = memo(frame)
    assert memo(frame) is first
    assert calls == [frame]
    assert memo(copy) == first
    assert memo(copy) is memo(copy)  # the entry moved on
    assert len(calls) == 2
    bad = b"bad" + frame
    assert memo(bad) is None
    assert memo(bad) is None
    assert len(calls) == 4
    with memos_disabled():
        memo(copy)
    assert len(calls) == 5
    memo(copy)
    assert len(calls) == 5


def test_clear_drops_entries_and_counters():
    memo = Memo(4)
    memo.get_or_derive("k", lambda: 1)
    memo.get_or_derive("k", lambda: 1)
    memo.clear()
    assert (len(memo), memo.hits, memo.misses) == (0, 0, 0)
    assert memo.get_or_derive("k", lambda: 2) == 2


#: ``(module, name)`` pairs that would hand-roll a cache beside Memo.
FORBIDDEN = {("collections", "OrderedDict"), ("functools", "lru_cache"),
             ("functools", "cache")}


def test_memo_is_the_only_cache_implementation():
    """No module under ``src/repro/`` imports ``OrderedDict``,
    ``functools.lru_cache`` or ``functools.cache``, and ``Memo`` is
    defined once, so every host-side share goes through the one type
    :func:`memos_disabled` can switch off.

    Per-object derived attributes that their owner invalidates are not
    memos and are allowed: ``Program._hash_cache``,
    ``ImageSpec``'s ``cached_property``s, ``HelperRegistry._ids``.  Each
    lives and dies with one object, is a pure function of it, and is
    dropped when that object changes, so there is nothing to share
    across devices and nothing the switch would need to reach.
    """
    offenders, definitions = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                offenders += [(path.name, node.module, alias.name)
                              for alias in node.names
                              if (node.module, alias.name) in FORBIDDEN]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and (node.value.id, node.attr) in FORBIDDEN):
                offenders.append((path.name, node.value.id, node.attr))
            elif isinstance(node, ast.ClassDef) and node.name == "Memo":
                definitions.append(path.relative_to(SRC).as_posix())
    assert offenders == []
    assert definitions == ["memo.py"]
