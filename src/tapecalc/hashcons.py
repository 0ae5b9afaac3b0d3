"""Hash-consed Σ-term, circuit and tape nodes (Filliatre & Conchon,
*Type-safe modular hash-consing*, 2006): constructing a node equal to a
live one returns that one, so equal terms are identical, ``==`` is
identity and a term is a DAG of distinct subterms.  ``postorder`` lists
those subterms without recursion; ``fold`` over it is every term walker:
typing, evaluation, rendering and the walks over Σ-terms.

A walk takes each node's children from a ``kids`` map, so the map decides
where the walk stops, and what a node's children are: in
``tape.TERM_KIDS``, the one map of every walk over tapes and circuits, a
block tape or block circuit is a leaf and a whiskered tape has one
child, the tape it whiskers.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Mapping
from weakref import ref

_LIVE: dict = {}    # (class, *field values) -> weak reference to the node
_SWEEP_AT = 1 << 8  # table size at which dead entries are next dropped


def _sweep() -> None:
    """Drop the entries of dead nodes.  A node is entered after its
    children, so one pass from the newest entry back also drops a child
    that only its dead parent's key kept alive.  A sweep that a collection
    starts inside this one drops some of these entries first."""
    global _SWEEP_AT
    keys = list(_LIVE)
    while keys:
        key = keys.pop()
        node = _LIVE.get(key)
        if node is not None and node() is None:
            del _LIVE[key]
    _SWEEP_AT = 2 * len(_LIVE) + (1 << 8)


def _collected(phase: str, info: dict) -> None:
    """After each full collection, sweep too, so that the key of a dead
    node keeps none of its children alive past ``gc.collect()``."""
    if phase == "stop" and info["generation"] == 2:
        _sweep()


# One callback a process: a fresh import of this module replaces the one
# an earlier import registered, which would keep that module alive.
gc.callbacks[:] = [
    c for c in gc.callbacks
    if (getattr(c, "__module__", None), getattr(c, "__qualname__", None))
    != (__name__, _collected.__qualname__)]
gc.callbacks.append(_collected)


class Term:
    """Base of the nodes, frozen dataclasses declared by ``term_node``: one
    live node per class and field values, so equality and hashing are by
    identity, and a key hashes in O(1) for subterm fields.  ``__new__``
    sets the fields of a new node (``__init__`` is object's); a metaclass
    ``__call__`` would do too, but would slow every ``isinstance`` test."""

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs:      # keyword construction, as in dataclasses.replace
            args += tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs)
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected keyword "
                                f"arguments {sorted(kwargs)}")
        key = (cls,) + args
        live = _LIVE.get(key)
        if live is not None:
            live = live()
            if live is not None:
                return live
        if len(args) != len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} "
                            f"arguments {names}, got {len(args)}")
        node = object.__new__(cls)
        node.__dict__.update(zip(names, args))
        _LIVE[key] = ref(node)
        if len(_LIVE) > _SWEEP_AT:
            _sweep()
        return node

    def __reduce__(self):
        # copies and unpickled nodes are constructed, hence interned too
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


term_node = dataclass(frozen=True, eq=False, init=False)
"""Class decorator of the hash-consed term nodes."""


class kept:
    """A fact of a node, ``compute(node)``, computed on first read and
    stored as a plain attribute in the node's ``__dict__``, which later
    reads find first, so it dies with the node.  (A ``cached_property``
    takes a lock on first read.)"""

    def __init__(self, compute: Callable):
        self.compute = compute

    def __set_name__(self, cls, name: str) -> None:
        self.name = name

    def __get__(self, node, cls=None):
        if node is None:
            return self
        value = node.__dict__[self.name] = self.compute(node)
        return value


def postorder(roots, kids: Mapping[type, Callable],
              stop: Callable | None = None) -> tuple[list, dict]:
    """The distinct subterms of the roots, each after its own, and how
    often each is used: once per parent edge, and once per root.  The
    first root's subterms come first, then the second root's new ones, and
    so on.  ``kids`` maps each inner node class to a function returning
    the node's children as a tuple; other nodes are leaves, and so is an
    inner node for which ``stop``, if given, is true."""
    order, uses, stack = [], {}, list(reversed(roots))
    done = object()     # stack marker: the node under it has its children done
    while stack:
        node = stack.pop()
        if node is done:
            order.append(stack.pop())
        elif node in uses:
            uses[node] += 1
        else:
            uses[node] = 1
            get = kids.get(node.__class__)
            if get is None or stop is not None and stop(node):
                order.append(node)
            else:
                stack += (node, done, *reversed(get(node)))
    return order, uses


def fold(roots, kids: Mapping[type, Callable], step: Callable,
         walk: tuple[list, dict] | None = None) -> tuple:
    """The roots' values, where a node's value is ``step(node, values of its
    children)``: each is computed once and dropped after its last use.
    ``walk`` is the roots' ``postorder``, if made already; it is not changed."""
    order, uses = (postorder(roots, kids) if walk is None
                   else (walk[0], dict(walk[1])))
    values: dict = {}
    value = values.__getitem__
    for node in order:
        get = kids.get(node.__class__)
        children = () if get is None else get(node)
        values[node] = step(node, tuple(map(value, children)))
        for k in children:
            uses[k] -= 1
            if not uses[k]:
                del values[k]
    return tuple(map(value, roots))
