"""An indexed in-memory triple store.

Maintains SPO/POS/OSP hash indexes so each basic-graph-pattern lookup is
a dictionary probe rather than a scan — adequate for ontologies of a few
thousand assertions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.ontology.triples import Triple


class TripleStore:
    """Set of triples with wildcard matching."""

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set()
        self._sp: dict[tuple[str, str], set[str]] = defaultdict(set)
        self._po: dict[tuple[str, str], set[str]] = defaultdict(set)
        self._so: dict[tuple[str, str], set[str]] = defaultdict(set)
        self._s: dict[str, set[Triple]] = defaultdict(set)
        self._p: dict[str, set[Triple]] = defaultdict(set)
        self._o: dict[str, set[Triple]] = defaultdict(set)
        for t in triples:
            self.add(t)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def add(self, t: Triple) -> None:
        if t in self._triples:
            return
        self._triples.add(t)
        self._sp[(t.subject, t.predicate)].add(t.obj)
        self._po[(t.predicate, t.obj)].add(t.subject)
        self._so[(t.subject, t.obj)].add(t.predicate)
        self._s[t.subject].add(t)
        self._p[t.predicate].add(t)
        self._o[t.obj].add(t)

    def assert_fact(self, subject: str, predicate: str, obj: str) -> None:
        self.add(Triple(subject, predicate, obj))

    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: str | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern; ``None`` is a wildcard."""
        if subject is not None and predicate is not None and obj is not None:
            t = Triple(subject, predicate, obj)
            if t in self._triples:
                yield t
            return
        if subject is not None and predicate is not None:
            for o in self._sp.get((subject, predicate), ()):
                yield Triple(subject, predicate, o)
            return
        if predicate is not None and obj is not None:
            for s in self._po.get((predicate, obj), ()):
                yield Triple(s, predicate, obj)
            return
        if subject is not None and obj is not None:
            for p in self._so.get((subject, obj), ()):
                yield Triple(subject, p, obj)
            return
        if subject is not None:
            yield from self._s.get(subject, ())
            return
        if predicate is not None:
            yield from self._p.get(predicate, ())
            return
        if obj is not None:
            yield from self._o.get(obj, ())
            return
        yield from self._triples
