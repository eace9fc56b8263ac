"""Trie-compiled Levenshtein-automaton matcher for the Look Up hot path.

The Look Up function (paper §III-B) answers "which tokens share the query's
Soundex key and lie within edit distance ``d``".  The straightforward
implementation runs one banded Wagner-Fischer dynamic program per bucket
entry (:func:`~repro.core.edit_distance.bounded_levenshtein`), which makes
large sound buckets — the paper reports 400K+ keys over 2M tokens, with
heavy skew — dominate query latency.

:class:`CompiledBucket` compiles a bucket's tokens into a character trie
(entries attached at terminal nodes) and matches a query against *all*
entries in one traversal:

* the banded DP row for a trie node is computed once and **shared by every
  entry under that prefix** — "vaccine", "vacc1ne" and "vaccinne" pay for
  their common ``vacc`` prefix a single time;
* a subtree is **pruned** as soon as its row's in-band minimum exceeds
  ``d`` (the Levenshtein-automaton dead-state condition) — one bad leading
  character eliminates every entry spelled that way;
* each subtree records the **shortest and longest terminal below it**, so
  branches whose every entry violates ``|len(query) - len(token)| > d``
  are skipped before any DP work (the length pre-partition).

Cell values are clipped to ``d + 1`` exactly like ``bounded_levenshtein``,
so the distance reported for each entry is *identical* to the per-entry
scan — the property tests in ``tests/test_matcher.py`` assert equality over
random token sets, and the golden-corpus CI guard asserts it end to end.

A compiled bucket is immutable once built; writers invalidate by dropping
the cached instance (see :meth:`PerturbationDictionary.compiled_bucket`, the
one compiled-bucket cache every read path shares).

Two pieces make compiled buckets cheap to share and to persist:

* :class:`TrieFamily` owns the actual trie variants for one token sequence;
  a :class:`CompiledBucket` is a *view* onto a family.  Buckets whose token
  sequences are identical across phonetic levels — every singleton bucket,
  and any bucket whose tokens never split at a deeper level — share one
  family through a :class:`TrieFamilyRegistry`, so the trie is compiled
  once instead of once per level.
* families serialize to flat JSON-compatible node arrays
  (:meth:`TrieFamily.to_payload` / :meth:`TrieFamily.from_payload`), which
  is what the warm-start snapshot subsystem (:mod:`repro.storage.snapshot`)
  persists so process restarts skip recompilation entirely.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from ..analysis.sanitizer import tracked_lock
from .deletes import DeleteIndex
from .dictionary import DictionaryEntry
from .edit_distance import bounded_levenshtein, bounded_osa
from .kernels import myers_trie_match, resolve_kernel

__all__ = ["CompiledBucket", "TrieFamily", "TrieFamilyRegistry"]


class _TrieNode:
    """One character of the compiled trie (build-time representation)."""

    __slots__ = ("children", "items", "terminals", "min_depth", "max_depth")

    def __init__(self) -> None:
        self.children: dict[str, "_TrieNode"] = {}
        # Frozen (char, child) pairs iterated on the match hot path; the
        # children dict is dropped after the freeze.
        self.items: tuple[tuple[str, "_TrieNode"], ...] = ()
        self.terminals: tuple[int, ...] = ()
        self.min_depth = 0
        self.max_depth = 0


def _build_trie(items: Sequence[tuple[int, str]]) -> _TrieNode:
    """Compile ``(entry index, text)`` pairs into a terminal-indexed trie.

    Indexes are carried explicitly (rather than by enumeration) so filtered
    views — the English-only trie below — keep reporting positions in the
    full entry sequence.
    """
    root = _TrieNode()
    for index, text in items:
        node = root
        for char in text:
            child = node.children.get(char)
            if child is None:
                child = _TrieNode()
                node.children[char] = child
            node = child
        node.terminals += (index,)
    _freeze(root)
    return root


def _freeze(root: _TrieNode) -> None:
    """Compute per-subtree terminal depth bounds and freeze child lists.

    Each node's build-time ``children`` dict is deleted once its ``items``
    tuple is built, so a frozen trie holds no dict per node (nothing reads
    ``children`` after the freeze).  Iterative post-order so pathological
    one-character-per-node chains (very long tokens) cannot hit the
    recursion limit.
    """
    order: list[tuple[_TrieNode, int]] = []
    stack: list[tuple[_TrieNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        order.append((node, depth))
        for child in node.children.values():
            stack.append((child, depth + 1))
    for node, depth in reversed(order):
        minimum = depth if node.terminals else None
        maximum = depth if node.terminals else None
        for child in node.children.values():
            minimum = child.min_depth if minimum is None else min(minimum, child.min_depth)
            maximum = child.max_depth if maximum is None else max(maximum, child.max_depth)
        # Every node has a terminal somewhere below it by construction.
        node.min_depth = depth if minimum is None else minimum
        node.max_depth = depth if maximum is None else maximum
        node.items = tuple(node.children.items())
        del node.children


#: Serialized names of the trie variants, keyed by (canonical, english_only).
_VARIANT_NAMES: Dict[Tuple[bool, bool], str] = {
    (False, False): "raw",
    (True, False): "canonical",
    (False, True): "raw_english",
    (True, True): "canonical_english",
}
_VARIANT_KEYS: Dict[str, Tuple[bool, bool]] = {
    name: key for key, name in _VARIANT_NAMES.items()
}


def _trie_to_payload(root: _TrieNode) -> List[list]:
    """Flatten a frozen trie into JSON-serializable node rows.

    Nodes are emitted in breadth-first order (row 0 is the root); each row is
    ``[edge_chars, edge_targets, terminals, min_depth, max_depth]`` with the
    edge characters joined into one string and ``edge_targets`` the matching
    child row indexes (splitting the pair keeps the JSON compact and lets
    hydration zip two C-speed sequences instead of slicing an interleaved
    list).  The format is stable — it is what the snapshot subsystem
    persists — so changes here must bump
    ``repro.storage.snapshot.SNAPSHOT_FORMAT_VERSION``.
    """
    nodes: List[_TrieNode] = [root]
    row_of: Dict[int, int] = {id(root): 0}
    cursor = 0
    while cursor < len(nodes):
        node = nodes[cursor]
        cursor += 1
        for _, child in node.items:
            row_of[id(child)] = len(nodes)
            nodes.append(child)
    payload: List[list] = []
    for node in nodes:
        payload.append(
            [
                "".join(char for char, _ in node.items),
                [row_of[id(child)] for _, child in node.items],
                list(node.terminals),
                node.min_depth,
                node.max_depth,
            ]
        )
    return payload


def _trie_from_payload(
    payload: Sequence[Sequence], terminal_bound: int | None = None
) -> _TrieNode:
    """Rebuild a frozen trie from :func:`_trie_to_payload` rows.

    This is the warm-start fast path: reconstructing nodes from flat rows
    does no per-character insertion and no freeze pass, which is what makes
    snapshot hydration several times cheaper than recompilation.  Nodes are
    allocated raw (``__new__``) with only the four slots the matcher reads —
    the build-time ``children`` dict never exists.  Malformed rows raise
    ``ValueError``/``IndexError``/``TypeError``/``KeyError`` — callers (the
    snapshot loader) treat any of them as corruption.  With
    ``terminal_bound`` every terminal must index a real entry of the bucket
    the trie will serve.
    """
    if not payload:
        return _build_trie([])
    new = _TrieNode.__new__
    built = [new(_TrieNode) for _ in payload]
    getter = built.__getitem__
    node_count = len(payload)
    for node, (edge_chars, edge_targets, terminals, min_depth, max_depth) in zip(
        built, payload
    ):
        if len(edge_chars) != len(edge_targets):
            raise ValueError("trie row edge chars/targets length mismatch")
        node.terminals = tuple(terminals)
        node.min_depth = min_depth
        node.max_depth = max_depth
        node.items = tuple(zip(edge_chars, map(getter, edge_targets)))
    root = built[0]
    # Sanity-check the fields the match loop does arithmetic on or indexes
    # with; a checksum collision or hand-edited file must raise here (and
    # fall back to compilation), never degenerate into wrong matches or an
    # IndexError on the query path.
    for node, row in zip(built, payload):
        if not isinstance(node.min_depth, int) or not isinstance(node.max_depth, int):
            raise ValueError("trie row depth bounds must be integers")
        for index in node.terminals:
            if not isinstance(index, int):
                raise ValueError("trie row terminals must be integers")
            if terminal_bound is not None and not 0 <= index < terminal_bound:
                raise ValueError("trie row terminal out of range for its bucket")
        for target in row[1]:
            # map(getter, ...) above accepted negative indexes (Python
            # wrap-around) — reject them and anything out of range.
            if not isinstance(target, int) or not 0 <= target < node_count:
                raise ValueError("trie row edge target out of range")
    return root


class TrieFamily:
    """The trie variants shared by every bucket with one token sequence.

    The same token sequence produces byte-identical tries regardless of
    which phonetic level's bucket asked for them (the lowered spelling, the
    canonical fold, and the lexicon flag are all functions of the raw
    token), so buckets at different levels hand out views onto one family
    instead of compiling per level.  Variants are built lazily under the
    family lock and cached forever — a family is immutable once its token
    sequence is fixed; writers invalidate by dropping the *bucket* that
    points at it, never by mutating the family.
    """

    __slots__ = (
        "tokens",
        "_tries",
        "_pending",
        "_lock",
        "_builds",
        "_hydrated",
        "_loader",
        "_deletes",
        "_deletes_pending",
        "_deletes_lock",
        "_delete_builds",
        "__weakref__",
    )

    def __init__(self, tokens: Sequence[str]) -> None:
        self.tokens: Tuple[str, ...] = tuple(tokens)
        # Tries keyed by (canonical representation?, English entries only?).
        self._tries: Dict[Tuple[bool, bool], _TrieNode] = {}
        # Serialized rows awaiting decode (snapshot hydration is lazy: the
        # load installs payloads in O(1) and the first query of each variant
        # pays the — cheap, insertion-free — node rebuild).
        self._pending: Dict[Tuple[bool, bool], Sequence[Sequence]] = {}
        self._lock = tracked_lock("matcher.family")
        self._builds = 0
        self._hydrated = 0
        # A memory-mapped v2 snapshot defers even the *parse* of the
        # serialized rows: the loader reads this family's record out of the
        # mapped shard on first use (see storage.snapshot), after which it
        # behaves exactly like `_pending` payload rows.
        self._loader: "Callable[[], Mapping[str, object]] | None" = None
        # SymSpell delete-neighborhood indexes, keyed and built lazily like
        # the trie variants but under their own (leaf) lock so an index
        # build never serializes against trie compilation.
        self._deletes: Dict[Tuple[bool, bool], DeleteIndex] = {}
        self._deletes_pending: Dict[Tuple[bool, bool], Sequence[Sequence]] = {}
        self._deletes_lock = tracked_lock("matcher.deletes")
        self._delete_builds = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrieFamily({len(self.tokens)} tokens, {len(self._tries)} tries)"

    @property
    def tries_built(self) -> int:
        """How many trie variants this family compiled (not counting hydration)."""
        return self._builds

    @property
    def tries_hydrated(self) -> int:
        """How many trie variants were decoded from snapshot payloads."""
        return self._hydrated

    @property
    def deletes_built(self) -> int:
        """How many delete-neighborhood indexes this family built fresh."""
        return self._delete_builds

    def _drain_loader_locked(self) -> None:
        """Pull the mmap'd payload in, once, under :attr:`_lock`.

        A lazily mapped family (v2 snapshot) starts with *no* parked rows —
        only a loader closure reading its record out of the mapped shard.
        The first variant request drains it into the ordinary ``_pending``
        dicts; a loader that fails (unmapped file, torn shard) simply leaves
        them empty and the variants compile fresh, mirroring how corrupt
        eager payloads degrade.
        """
        loader = self._loader
        if loader is None:
            return
        self._loader = None
        try:
            payload = loader()
        except (KeyError, IndexError, TypeError, ValueError, OSError):
            return
        if not isinstance(payload, Mapping):
            return
        tries = payload.get("tries", {})
        if isinstance(tries, Mapping):
            for name, rows in tries.items():
                key = _VARIANT_KEYS.get(str(name))
                if key is not None and isinstance(rows, (list, tuple)):
                    self._pending.setdefault(key, rows)
        deletes = payload.get("deletes", {})
        if isinstance(deletes, Mapping):
            # matcher.deletes ranks above matcher.family, so parking the
            # delete rows under both locks is hierarchy-clean.
            with self._deletes_lock:
                for name, rows in deletes.items():
                    key = _VARIANT_KEYS.get(str(name))
                    if key is not None and isinstance(rows, (list, tuple)):
                        self._deletes_pending.setdefault(key, rows)

    @property
    def compiled_variants(self) -> Tuple[str, ...]:
        """Names of the variants currently materialized or pending (sorted)."""
        with self._lock:
            keys = set(self._tries) | set(self._pending)
            return tuple(sorted(_VARIANT_NAMES[key] for key in keys))

    def trie(
        self,
        canonical: bool,
        english_only: bool,
        entries: Sequence[DictionaryEntry],
    ) -> _TrieNode:
        """Get, decode, or build the requested variant from ``entries``.

        ``entries`` must spell :attr:`tokens` in order — any bucket viewing
        this family satisfies that by construction, so whichever view asks
        first pays the compilation and every later view (same level or not)
        reuses it.  A pending snapshot payload is decoded in preference to
        compiling; a payload that fails to decode (possible only on a
        checksum collision or concurrent file tampering) falls back to a
        fresh compile, never to an error on the query path.
        """
        key = (canonical, english_only)
        trie = self._tries.get(key)
        if trie is None:
            with self._lock:
                trie = self._tries.get(key)
                if trie is None:
                    self._drain_loader_locked()
                    rows = self._pending.pop(key, None)
                    if rows is not None:
                        try:
                            trie = _trie_from_payload(
                                rows, terminal_bound=len(self.tokens)
                            )
                            self._hydrated += 1
                        except (KeyError, IndexError, TypeError, ValueError):
                            trie = None
                    if trie is None:
                        strings = tuple(
                            entry.canonical if canonical else entry.token_lower
                            for entry in entries
                        )
                        trie = _build_trie(
                            [
                                (index, strings[index])
                                for index, entry in enumerate(entries)
                                if not english_only or entry.is_word
                            ]
                        )
                        self._builds += 1
                    self._tries[key] = trie
        return trie

    def delete_index(
        self,
        canonical: bool,
        english_only: bool,
        entries: Sequence[DictionaryEntry],
    ) -> DeleteIndex:
        """Get, decode, or build the requested delete-neighborhood index.

        Mirrors :meth:`trie` exactly — double-checked lazy build, snapshot
        rows preferred over a fresh build, corrupt rows fall back to
        building — but under the separate ``matcher.deletes`` lock so a
        (potentially large) index build never blocks trie compilation.
        """
        key = (canonical, english_only)
        index = self._deletes.get(key)
        if index is None:
            if self._loader is not None:
                with self._lock:
                    self._drain_loader_locked()
            with self._deletes_lock:
                index = self._deletes.get(key)
                if index is None:
                    rows = self._deletes_pending.pop(key, None)
                    if rows is not None:
                        try:
                            index = DeleteIndex.from_rows(
                                rows, index_bound=len(self.tokens)
                            )
                        except (IndexError, TypeError, ValueError):
                            index = None
                    if index is None:
                        strings = tuple(
                            entry.canonical if canonical else entry.token_lower
                            for entry in entries
                        )
                        index = DeleteIndex.build(
                            (position, strings[position])
                            for position, entry in enumerate(entries)
                            if not english_only or entry.is_word
                        )
                        self._delete_builds += 1
                    self._deletes[key] = index
        return index

    def to_payload(self) -> dict:
        """Serialize the token sequence plus every materialized variant.

        Variants still pending from a snapshot load are passed through
        verbatim (re-snapshotting a hydrated system must not lose the tries
        it never happened to query), and a still-lazy mmap loader is drained
        first for the same reason.  Delete-neighborhood indexes ride along
        under an optional ``deletes`` key — omitted when none were built, so
        payload bytes are unchanged for workloads that never select the
        SymSpell kernel.
        """
        with self._lock:
            self._drain_loader_locked()
            tries = {
                _VARIANT_NAMES[key]: list(rows) for key, rows in self._pending.items()
            }
            tries.update(
                {
                    _VARIANT_NAMES[key]: _trie_to_payload(trie)
                    for key, trie in self._tries.items()
                }
            )
            payload = {"tokens": list(self.tokens), "tries": tries}
            with self._deletes_lock:
                deletes = {
                    _VARIANT_NAMES[key]: list(rows)
                    for key, rows in self._deletes_pending.items()
                }
                deletes.update(
                    {
                        _VARIANT_NAMES[key]: index.to_rows()
                        for key, index in self._deletes.items()
                    }
                )
            if deletes:
                payload["deletes"] = deletes
            return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "TrieFamily":
        """Rebuild a family (tokens + serialized tries) from :meth:`to_payload`.

        Decoding is deferred: the payload rows are parked per variant and
        decoded on first use (see :meth:`trie`), so hydrating thousands of
        families is O(families), not O(trie nodes).  Unknown variant names
        are ignored so snapshots written by newer minor revisions stay
        loadable; a structurally foreign payload raises
        (``KeyError``/``TypeError``/``ValueError``), which the snapshot
        loader reports as corruption.

        A payload exposing a callable ``lazy_tries`` attribute (the mmap'd
        v2 shard reader, :class:`repro.storage.snapshot.LazyFamilyPayload`)
        defers further: only the tokens are read now, and the rows stay in
        the mapped file until the first variant request drains the loader —
        that is what makes v2 hydration O(page faults).
        """
        tokens = payload["tokens"]
        if not isinstance(tokens, (list, tuple)):
            raise ValueError("family payload must carry a 'tokens' sequence")
        family = cls(tuple(str(token) for token in tokens))
        lazy = getattr(payload, "lazy_tries", None)
        if callable(lazy):
            family._loader = lazy
            return family
        tries = payload.get("tries", {})
        if not isinstance(tries, Mapping):
            raise ValueError("family payload must carry 'tokens' and a 'tries' mapping")
        for name, rows in tries.items():
            key = _VARIANT_KEYS.get(str(name))
            if key is None:
                continue
            if not isinstance(rows, (list, tuple)):
                raise ValueError(f"trie variant {name!r} must be a list of node rows")
            family._pending[key] = rows
        deletes = payload.get("deletes", {})
        if isinstance(deletes, Mapping):
            for name, rows in deletes.items():
                key = _VARIANT_KEYS.get(str(name))
                if key is not None and isinstance(rows, (list, tuple)):
                    family._deletes_pending[key] = rows
        return family


class TrieFamilyRegistry:
    """Deduplicates trie compilation across buckets sharing one token sequence.

    Families are held weakly: a family stays alive exactly as long as some
    compiled bucket (dictionary LRU, snapshot hydration list) or an
    in-progress save references it, so the registry never pins memory on
    its own.  A save asks for one family at a time and lets it go before
    asking for the next, so saves no longer pin every family either.  The
    counters feed the compiled-cache stats surface — ``views`` counts every
    request for a family (one per compiled bucket, one per family a save
    writes), ``families_created`` how many distinct tries-sets were
    actually compiled or adopted; their difference is the number of
    compilations the level-sharing saved.
    """

    def __init__(self) -> None:
        self._families: "weakref.WeakValueDictionary[Tuple[str, ...], TrieFamily]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = tracked_lock("matcher.registry")
        self._created = 0
        self._views = 0
        self._adopted = 0

    def family_for(self, entries: Sequence[DictionaryEntry]) -> TrieFamily:
        """The shared family for ``entries``' token sequence (created on miss)."""
        key = tuple(entry.token for entry in entries)
        with self._lock:
            self._views += 1
            family = self._families.get(key)
            if family is None:
                family = TrieFamily(key)
                self._families[key] = family
                self._created += 1
            return family

    def adopt(self, family: TrieFamily) -> TrieFamily:
        """Register a hydrated family, preferring an existing live one.

        Snapshot loading rebuilds families from disk; adopting them here
        means later compilations find the pre-built
        tries instead of compiling fresh ones.
        """
        with self._lock:
            existing = self._families.get(family.tokens)
            if existing is not None:
                return existing
            self._families[family.tokens] = family
            self._adopted += 1
            return family

    def stats(self) -> dict[str, int]:
        """Counters for the stats surfaces (views - created - adopted = shares)."""
        with self._lock:
            return {
                "views": self._views,
                "families_created": self._created,
                "families_adopted": self._adopted,
                "families_shared": max(
                    0, self._views - self._created - self._adopted
                ),
                "live_families": len(self._families),
            }


class CompiledBucket(Sequence[DictionaryEntry]):
    """A sound bucket compiled for one-pass edit-distance matching.

    Behaves as an immutable sequence of its :class:`DictionaryEntry` objects
    (in ``tokens_for_key`` order), so every consumer of a plain bucket —
    including the linear fallback path of
    :meth:`~repro.core.lookup.LookupEngine.look_up` — accepts a
    compiled one unchanged.  The raw-spelling and canonical-form tries are
    built lazily on first use (canonical-distance queries are rare) and live
    on the bucket's :class:`TrieFamily` — pass ``family`` (usually obtained
    from a :class:`TrieFamilyRegistry`) to share tries with every other
    bucket spelling the same token sequence; without it the bucket gets a
    private family, preserving the original standalone behavior.
    """

    __slots__ = ("entries", "family")

    def __init__(
        self,
        entries: Sequence[DictionaryEntry],
        family: TrieFamily | None = None,
    ) -> None:
        self.entries: tuple[DictionaryEntry, ...] = tuple(entries)
        self.family: TrieFamily = (
            family
            if family is not None
            else TrieFamily(tuple(entry.token for entry in self.entries))
        )

    @property
    def tokens_lower(self) -> tuple[str, ...]:
        """Lowered raw spellings in bucket order (cached per entry)."""
        return tuple(entry.token_lower for entry in self.entries)

    # ------------------------------------------------------------------ #
    # sequence protocol (drop-in for a plain entry tuple)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index):  # type: ignore[override]
        return self.entries[index]

    def __iter__(self) -> Iterator[DictionaryEntry]:
        return iter(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledBucket({len(self.entries)} entries)"

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def _trie(self, canonical: bool, english_only: bool = False) -> _TrieNode:
        return self.family.trie(canonical, english_only, self.entries)

    # ------------------------------------------------------------------ #
    # matching
    # ------------------------------------------------------------------ #
    def kernel_for(
        self,
        kernel: str,
        query_length: int,
        max_distance: int,
        transpositions: bool = False,
    ) -> str:
        """The concrete kernel :meth:`match` will run for these parameters.

        Query engines call this to attribute the match in the per-kernel
        hit counters; passing the resolved name back into :meth:`match` is
        idempotent (a concrete eligible kernel resolves to itself).
        """
        return resolve_kernel(
            kernel, query_length, max_distance, len(self.entries), transpositions
        )

    def match(
        self,
        query: str,
        max_distance: int,
        canonical: bool = False,
        transpositions: bool = False,
        english_only: bool = False,
        kernel: str = "auto",
    ) -> Dict[int, int]:
        """Distances of every entry within ``max_distance`` of ``query``.

        ``query`` must already be in the compared representation — the
        *lowered* raw spelling for the default mode, the *canonical* folded
        form when ``canonical`` is true (mirroring what
        ``LookupEngine.look_up`` compares).  Returns a mapping
        from entry index (position in :attr:`entries`) to its exact
        distance; entries beyond the bound are absent, exactly as
        ``bounded_levenshtein`` returns ``None`` for them.

        With ``transpositions`` the distance is optimal-string-alignment
        (Damerau): an adjacent swap costs one edit, matching ``bounded_osa``
        cell for cell.  The traversal is still one pass — each DFS frame
        additionally carries its parent's DP row and the character of the
        edge into the node, which is exactly the two-back state the OSA
        transposition case reads.

        With ``english_only`` the traversal runs over a trie holding only
        the bucket's lexicon-word entries (built lazily, cached like the
        other variants).  Normalization discards non-word candidates
        unconditionally, and real sound buckets are dominated by observed
        misspellings — matching the filtered trie does strictly less DP
        work than matching everything and filtering afterwards.  Reported
        indexes still address :attr:`entries`.

        ``kernel`` selects the inner loop (see :mod:`repro.core.kernels`):
        the bit-parallel Myers traversal, the SymSpell delete-neighborhood
        index, or the banded DP rows below.  Every kernel reports the same
        mapping for the same query — the policy only chooses how fast it is
        computed — and ineligible selections degrade to one that can honor
        the query (transpositions and long patterns always run banded).
        """
        if max_distance < 0 or not self.entries:
            return {}
        selected = resolve_kernel(
            kernel, len(query), max_distance, len(self.entries), transpositions
        )
        if selected == "myers":
            return myers_trie_match(
                self._trie(canonical, english_only), query, max_distance
            )
        if selected == "symspell":
            return self._match_symspell(
                query, max_distance, canonical, transpositions, english_only
            )
        n = len(query)
        limit = max_distance + 1
        results: Dict[int, int] = {}
        root = self._trie(canonical, english_only)
        first_row = [col if col <= max_distance else limit for col in range(n + 1)]
        # Frames carry (node, its DP row, its depth, the parent's DP row,
        # the edge character into the node); DFS order is irrelevant to the
        # result set (each terminal's distance depends only on its own
        # root-to-terminal path).  The last two fields are the transposition
        # lookback; the plain-Levenshtein mode never reads them.
        stack: list[tuple[_TrieNode, list[int], int, list[int] | None, str]] = [
            (root, first_row, 0, None, "")
        ]
        while stack:
            node, row, depth, parent_row, edge_char = stack.pop()
            if node.terminals:
                distance = row[n]
                if distance <= max_distance:
                    for index in node.terminals:
                        results[index] = distance
            child_depth = depth + 1
            band_low = child_depth - max_distance
            window_start = 1 if band_low < 1 else band_low
            window_end = child_depth + max_distance
            if window_end > n:
                window_end = n
            for char, child in node.items:
                # Length pre-partition: every terminal below `child` is
                # shorter than len(query) - d or longer than len(query) + d,
                # so no descendant can report a distance — skip the DP.
                if child.min_depth > n + max_distance or child.max_depth < n - max_distance:
                    continue
                new_row = [limit] * (n + 1)
                if band_low <= 0:
                    new_row[0] = child_depth if child_depth <= max_distance else limit
                row_minimum = new_row[0]
                for col in range(window_start, window_end + 1):
                    value = row[col - 1] + (query[col - 1] != char)
                    insertion = new_row[col - 1] + 1
                    if insertion < value:
                        value = insertion
                    deletion = row[col] + 1
                    if deletion < value:
                        value = deletion
                    if (
                        transpositions
                        and parent_row is not None
                        and col > 1
                        and char == query[col - 2]
                        and edge_char == query[col - 1]
                    ):
                        # OSA: token[-1] == query[col-2] and token[-2] ==
                        # query[col-1] — swap the pair for one edit on top
                        # of the grandparent prefix's cost.
                        transposition = parent_row[col - 2] + 1
                        if transposition < value:
                            value = transposition
                    if value < limit:
                        new_row[col] = value
                        if value < row_minimum:
                            row_minimum = value
                # Automaton dead state: no cell of this row is within the
                # bound, so no extension of this prefix ever will be.  Valid
                # under OSA too: a transposition reaching two rows back from
                # a descendant would imply an in-band cell <= bound in this
                # row (OSA cells still dominate |row - col|).
                if row_minimum <= max_distance:
                    stack.append((child, new_row, child_depth, row, char))
        return results

    def _match_symspell(
        self,
        query: str,
        max_distance: int,
        canonical: bool,
        transpositions: bool,
        english_only: bool,
    ) -> Dict[int, int]:
        """Delete-neighborhood candidate generation + exact verification.

        The index (built lazily on the family, like the tries) yields a
        superset of the true match set for ``d <= 2`` under Levenshtein and
        OSA alike; each candidate is then scored with the same bounded
        distance the linear path uses, so the returned mapping is
        byte-identical to the trie traversals'.
        """
        index = self.family.delete_index(canonical, english_only, self.entries)
        candidates = index.candidates(query, max_distance)
        if not candidates:
            return {}
        entries = self.entries
        results: Dict[int, int] = {}
        verify = bounded_osa if transpositions else bounded_levenshtein
        for entry_index in candidates:
            entry = entries[entry_index]
            text = entry.canonical if canonical else entry.token_lower
            distance = verify(query, text, max_distance)
            if distance is not None:
                results[entry_index] = distance
        return results

    def match_tokens(
        self,
        query: str,
        max_distance: int,
        canonical: bool = False,
        transpositions: bool = False,
        english_only: bool = False,
        kernel: str = "auto",
    ) -> Tuple[Tuple[str, int], ...]:
        """``(raw token, distance)`` pairs in bucket order (test/debug view)."""
        distances = self.match(
            query,
            max_distance,
            canonical=canonical,
            transpositions=transpositions,
            english_only=english_only,
            kernel=kernel,
        )
        return tuple(
            (entry.token, distances[index])
            for index, entry in enumerate(self.entries)
            if index in distances
        )
