"""Match kernels for compiled buckets: policy, bit-parallel Myers DP, counters.

PR 2/3 made Look Up fast by sharing banded DP rows across a bucket trie's
common prefixes (:class:`~repro.core.matcher.CompiledBucket`).  At paper
scale (2M tokens, 400K+ sound keys with heavy skew) the remaining cost is
the *inner loop itself*: a pure-python ``for col in range(...)`` over
``2d + 1`` band cells per trie node.  This module replaces that row with a
Myers/Hyyrö **bit-parallel** step — the whole DP column lives in three
machine-word bitvectors (``VP``/``VN`` plus the running score), and one trie
edge costs a fixed handful of integer operations instead of a Python loop —
for queries up to :data:`MYERS_MAX_PATTERN` characters (one 64-bit word).

Three kernels exist, selected per query by a policy string
(``config.match_kernel``; every query can also override it):

``banded``
    The PR 2/3 trie traversal with banded Wagner-Fischer rows.  The only
    kernel that scores transpositions (OSA), and the fallback for patterns
    longer than one word.
``myers``
    The bit-parallel traversal below.  Plain Levenshtein only; distances
    are *identical* to the banded rows (both report the exact distance for
    every entry within the bound — the property suite in
    ``tests/test_match_kernel.py`` asserts equality against brute force).
``symspell``
    The precomputed delete-neighborhood index (:mod:`repro.core.deletes`),
    eligible at ``d <= 2``.  Candidate generation is hash lookups instead
    of a trie walk; every candidate is verified with the exact bounded
    distance, so results stay byte-identical.
``auto``
    Picks the measured winner per (bucket size, d) — thresholds below come
    from ``benchmarks/bench_match_kernel.py`` (see
    ``benchmarks/results/match_kernel.json``).

``linear`` is not a compiled kernel: it names the non-compiled per-entry
scan path in the shared hit counters (:class:`KernelCounters`), so the
stats surface accounts for every match a query engine performs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

__all__ = [
    "MATCH_KERNELS",
    "KERNEL_NAMES",
    "MYERS_MAX_PATTERN",
    "SYMSPELL_MAX_DISTANCE",
    "AUTO_HUGE_BUCKET",
    "AUTO_SYMSPELL_MIN_BUCKET",
    "build_peq",
    "myers_trie_match",
    "resolve_kernel",
    "KernelCounters",
]

#: Legal values of ``config.match_kernel`` (the selection policy).
MATCH_KERNELS: Tuple[str, ...] = ("auto", "myers", "banded", "symspell")

#: Names that appear in the per-kernel hit counters.  ``linear`` counts the
#: non-compiled fallback path of the query engines.
KERNEL_NAMES: Tuple[str, ...] = ("myers", "banded", "symspell", "linear")

#: Longest pattern (query) the single-word Myers kernel accepts.  One
#: machine word keeps every bitvector operation a single-digit int op in
#: CPython; longer patterns fall back to the banded rows.
MYERS_MAX_PATTERN = 64

#: The delete-neighborhood guarantee (shared variant after <= d deletions
#: on each side) is precomputed to depth 2; larger bounds fall back.
SYMSPELL_MAX_DISTANCE = 2

#: Auto-policy thresholds measured by ``benchmarks/bench_match_kernel.py``
#: (mixed hit/miss workload; see ``benchmarks/results/match_kernel.json``).
#: Below the MIN the trie kernels win (the delete map's hash lookups
#: cannot beat a tiny traversal); between MIN and MAX the SymSpell index
#: wins at d <= 2 (candidate lookup cost does not scale with bucket
#: size).  Above the MAX the token space is so dense that nearly every
#: query-deletion variant collides with entries — candidate sets balloon
#: toward the whole bucket while the banded traversal keeps amortizing DP
#: rows over ever-more-shared prefixes, so banded retakes the lead (at 2M
#: entries it beats both bit-parallel kernels outright).
AUTO_SYMSPELL_MIN_BUCKET = 64
AUTO_HUGE_BUCKET = 200_000


def build_peq(pattern: str) -> Dict[str, int]:
    """Pattern-character bitmask table (``PEQ``) for the Myers recurrence.

    Bit ``i`` of ``peq[c]`` is set when ``pattern[i] == c``.  Any unicode
    character keys the table; characters absent from the pattern read as 0
    through ``dict.get`` on the hot path.
    """
    peq: Dict[str, int] = {}
    for position, char in enumerate(pattern):
        peq[char] = peq.get(char, 0) | (1 << position)
    return peq


def myers_trie_match(root, query: str, max_distance: int) -> Dict[int, int]:
    """Match ``query`` against a frozen trie with bit-parallel DP columns.

    The Hyyrö formulation of Myers' algorithm, with the *trie path* as the
    text: each DFS frame carries the vertical-delta bitvectors ``VP``/``VN``
    and the score ``D[depth][n]`` (edit distance between the full query and
    the path so far), and one trie edge advances all of them in O(1) word
    operations.  Terminals report their score when it is within the bound —
    the score *is* the exact Levenshtein distance of the full strings, so
    the result mapping is identical to the banded traversal's.

    Pruning mirrors the banded kernel's guarantees without materializing a
    row minimum:

    * the **length pre-partition** skips subtrees whose every terminal
      violates ``|len(query) - len(token)| > d`` (same bounds the banded
      walk reads);
    * the **score bound** drops a child when even the deepest terminal
      below it cannot get back inside the bound — the score decreases by
      at most one per consumed character, so
      ``score - (max_depth - depth) > d`` proves every descendant out.

    Both prunes are conservative (they only skip subtrees that cannot
    report), so the result set never changes — only the work.  Patterns
    must satisfy ``1 <= len(query) <= MYERS_MAX_PATTERN``; callers route
    anything else to the banded kernel.
    """
    n = len(query)
    results: Dict[int, int] = {}
    peq = build_peq(query)
    peq_get = peq.get
    full = (1 << n) - 1
    high = 1 << (n - 1)
    # Frames: (node, VP, VN, score, depth).  D[0][j] = j, so the root's
    # column is all-ones vertical-positive with score n.
    stack = [(root, full, 0, n, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, vp, vn, score, depth = pop()
        if node.terminals and score <= max_distance:
            for index in node.terminals:
                results[index] = score
        child_depth = depth + 1
        for char, child in node.items:
            if (
                child.min_depth > n + max_distance
                or child.max_depth < n - max_distance
            ):
                continue
            eq = peq_get(char, 0)
            xv = eq | vn
            xh = (((eq & vp) + vp) ^ vp) | eq
            ph = vn | ~(xh | vp)
            mh = vp & xh
            child_score = score
            if ph & high:
                child_score += 1
            elif mh & high:
                child_score -= 1
            ph = (ph << 1) | 1
            new_vp = (mh << 1) | ~(xv | ph)
            new_vn = ph & xv
            if child_score - (child.max_depth - child_depth) <= max_distance:
                push((child, new_vp & full, new_vn & full, child_score, child_depth))
    return results


def resolve_kernel(
    policy: str,
    query_length: int,
    max_distance: int,
    bucket_size: int,
    transpositions: bool = False,
) -> str:
    """The concrete kernel a compiled-bucket match will run.

    Policies degrade to the nearest eligible kernel instead of raising:
    results must be byte-identical across policies, so an ineligible
    request (a transposition query under ``myers``, ``d > 2`` under
    ``symspell``) silently runs the kernel that *can* honor the query.
    The banded traversal is always eligible.
    """
    myers_ok = not transpositions and 1 <= query_length <= MYERS_MAX_PATTERN
    symspell_ok = 0 <= max_distance <= SYMSPELL_MAX_DISTANCE
    if policy == "banded":
        return "banded"
    if policy == "myers":
        return "myers" if myers_ok else "banded"
    if policy == "symspell":
        if symspell_ok:
            return "symspell"
        return "myers" if myers_ok else "banded"
    if policy != "auto":
        raise ValueError(
            f"unknown match kernel policy {policy!r} (choose from {MATCH_KERNELS})"
        )
    # "auto": the measured winner per (bucket size, distance) — see
    # benchmarks/bench_match_kernel.py for where the thresholds come from.
    if bucket_size > AUTO_HUGE_BUCKET:
        return "banded"
    if symspell_ok and bucket_size >= AUTO_SYMSPELL_MIN_BUCKET:
        return "symspell"
    if myers_ok:
        return "myers"
    return "banded"


class KernelCounters:
    """Per-kernel hit counters (one instance per dictionary).

    Incremented by the query engines on every match they perform —
    compiled kernels by resolved name, the non-compiled per-entry scan as
    ``linear`` — and surfaced through
    ``PerturbationDictionary.stats().compiled_cache["kernels"]`` and
    ``BatchEngine.stats()``.  Callers synchronize externally (the
    dictionary counts under its compiled-cache lock); the object itself is
    a plain counter record.
    """

    __slots__ = tuple(KERNEL_NAMES)

    def __init__(self) -> None:
        for name in KERNEL_NAMES:
            setattr(self, name, 0)

    def note(self, kernel: str, count: int = 1) -> None:
        """Count ``count`` matches served by ``kernel`` (unknown names ignored)."""
        if kernel in KERNEL_NAMES:
            setattr(self, kernel, getattr(self, kernel) + count)

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in KERNEL_NAMES}

    def merge(self, other: "Mapping[str, int] | KernelCounters") -> None:
        """Fold another counter set into this one (stats aggregation)."""
        items = other.to_dict() if isinstance(other, KernelCounters) else other
        for name, value in items.items():
            self.note(name, int(value))

