"""The CrypText facade: one object exposing the paper's four functions.

:class:`CrypText` wires together the token database, the Look Up engine, the
Normalization function, the Perturbation function, and (optionally) a trained
coherency scorer, behind the compact API that the examples, the service
layer, and the benchmarks use::

    cryptext = CrypText.from_corpus(sentences)
    cryptext.look_up("democrats")            # §III-B
    cryptext.normalize("the demokRATs ...")  # §III-C
    cryptext.perturb("the democrats ...", ratio=0.25)  # §III-D

Social Listening (§III-E) lives in :mod:`repro.social.listening` because it
needs a platform to listen to; :meth:`CrypText.social_listener` constructs
one bound to this instance's dictionary.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, TYPE_CHECKING

from ..config import CrypTextConfig, DEFAULT_CONFIG
from ..lm import CoherencyScorer
from ..obs.registry import OBS
from ..storage import DocumentStore
from ..text.tokenizer import Tokenizer
from ..text.wordlist import EnglishLexicon, default_lexicon
from .dictionary import DictionaryStats, PerturbationDictionary
from .lookup import LookupEngine, LookupResult
from .normalizer import NormalizationResult, Normalizer
from .perturber import PerturbationOutcome, Perturber

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..batch import BatchEngine
    from ..social.listening import SocialListener
    from ..social.platform import SocialPlatform


class CrypText:
    """End-to-end CrypText system over an in-process database.

    Most callers should use the :meth:`from_corpus` factory, which builds the
    dictionary, trains the coherency scorer, and seeds the English lexicon in
    one call.  The plain constructor accepts pre-built components for
    advanced composition (e.g. sharing one document store across systems).
    """

    def __init__(
        self,
        dictionary: PerturbationDictionary,
        config: CrypTextConfig = DEFAULT_CONFIG,
        scorer: CoherencyScorer | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self.dictionary = dictionary
        self.scorer = scorer
        self.lookup_engine = LookupEngine(dictionary, config=config)
        #: The lookup engine's query cache (``None`` when caching is off).
        self.cache = self.lookup_engine.cache
        self.normalizer = Normalizer(dictionary, scorer=scorer, config=config)
        self.perturber = Perturber(self.lookup_engine, config=config, rng=rng)
        self._batch_engine: "BatchEngine | None" = None
        self._maintenance = None
        if config.obs_enabled:
            # Arm the process-global registry exactly like CRYPTEXT_OBS=1
            # would; the config carries the slow-query threshold with it.
            OBS.arm(slow_query_ms=config.slow_query_ms)

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    @classmethod
    def from_corpus(
        cls,
        texts: Sequence[str],
        config: CrypTextConfig = DEFAULT_CONFIG,
        lexicon: EnglishLexicon | None = None,
        store: DocumentStore | None = None,
        source: str = "corpus",
        seed_lexicon: bool = True,
        train_scorer: bool = True,
    ) -> "CrypText":
        """Build a complete CrypText system from an iterable of sentences.

        Parameters
        ----------
        texts:
            Source corpus (e.g. the synthetic social posts from
            :mod:`repro.datasets`, or any list of raw strings).
        config:
            Hyper-parameters; defaults mirror the paper (``k=1, d=3``).
        lexicon:
            English lexicon; the bundled one is used when omitted.
        store:
            Optional shared document store.
        source:
            Source label recorded on every dictionary entry.
        seed_lexicon:
            Also insert every lexicon word into the dictionary so Look Up
            buckets always contain the canonical spelling.
        train_scorer:
            Train the n-gram coherency scorer on the same corpus (needed for
            context-aware normalization ranking).
        """
        lexicon = lexicon if lexicon is not None else default_lexicon()
        dictionary = PerturbationDictionary(store=store, config=config, lexicon=lexicon)
        dictionary.add_corpus(texts, source=source)
        if seed_lexicon:
            dictionary.seed_lexicon()
        scorer: CoherencyScorer | None = None
        if train_scorer:
            tokenizer = Tokenizer(lowercase=True)
            tokenized = [
                [token.text for token in tokenizer.word_tokens(text)] for text in texts
            ]
            tokenized = [sentence for sentence in tokenized if sentence]
            if tokenized:
                scorer = CoherencyScorer(order=config.lm_order)
                scorer.fit(tokenized)
        return cls(
            dictionary=dictionary,
            config=config,
            scorer=scorer,
            rng=random.Random(config.seed),
        )

    @classmethod
    def empty(
        cls,
        config: CrypTextConfig = DEFAULT_CONFIG,
        lexicon: EnglishLexicon | None = None,
        seed_lexicon: bool = True,
    ) -> "CrypText":
        """A system with no observed corpus (lexicon-only dictionary).

        Useful as the starting point for crawler-driven enrichment
        (:mod:`repro.social.crawler`), mirroring how the deployed system
        "constantly learn[s] new perturbations from social platforms".
        """
        lexicon = lexicon if lexicon is not None else default_lexicon()
        dictionary = PerturbationDictionary(config=config, lexicon=lexicon)
        if seed_lexicon:
            dictionary.seed_lexicon()
        return cls(dictionary=dictionary, config=config, rng=random.Random(config.seed))

    # ------------------------------------------------------------------ #
    # the four paper functions
    # ------------------------------------------------------------------ #
    def look_up(
        self,
        query: str,
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> LookupResult:
        """Look Up (§III-B): the perturbations ``P_query`` in the database.

        ``use_transpositions`` overrides the configured distance policy for
        this query only (``True`` = adjacent swaps cost one edit).
        """
        if OBS.armed:
            with OBS.span("lookup"):
                return self.lookup_engine.look_up(
                    query,
                    phonetic_level=phonetic_level,
                    max_edit_distance=max_edit_distance,
                    case_sensitive=case_sensitive,
                    use_transpositions=use_transpositions,
                )
        return self.lookup_engine.look_up(
            query,
            phonetic_level=phonetic_level,
            max_edit_distance=max_edit_distance,
            case_sensitive=case_sensitive,
            use_transpositions=use_transpositions,
        )

    def normalize(self, text: str) -> NormalizationResult:
        """Normalization (§III-C): detect and de-perturb ``text``."""
        if OBS.armed:
            with OBS.span("normalize"):
                return self.normalizer.normalize(text)
        return self.normalizer.normalize(text)

    def perturb(
        self,
        text: str,
        ratio: float | None = None,
        case_sensitive: bool | None = None,
    ) -> PerturbationOutcome:
        """Perturbation (§III-D): manipulate ``text`` at ratio ``ratio``."""
        return self.perturber.perturb(text, ratio=ratio, case_sensitive=case_sensitive)

    def social_listener(self, platform: "SocialPlatform") -> "SocialListener":
        """Social Listening (§III-E): a listener bound to this dictionary.

        The listener expands whole watch-lists through this instance's batch
        engine, so repeated keywords across a watch-list are resolved once.
        """
        from ..social.listening import SocialListener

        return SocialListener(
            platform=platform, lookup=self.lookup_engine, batch_engine=self.batch
        )

    # ------------------------------------------------------------------ #
    # batch & streaming
    # ------------------------------------------------------------------ #
    @property
    def batch(self) -> "BatchEngine":
        """The batch throughput engine bound to this system (lazily built).

        Shares this instance's query cache and compiled buckets, so batch
        and per-call traffic keep each other warm.
        """
        if self._batch_engine is None:
            self._batch_engine = self.make_batch_engine()
        return self._batch_engine

    def make_batch_engine(
        self,
        chunk_size: int = 256,
        max_in_flight: int = 4,
    ) -> "BatchEngine":
        """Build a batch engine over this system with custom stream knobs.

        The returned engine becomes the one :attr:`batch` exposes.
        """
        from ..batch import BatchEngine

        self._batch_engine = BatchEngine(
            self.dictionary,
            lookup_engine=self.lookup_engine,
            config=self.config,
            scorer=self.scorer,
            perturber=self.perturber,
            chunk_size=chunk_size,
            max_in_flight=max_in_flight,
        )
        if self._maintenance is not None:
            self._batch_engine.attach_maintenance(self._maintenance)
        return self._batch_engine

    def look_up_batch(
        self,
        queries: Sequence[str],
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> list[LookupResult]:
        """Batch Look Up: one result per query, input order preserved.

        Identical to calling :meth:`look_up` once per query, but duplicate
        queries and sound buckets are resolved once.
        ``use_transpositions`` overrides the distance policy for the batch.
        """
        return self.batch.look_up_batch(
            queries,
            phonetic_level=phonetic_level,
            max_edit_distance=max_edit_distance,
            case_sensitive=case_sensitive,
            use_transpositions=use_transpositions,
        )

    def normalize_batch(self, texts: Sequence[str]) -> list[NormalizationResult]:
        """Batch Normalization: one result per document, input order preserved.

        Identical to calling :meth:`normalize` once per document, with
        per-token candidate retrieval memoized across the batch.
        """
        return self.batch.normalize_batch(texts)

    def perturb_batch(
        self,
        texts: Sequence[str],
        ratio: float | None = None,
        case_sensitive: bool | None = None,
    ) -> list[PerturbationOutcome]:
        """Batch Perturbation: one outcome per document, input order preserved."""
        return self.batch.perturb_batch(texts, ratio=ratio, case_sensitive=case_sensitive)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def learn_from(self, texts: Iterable[str], source: str = "stream") -> int:
        """Enrich the dictionary with newly observed texts (crawler path).

        Invalidation is sound-scoped and runs through the dictionary's
        observers: only cached queries and memoized tokens whose sound
        buckets actually changed are dropped; unrelated cached queries
        survive the enrichment.
        """
        return self.dictionary.learn_batch(texts, source=source)

    def stats(self) -> DictionaryStats:
        """Dictionary statistics (token counts, unique phonetic sounds)."""
        return self.dictionary.stats()

    # ------------------------------------------------------------------ #
    # warm-start snapshots & durability
    # ------------------------------------------------------------------ #
    def save_snapshot(
        self,
        path=None,
        levels: Sequence[int] | None = None,
        incremental: bool = False,
        shards: "int | None" = None,
    ):
        """Persist the dictionary plus compiled tries for warm restarts.

        Delegates to
        :meth:`~repro.core.dictionary.PerturbationDictionary.save_snapshot`;
        ``path`` defaults to ``config.snapshot_dir``.  ``incremental``
        writes a delta covering only the buckets changed since the last
        save instead of rewriting the whole snapshot; ``shards`` overrides
        ``config.snapshot_shards`` (> 0 writes the v2 sharded layout).
        """
        return self.dictionary.save_snapshot(
            path, levels=levels, incremental=incremental, shards=shards
        )

    def recover(self, snapshot_dir=None, wal_dir=None, strict: bool = False):
        """Crash recovery: hydrate base + deltas, then replay the WAL tail.

        Delegates to
        :meth:`~repro.core.dictionary.PerturbationDictionary.recover`, whose
        state replacement tells every cache owner to clear, so nothing
        computed against the pre-recovery state survives.  The change log
        stays attached: subsequent writes keep journaling.
        """
        return self.dictionary.recover(snapshot_dir, wal_dir=wal_dir, strict=strict)

    def make_maintenance_scheduler(
        self,
        snapshot_dir=None,
        wal_dir=None,
        policy=None,
    ):
        """Build (and remember) a :class:`~repro.wal.maintenance.MaintenanceScheduler`.

        ``snapshot_dir`` defaults to ``config.snapshot_dir``; when
        ``wal_dir`` (default ``config.wal_dir``, else ``<snapshot_dir>/wal``)
        is resolvable, a change log is opened there and attached to the
        dictionary so every write is journaled between saves.  The returned
        scheduler is also attached to the batch engine (existing or built
        later), whose streaming loops tick it between chunks.
        """
        from ..wal.maintenance import MaintenanceScheduler

        scheduler = MaintenanceScheduler(
            self.dictionary,
            snapshot_dir=snapshot_dir,
            wal_dir=wal_dir,
            policy=policy,
        )
        self._maintenance = scheduler
        if self._batch_engine is not None:
            self._batch_engine.attach_maintenance(scheduler)
        return scheduler

    @property
    def maintenance(self):
        """The maintenance scheduler built by :meth:`make_maintenance_scheduler`."""
        return self._maintenance

    def load_snapshot(self, path=None, strict: bool = False):
        """Hydrate the dictionary and its compiled buckets from a snapshot.

        On success every cache owner (query cache, batch memo) is told to
        clear, so no stale pre-load result survives, and the compiled-bucket
        cache that every read path shares is pre-seeded from the snapshot.
        On failure (corrupt file, version or fingerprint mismatch) the
        system keeps its current state and the report's ``reason`` says
        why — unless ``strict``, which raises.
        """
        return self.dictionary.load_snapshot(path, strict=strict)
