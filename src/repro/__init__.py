"""CrypText reproduction: human-written text perturbations in the wild.

This package is a from-scratch reproduction of *CRYPTEXT: Database and
Interactive Toolkit of Human-Written Text Perturbations in the Wild*
(Le, Ye, Hu, Lee — ICDE 2023).  It provides:

* the human-written token database and the customized Soundex encoding it is
  keyed by (:mod:`repro.core`);
* the four interactive functions — Look Up, Normalization, Perturbation and
  Social Listening;
* every substrate the system depends on — JSONL and snapshot persistence
  and a query cache (:mod:`repro.storage`), an n-gram coherency scorer
  (:mod:`repro.lm`), a sentiment analyzer (:mod:`repro.sentiment`), simulated downstream NLP
  APIs (:mod:`repro.classifiers`), a simulated social platform with crawler
  (:mod:`repro.social`), synthetic corpora (:mod:`repro.datasets`), a
  token-authorized service layer (:mod:`repro.api`) and visualization data
  exports (:mod:`repro.viz`);
* the machine-generated perturbation baselines the paper contrasts with
  (:mod:`repro.adversarial`).

Quickstart::

    from repro import CrypText
    from repro.datasets import build_social_corpus

    corpus = build_social_corpus(num_posts=500, seed=7)
    cryptext = CrypText.from_corpus([post.text for post in corpus])
    print(cryptext.look_up("democrats").tokens)
    print(cryptext.perturb("the democrats and republicans debate", ratio=0.5).perturbed_text)
    print(cryptext.normalize("the demokrats support the vacc1ne mandate").normalized_text)
"""

from .config import CrypTextConfig, DEFAULT_CONFIG
from .errors import CrypTextError
from .core import (
    CompiledBucket,
    CrypText,
    CustomSoundex,
    AddOutcome,
    DictionaryEntry,
    DictionaryStats,
    RecoveryReport,
    SnapshotLoadReport,
    SnapshotSaveReport,
    TrieFamily,
    TrieFamilyRegistry,
    LookupEngine,
    LookupResult,
    NormalizationResult,
    Normalizer,
    OriginalSoundex,
    PerturbationCategory,
    PerturbationDictionary,
    PerturbationMatch,
    PerturbationOutcome,
    Perturber,
    SMSCheck,
    SMSResult,
    bounded_levenshtein,
    categorize_perturbation,
    damerau_levenshtein_distance,
    levenshtein_distance,
    similarity_ratio,
    soundex_key,
)
from .batch import BatchEngine

__version__ = "1.1.0"

__all__ = [
    "BatchEngine",
    "CrypTextConfig",
    "DEFAULT_CONFIG",
    "CrypTextError",
    "CrypText",
    "CompiledBucket",
    "TrieFamily",
    "TrieFamilyRegistry",
    "RecoveryReport",
    "SnapshotLoadReport",
    "SnapshotSaveReport",
    "CustomSoundex",
    "OriginalSoundex",
    "soundex_key",
    "AddOutcome",
    "DictionaryEntry",
    "DictionaryStats",
    "PerturbationDictionary",
    "LookupEngine",
    "LookupResult",
    "PerturbationMatch",
    "Normalizer",
    "NormalizationResult",
    "Perturber",
    "PerturbationOutcome",
    "PerturbationCategory",
    "categorize_perturbation",
    "SMSCheck",
    "SMSResult",
    "levenshtein_distance",
    "bounded_levenshtein",
    "damerau_levenshtein_distance",
    "similarity_ratio",
    "__version__",
]
