"""Synthetic corpus and dataset builders.

Three builders cover everything the experiments need:

* :func:`build_social_corpus` — social-media-style posts with timestamps,
  platform, topic, sentiment and toxicity annotations, a share of which carry
  human-written perturbations of their sensitive keywords (more often so in
  negative / toxic posts, matching the paper's observation that perturbed
  content skews controversial);
* :func:`build_classification_dataset` — clean labelled ``(texts, labels)``
  pairs for training the simulated NLP APIs (toxicity, sentiment, topic);
* :func:`build_perturbation_pairs` — labelled ``(original, perturbed,
  strategy)`` tuples used as ground truth by the ``(k, d)`` and Soundex
  ablation benchmarks.

All builders are deterministic given their ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Sequence

from ..errors import DatasetError
from ..text.wordlist import EnglishLexicon, default_lexicon
from .seeds import (
    HUMAN_STRATEGIES,
    HumanPerturbationGenerator,
    SENTENCE_TEMPLATES,
    Template,
    available_topics,
)

#: Keywords the corpus treats as "sensitive": these are the words posts get
#: perturbed on and the words the keyword-enrichment experiment queries.
SENSITIVE_KEYWORDS: tuple[str, ...] = (
    "democrats",
    "republicans",
    "vaccine",
    "booster",
    "suicide",
    "depression",
    "muslim",
    "chinese",
    "politicians",
    "mandate",
    # "amazon" is the Figure 1 showcase query; brand names are frequently
    # perturbed to dodge brand-monitoring filters.
    "amazon",
    # Abusive vocabulary is censored/perturbed heavily in the wild to evade
    # moderation — the paper's core observation about toxic content.
    "worthless",
    "pathetic",
    "disgusting",
    "stupid",
    "idiot",
    "idiots",
    "moron",
    "scum",
    "trash",
    "racist",
    "racists",
    "terrorist",
    "terrorists",
    "criminals",
    "liars",
    "hate",
    "kill",
    "terrible",
    "horrible",
)

#: The paper's Nov. 2021 Twitter-search window anchors the synthetic timeline.
CORPUS_START_DATE = date(2021, 11, 1)

#: Probability that a post carries perturbations, by (sentiment, toxic).
#: Negative / toxic content is perturbed far more often — users censor
#: sensitive wording and dodge moderation exactly there (paper §I, §III-B).
_PERTURBATION_RATES: dict[tuple[str, bool], float] = {
    ("negative", True): 0.85,
    ("negative", False): 0.65,
    ("neutral", False): 0.15,
    ("neutral", True): 0.45,
    ("positive", False): 0.08,
    ("positive", True): 0.30,
}


@dataclass(frozen=True)
class SyntheticPost:
    """One synthetic social post with full annotations."""

    post_id: int
    platform: str
    author: str
    created_at: str
    topic: str
    sentiment: str
    toxic: bool
    clean_text: str
    text: str
    perturbed_pairs: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def has_perturbation(self) -> bool:
        """Whether the published text differs from the clean text."""
        return bool(self.perturbed_pairs)

    def to_document(self) -> dict[str, object]:
        """Serialize to the post record the simulated platform stores."""
        return {
            "post_id": self.post_id,
            "platform": self.platform,
            "author": self.author,
            "created_at": self.created_at,
            "topic": self.topic,
            "sentiment": self.sentiment,
            "toxic": self.toxic,
            "clean_text": self.clean_text,
            "text": self.text,
            "perturbed_pairs": [list(pair) for pair in self.perturbed_pairs],
        }


def _fill_template(template: Template, rng: random.Random, lexicon: EnglishLexicon) -> str:
    """Instantiate a template's slots from the lexicon groups."""
    text = template.text
    if "{keyword}" in text:
        keyword = rng.choice(template.keywords) if template.keywords else rng.choice(
            SENSITIVE_KEYWORDS
        )
        text = text.replace("{keyword}", keyword)
    for group in ("politics", "health", "abuse", "identity", "common"):
        slot = "{" + group + "}"
        while slot in text:
            text = text.replace(slot, rng.choice(lexicon.sample_space(group)), 1)
    return text


def _perturb_first_vocabulary() -> frozenset[str]:
    """Words users censor first: the sensitive keywords plus abusive vocabulary.

    The paper observes that perturbations cluster on exactly these words —
    controversial keywords (to dodge topical filters) and abusive terms (to
    dodge moderation).
    """
    return frozenset(SENSITIVE_KEYWORDS) | default_lexicon().group("abuse")


def _perturb_post_text(
    text: str,
    rng: random.Random,
    generator: HumanPerturbationGenerator,
    max_perturbed_tokens: int = 3,
) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Perturb the sensitive keywords of a post text."""
    words = text.split(" ")
    perturb_first = _perturb_first_vocabulary()
    keyword_positions = [
        index
        for index, word in enumerate(words)
        if word.lower().strip(".,!?") in perturb_first
    ]
    long_word_positions = [
        index
        for index, word in enumerate(words)
        if index not in keyword_positions and len(word) >= 8
    ]
    if not keyword_positions and not long_word_positions:
        long_word_positions = [
            index for index, word in enumerate(words) if len(word) >= 5
        ]
    if not keyword_positions and not long_word_positions:
        return text, ()
    how_many = min(
        len(keyword_positions) + len(long_word_positions),
        rng.randint(1, max_perturbed_tokens),
    )
    # Users censor the *sensitive* word first ("vacc1ne", "dem0crats"); other
    # long words are only perturbed once every keyword occurrence is.
    chosen = keyword_positions[:how_many]
    remaining = how_many - len(chosen)
    if remaining > 0 and long_word_positions:
        chosen = chosen + rng.sample(
            long_word_positions, min(remaining, len(long_word_positions))
        )
    pairs: list[tuple[str, str]] = []
    for index in chosen:
        original = words[index]
        perturbed, strategy = generator.apply(original)
        if strategy == "none" or perturbed == original:
            continue
        words[index] = perturbed
        pairs.append((original, perturbed))
    return " ".join(words), tuple(pairs)


def build_social_corpus(
    num_posts: int = 1000,
    seed: int = 20230116,
    platforms: Sequence[str] = ("twitter", "reddit"),
    topics: Sequence[str] | None = None,
    num_days: int = 30,
    num_authors: int = 200,
    lexicon: EnglishLexicon | None = None,
) -> list[SyntheticPost]:
    """Generate a synthetic social corpus.

    Parameters
    ----------
    num_posts:
        Number of posts to generate.
    seed:
        RNG seed (the corpus is fully determined by its arguments).
    platforms:
        Platform names to spread posts across (weighted towards the first,
        mirroring the Twitter-heavy crawl of the original system).
    topics:
        Restrict to these topics (default: every bundled topic).
    num_days:
        Length of the timeline starting at :data:`CORPUS_START_DATE`.
    num_authors:
        Size of the synthetic author pool.
    lexicon:
        Lexicon supplying slot-filler vocabulary.
    """
    if num_posts < 1:
        raise DatasetError(f"num_posts must be >= 1, got {num_posts}")
    if num_days < 1:
        raise DatasetError(f"num_days must be >= 1, got {num_days}")
    if not platforms:
        raise DatasetError("at least one platform name is required")
    selected_topics = tuple(topics) if topics is not None else available_topics()
    unknown = set(selected_topics) - set(available_topics())
    if unknown:
        raise DatasetError(f"unknown topics: {sorted(unknown)}")
    lexicon = lexicon if lexicon is not None else default_lexicon()
    rng = random.Random(seed)
    generator = HumanPerturbationGenerator(rng=rng)
    templates = [
        template for template in SENTENCE_TEMPLATES if template.topic in selected_topics
    ]
    posts: list[SyntheticPost] = []
    for post_id in range(1, num_posts + 1):
        template = rng.choice(templates)
        clean_text = _fill_template(template, rng, lexicon)
        rate = _PERTURBATION_RATES.get((template.sentiment, template.toxic), 0.2)
        if rng.random() < rate:
            text, pairs = _perturb_post_text(clean_text, rng, generator)
        else:
            text, pairs = clean_text, ()
        platform = platforms[0] if rng.random() < 0.7 or len(platforms) == 1 else rng.choice(
            platforms[1:]
        )
        day = rng.randrange(num_days)
        created_at = (CORPUS_START_DATE + timedelta(days=day)).isoformat()
        posts.append(
            SyntheticPost(
                post_id=post_id,
                platform=platform,
                author=f"user_{rng.randrange(num_authors):04d}",
                created_at=created_at,
                topic=template.topic,
                sentiment=template.sentiment,
                toxic=template.toxic,
                clean_text=clean_text,
                text=text,
                perturbed_pairs=pairs,
            )
        )
    return posts


def corpus_texts(posts: Sequence[SyntheticPost], clean: bool = False) -> list[str]:
    """Extract the (clean or published) texts from a corpus."""
    return [post.clean_text if clean else post.text for post in posts]


def build_classification_dataset(
    kind: str,
    num_samples: int = 600,
    seed: int = 7,
    lexicon: EnglishLexicon | None = None,
) -> tuple[list[str], list[str]]:
    """Clean labelled data for the simulated NLP APIs.

    ``kind`` selects the labelling:

    * ``"toxicity"`` — labels ``toxic`` / ``nontoxic``;
    * ``"sentiment"`` — labels ``negative`` / ``neutral`` / ``positive``;
    * ``"topic"`` — the template topic (politics, health, abuse, technology).

    The texts are *clean* (no perturbations): the simulated APIs must mirror
    commercial models trained on well-formed English.
    """
    if kind not in ("toxicity", "sentiment", "topic"):
        raise DatasetError(f"unknown dataset kind: {kind!r}")
    if num_samples < 1:
        raise DatasetError(f"num_samples must be >= 1, got {num_samples}")
    lexicon = lexicon if lexicon is not None else default_lexicon()
    rng = random.Random(seed)
    texts: list[str] = []
    labels: list[str] = []
    templates = list(SENTENCE_TEMPLATES)
    for _ in range(num_samples):
        template = rng.choice(templates)
        text = _fill_template(template, rng, lexicon)
        texts.append(text)
        if kind == "toxicity":
            labels.append("toxic" if template.toxic else "nontoxic")
        elif kind == "sentiment":
            labels.append(template.sentiment)
        else:
            labels.append(template.topic)
    return texts, labels


#: Frames and slot vocabularies for the Figure-4 robustness datasets.  Every
#: frame is shared across classes, so the class signal is concentrated in the
#: slot word — the same situation commercial moderation models face, where a
#: single obscured keyword is the difference between "toxic" and "fine".
_ROBUSTNESS_FRAMES: tuple[str, ...] = (
    "you are a truly {slot} person and everyone here knows it",
    "honestly that was the most {slot} comment i have read all week",
    "my neighbor is a {slot} human being and the whole street agrees",
    "these people online are {slot} and should be treated accordingly",
    "what a {slot} thing to post on a monday morning",
    "the replies under that video are full of {slot} takes",
    "imagine writing something so {slot} and hitting send anyway",
    "her latest post was absolutely {slot} according to the comments",
)

_TOPIC_FRAMES: tuple[str, ...] = (
    "everyone keeps arguing about the {slot} again this week",
    "my feed is completely full of posts about the {slot} today",
    "the news covered the {slot} story all morning long",
    "another long thread about the {slot} is trending right now",
    "people will not stop talking about the {slot} situation",
)

_ROBUSTNESS_SLOTS: dict[str, dict[str, tuple[str, ...]]] = {
    "toxicity": {
        "toxic": (
            "worthless", "pathetic", "disgusting", "stupid", "idiot", "moron",
            "scum", "trash", "racist", "terrorist", "criminal", "vermin",
        ),
        "nontoxic": (
            "wonderful", "brilliant", "generous", "thoughtful", "talented",
            "champion", "hero", "friend", "kind", "lovely", "supportive",
            "inspiring",
        ),
    },
    "sentiment": {
        "negative": (
            "terrible", "horrible", "disgusting", "pathetic", "garbage",
            "worthless", "hateful", "vile", "trash", "toxic",
        ),
        "positive": (
            "wonderful", "amazing", "fantastic", "excellent", "beautiful",
            "brilliant", "perfect", "delightful", "inspiring", "lovely",
        ),
        "neutral": (
            "ordinary", "routine", "scheduled", "standard", "typical",
            "regular", "expected", "unremarkable",
        ),
    },
    "topic": {
        "politics": (
            "democrats", "republicans", "senate", "election", "politicians",
            "congress", "ballot",
        ),
        "health": (
            "vaccine", "booster", "mandate", "pandemic", "hospital",
            "doctors", "quarantine",
        ),
        "technology": (
            "amazon", "google", "youtube", "algorithm", "smartphone",
            "internet", "software",
        ),
    },
}


def build_robustness_dataset(
    kind: str,
    num_samples: int = 500,
    seed: int = 7,
) -> tuple[list[str], list[str]]:
    """Keyword-centred labelled data for the Figure-4 robustness sweep.

    Unlike :func:`build_classification_dataset` (whose template texts carry
    class evidence in many tokens), these texts put the class-deciding word
    in a single slot of a class-agnostic frame.  That mirrors the situation
    the paper probes with Perspective and the Google NLP APIs: hide the one
    sensitive keyword behind a human-written perturbation and the clean-text
    model loses its evidence.
    """
    if kind not in _ROBUSTNESS_SLOTS:
        raise DatasetError(
            f"unknown robustness dataset kind: {kind!r} "
            f"(expected one of {sorted(_ROBUSTNESS_SLOTS)})"
        )
    if num_samples < 1:
        raise DatasetError(f"num_samples must be >= 1, got {num_samples}")
    rng = random.Random(seed)
    frames = _TOPIC_FRAMES if kind == "topic" else _ROBUSTNESS_FRAMES
    slot_table = _ROBUSTNESS_SLOTS[kind]
    labels_cycle = sorted(slot_table)
    texts: list[str] = []
    labels: list[str] = []
    for index in range(num_samples):
        label = labels_cycle[index % len(labels_cycle)]
        frame = rng.choice(frames)
        slot = rng.choice(slot_table[label])
        texts.append(frame.replace("{slot}", slot))
        labels.append(label)
    order = list(range(num_samples))
    rng.shuffle(order)
    return [texts[i] for i in order], [labels[i] for i in order]


def build_perturbation_pairs(
    num_pairs: int = 300,
    seed: int = 11,
    words: Sequence[str] | None = None,
    strategies: Sequence[str] | None = None,
) -> list[tuple[str, str, str]]:
    """Ground-truth ``(original, perturbed, strategy)`` tuples.

    Used by the ablation benchmarks to measure lookup recall (does Look Up
    retrieve the perturbed form when queried with the original?) and
    normalization accuracy (is the perturbed form corrected back?).
    """
    if num_pairs < 1:
        raise DatasetError(f"num_pairs must be >= 1, got {num_pairs}")
    chosen_strategies = tuple(strategies) if strategies is not None else HUMAN_STRATEGIES
    unknown = set(chosen_strategies) - set(HUMAN_STRATEGIES)
    if unknown:
        raise DatasetError(f"unknown strategies: {sorted(unknown)}")
    rng = random.Random(seed)
    generator = HumanPerturbationGenerator(rng=rng)
    vocabulary = (
        tuple(words)
        if words is not None
        else tuple(sorted(set(SENSITIVE_KEYWORDS) | set(default_lexicon().group("politics"))
                         | set(default_lexicon().group("health"))))
    )
    vocabulary = tuple(word for word in vocabulary if len(word) >= 4)
    if not vocabulary:
        raise DatasetError("no usable words for perturbation pairs")
    pairs: list[tuple[str, str, str]] = []
    while len(pairs) < num_pairs:
        word = rng.choice(vocabulary)
        strategy = rng.choice(chosen_strategies)
        perturbed, used = generator.apply(word, strategy=strategy)
        if used == "none" or perturbed == word:
            continue
        pairs.append((word, perturbed, used))
    return pairs
