"""Planted-token corpora for end-to-end tests.

Positives carry a marker token that a single-token detector separates
perfectly, so any reasonable training run should approach F1 = 1.0 on a
held-out split; class balance and sizes are configurable. `encode_token` is
the token-id reference that tests compare `pcldetect.data.tokenize` against.
"""

import numpy as np

from pcldetect.data import CATEGORIES, ParagraphRecord

PLANTED = "condescendingly"

FILLERS = [
    "the", "a", "local", "community", "report", "said", "people", "city",
    "support", "new", "program", "help", "families", "group", "plan",
    "effort", "year", "school", "project", "residents", "council", "region",
    "service", "centre", "volunteers", "funding", "public", "national",
    "week", "children", "work", "home", "street", "winter", "food",
]

KEYWORDS = ["homeless", "refugees", "poor-families", "migrant", "women"]
COUNTRIES = ["gb", "us", "ng", "ph", "au"]


def synthetic_binary_records(n=2000, positive_frac=0.10, seed=0, text_len=(8, 20)):
    """Labeled paragraph records; positives contain the planted marker token."""
    rng = np.random.default_rng(seed)
    n_pos = round(n * positive_frac)
    flags = np.zeros(n, dtype=int)
    flags[rng.choice(n, size=n_pos, replace=False)] = 1
    records = []
    for i in range(n):
        length = rng.integers(text_len[0], text_len[1] + 1)
        words = list(rng.choice(FILLERS, size=length))
        if flags[i]:
            words.insert(int(rng.integers(0, len(words) + 1)), PLANTED)
            raw_label = int(rng.choice([2, 3, 4]))
        else:
            raw_label = int(rng.choice([0, 1]))
        records.append(
            ParagraphRecord(
                par_id=f"p{i:05d}",
                art_id=f"a{i:05d}",
                keyword=str(rng.choice(KEYWORDS)),
                country=str(rng.choice(COUNTRIES)),
                text=" ".join(words),
                raw_label=raw_label,
            )
        )
    return records


def write_binary_tsv(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(
                "\t".join((r.par_id, r.art_id, r.keyword, r.country, r.text, str(r.raw_label)))
                + "\n"
            )


def category_marker(c: int) -> str:
    return f"marker{c}trait"


def synthetic_category_records(n=200, seed=0, text_len=(8, 16)):
    """Positive paragraphs with 1-2 planted category markers each."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        length = rng.integers(text_len[0], text_len[1] + 1)
        words = list(rng.choice(FILLERS, size=length))
        cats = sorted(rng.choice(7, size=int(rng.integers(1, 3)), replace=False))
        vector = [0] * 7
        for c in cats:
            vector[c] = 1
            words.insert(int(rng.integers(0, len(words) + 1)), category_marker(c))
        records.append(
            ParagraphRecord(
                par_id=f"q{i:05d}",
                art_id=f"b{i:05d}",
                keyword=str(rng.choice(KEYWORDS)),
                country=str(rng.choice(COUNTRIES)),
                text=" ".join(words),
                category_vector=tuple(vector),
            )
        )
    return records


def write_category_tsv(path, records):
    """One row per (paragraph, category), the span-file layout."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            for c, bit in enumerate(r.category_vector):
                if bit:
                    fh.write(
                        "\t".join(
                            (r.par_id, r.art_id, r.text, r.keyword, r.country, CATEGORIES[c])
                        )
                        + "\n"
                    )


def encode_token(vocab, token: str) -> int:
    """`token`'s position in the vocabulary, or the unknown id."""
    return vocab.tokens.index(token) if token in vocab.tokens else vocab.unk_id
