"""Corpus loading, label mapping, tokenization and stratified k-fold splits.

The artifact's canonical files are UTF-8 TSVs. One file carries paragraphs
with a 0-4 label; a second carries one row per (paragraph, category) span
which are OR-aggregated into 7-bit category vectors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, StratificationError
from .files import atomic_open

RESERVED_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[UNK]", "<e>", "</e>")

CATEGORIES = (
    "Unbalanced power relations",
    "Shallow solution",
    "Presupposition",
    "Authority voice",
    "Metaphor",
    "Compassion",
    "The poorer, the merrier",
)
NUM_CATEGORIES = len(CATEGORIES)

SUBTASK1_COLUMNS = ("par_id", "art_id", "keyword", "country", "text", "label")
SUBTASK2_COLUMNS = ("par_id", "art_id", "text", "keyword", "country", "category")

POSITIVE_RAW_LABELS = frozenset({2, 3, 4})

_TOKEN_RE = re.compile(r"</e>|<e>|\w+|[^\w\s]")


@dataclass(frozen=True)
class ParagraphRecord:
    """One corpus paragraph with its identifiers and labels."""

    par_id: str
    art_id: str
    keyword: str
    country: str
    text: str
    raw_label: int | None = None
    category_vector: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.raw_label is not None and self.raw_label not in range(5):
            raise ParseError(f"label {self.raw_label} out of range 0..4")
        if self.category_vector is not None and len(self.category_vector) != NUM_CATEGORIES:
            raise ParseError(
                f"category vector must have {NUM_CATEGORIES} entries, "
                f"got {len(self.category_vector)}"
            )


def binarize_label(raw_label: int) -> int:
    """Map the 0-4 annotation strength onto contains-PCL: 2, 3, 4 are positive."""
    if raw_label not in range(5):
        raise ParseError(f"label {raw_label} out of range 0..4")
    return 1 if raw_label in POSITIVE_RAW_LABELS else 0


def compose_input(record: ParagraphRecord) -> str:
    """Prefix the paragraph with its boundary-wrapped keyword and country terms."""
    return f"<e> {record.keyword} </e> <e> {record.country} </e> {record.text}"


def word_tokens(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; boundary markers stay whole."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token <-> id map with fixed reserved ids at the front."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ParseError(f"vocabulary must start with the reserved tokens {RESERVED_TOKENS}")
        if len(set(tokens)) != len(tokens):
            raise ParseError("vocabulary contains duplicate tokens")
        self.tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self):
        return len(self.tokens)

    pad_id = property(lambda self: 0)
    cls_id = property(lambda self: 1)
    sep_id = property(lambda self: 2)
    unk_id = property(lambda self: 3)

    @classmethod
    def build(cls, texts, min_count: int = 1) -> "Vocabulary":
        """Collect corpus tokens ordered by descending frequency, then spelling."""
        counts: dict[str, int] = {}
        for text in texts:
            for tok in word_tokens(text):
                if tok not in RESERVED_TOKENS:
                    counts[tok] = counts.get(tok, 0) + 1
        body = sorted(
            (t for t, c in counts.items() if c >= min_count),
            key=lambda t: (-counts[t], t),
        )
        return cls(list(RESERVED_TOKENS) + body)

    def encode_token(self, token: str) -> int:
        return self._ids.get(token, self.unk_id)

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls(fh.read().splitlines())


def tokenize(text: str, vocab: Vocabulary, max_len: int = 250) -> list[int]:
    """Wrap with [CLS]/[SEP] and cap the total length at max_len.

    Truncation drops trailing text tokens; the boundary-wrapped terms sit at
    the front of the composed input so they are never cut.
    """
    body = [vocab.encode_token(t) for t in word_tokens(text)][: max_len - 2]
    return [vocab.cls_id] + body + [vocab.sep_id]


def pad_batch(sequences, pad_id: int = 0) -> np.ndarray:
    """Right-pad id sequences to the batch maximum."""
    width = max(len(s) for s in sequences)
    out = np.full((len(sequences), width), pad_id, dtype=np.intp)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out


@dataclass(frozen=True)
class FoldAssignment:
    """Per-example fold indices for stratified cross-validation."""

    k: int
    fold_of: np.ndarray
    strat_labels: tuple

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train indices, validation indices) for one fold."""
        val = np.flatnonzero(self.fold_of == fold)
        train = np.flatnonzero(self.fold_of != fold)
        return train, val


def stratified_kfold(labels, k: int = 5, seed: int = 0) -> FoldAssignment:
    """Assign folds so per-fold class counts differ by at most one.

    Within each class the examples are shuffled and dealt evenly; classes'
    remainder examples go to the currently smallest folds, which keeps the
    overall fold sizes within one of each other too.
    """
    labels = list(labels)
    if k < 2:
        raise ConfigError("k-fold needs k >= 2 so every fold has a validation split")
    by_class: dict = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    for lab, idx in by_class.items():
        if len(idx) < k:
            raise StratificationError(
                f"class {lab!r} has {len(idx)} examples, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.intp)
    totals = np.zeros(k, dtype=np.intp)
    for lab in sorted(by_class, key=lambda l: (-len(by_class[l]), str(l))):
        idx = np.array(by_class[lab])
        rng.shuffle(idx)
        base, rem = divmod(len(idx), k)
        quota = np.full(k, base, dtype=np.intp)
        # stable argsort: ties broken by lower fold index
        for fold in np.argsort(totals, kind="stable")[:rem]:
            quota[fold] += 1
        start = 0
        for fold in range(k):
            fold_of[idx[start : start + quota[fold]]] = fold
            start += quota[fold]
        totals += quota
    return FoldAssignment(k, fold_of, tuple(labels))


def _read_rows(path, expected_cols: int, has_header: bool):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno == 1 and has_header:
                continue
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != expected_cols:
                raise ParseError(
                    f"{path}: line {lineno}: expected {expected_cols} tab-separated "
                    f"columns, got {len(cells)}"
                )
            yield lineno, cells


def _column_order(columns, default):
    columns = tuple(columns) if columns is not None else default
    if sorted(columns) != sorted(default):
        raise ConfigError(f"columns must be a permutation of {default}")
    return {name: i for i, name in enumerate(columns)}


def load_subtask1_tsv(path, has_header: bool = False, columns=None) -> list[ParagraphRecord]:
    """Load labeled paragraphs: par_id, art_id, keyword, country, text, label."""
    order = _column_order(columns, SUBTASK1_COLUMNS)
    records = []
    for lineno, cells in _read_rows(path, len(order), has_header):
        try:
            raw = int(cells[order["label"]])
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: label {cells[order['label']]!r} is not an integer"
            ) from None
        try:
            records.append(
                ParagraphRecord(
                    par_id=cells[order["par_id"]],
                    art_id=cells[order["art_id"]],
                    keyword=cells[order["keyword"]],
                    country=cells[order["country"]],
                    text=cells[order["text"]],
                    raw_label=raw,
                )
            )
        except ParseError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return records


def load_subtask2_labels(path, has_header: bool = False, columns=None) -> list[ParagraphRecord]:
    """Load category spans and OR-aggregate them into per-paragraph 7-bit vectors.

    One input row per (paragraph, category); duplicate categories set the same
    bit once. Returns one record per paragraph in first-seen order.
    """
    order = _column_order(columns, SUBTASK2_COLUMNS)
    cat_index = {name: i for i, name in enumerate(CATEGORIES)}
    rows: dict[str, dict] = {}
    bits: dict[str, list[int]] = {}
    for lineno, cells in _read_rows(path, len(order), has_header):
        category = cells[order["category"]].strip()
        if category not in cat_index:
            raise ParseError(
                f"{path}: line {lineno}: unknown category {category!r}; "
                f"expected one of {list(CATEGORIES)}"
            )
        par_id = cells[order["par_id"]]
        if par_id not in rows:
            rows[par_id] = {
                "par_id": par_id,
                "art_id": cells[order["art_id"]],
                "keyword": cells[order["keyword"]],
                "country": cells[order["country"]],
                "text": cells[order["text"]],
            }
            bits[par_id] = [0] * NUM_CATEGORIES
        bits[par_id][cat_index[category]] = 1
    return [
        ParagraphRecord(category_vector=tuple(bits[pid]), **fields)
        for pid, fields in rows.items()
    ]
