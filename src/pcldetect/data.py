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

RESERVED_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[UNK]", "<e>", "</e>")
PAD_ID = RESERVED_TOKENS.index("[PAD]")  # `pad_batch` pads with it, `encode_batch` masks it

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

    cls_id = property(lambda self: 1)
    sep_id = property(lambda self: 2)
    unk_id = property(lambda self: 3)

    @classmethod
    def build(cls, texts) -> "Vocabulary":
        """Collect corpus tokens ordered by descending frequency, then spelling."""
        counts: dict[str, int] = {}
        for text in texts:
            for tok in word_tokens(text):
                if tok not in RESERVED_TOKENS:
                    counts[tok] = counts.get(tok, 0) + 1
        body = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(list(RESERVED_TOKENS) + body)


def tokenize(text: str, vocab: Vocabulary, max_len: int = 250) -> list[int]:
    """Wrap with [CLS]/[SEP] and cap the total length at max_len.

    Truncation drops trailing text tokens; the boundary-wrapped terms sit at
    the front of the composed input so they are never cut.
    """
    get, unk = vocab._ids.get, vocab.unk_id
    body = [get(t, unk) for t in word_tokens(text)][: max_len - 2]
    return [vocab.cls_id] + body + [vocab.sep_id]


def pad_batch(sequences) -> np.ndarray:
    """Right-pad id sequences with PAD_ID to the batch maximum."""
    width = max(len(s) for s in sequences)
    out = np.full((len(sequences), width), PAD_ID, dtype=np.intp)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out


@dataclass(frozen=True)
class FoldAssignment:
    """Per-example fold indices for stratified cross-validation."""

    fold_of: np.ndarray

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
    return FoldAssignment(fold_of)


def text_lines(path):
    """Yield (line number, line without its newline); a line not UTF-8 raises ParseError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # an undecodable byte became a lone surrogate
            except UnicodeEncodeError:
                raise ParseError(f"{path}: line {lineno}: not UTF-8 text") from None
            yield lineno, line.rstrip("\n")


def _read_rows(path, expected_cols: int):
    for lineno, line in text_lines(path):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != expected_cols:
            raise ParseError(
                f"{path}: line {lineno}: expected {expected_cols} tab-separated "
                f"columns, got {len(cells)}"
            )
        yield lineno, cells


def load_subtask1_tsv(path) -> list[ParagraphRecord]:
    """Load labeled paragraphs from a headerless file in SUBTASK1_COLUMNS order;
    a par_id may appear on one line only."""
    records, line_of = [], {}
    for lineno, (par_id, art_id, keyword, country, text, label) in _read_rows(
        path, len(SUBTASK1_COLUMNS)
    ):
        first = line_of.setdefault(par_id, lineno)
        if first != lineno:
            raise ParseError(
                f"{path}: line {lineno}: duplicate par_id {par_id!r}, first on line {first}"
            )
        try:
            raw = int(label)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: label {label!r} is not an integer") from None
        try:
            records.append(
                ParagraphRecord(par_id=par_id, art_id=art_id, keyword=keyword,
                                country=country, text=text, raw_label=raw)
            )
        except ParseError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return records


def load_subtask2_labels(path) -> list[ParagraphRecord]:
    """Load category spans and OR-aggregate them into per-paragraph 7-bit vectors.

    The file is headerless, in SUBTASK2_COLUMNS order, one row per
    (paragraph, category); duplicate categories set the same bit once. The
    rows of one par_id must agree on every other column but the category.
    Returns one record per paragraph in first-seen order.
    """
    cat_index = {name: i for i, name in enumerate(CATEGORIES)}
    rows: dict[str, tuple] = {}  # par_id -> (first line, fields, category bits)
    for lineno, (par_id, art_id, text, keyword, country, category) in _read_rows(
        path, len(SUBTASK2_COLUMNS)
    ):
        category = category.strip()
        if category not in cat_index:
            raise ParseError(
                f"{path}: line {lineno}: unknown category {category!r}; "
                f"expected one of {list(CATEGORIES)}"
            )
        fields = dict(par_id=par_id, art_id=art_id, text=text, keyword=keyword, country=country)
        first, seen, bits = rows.setdefault(par_id, (lineno, fields, [0] * NUM_CATEGORIES))
        differ = [name for name in fields if fields[name] != seen[name]]
        if differ:
            raise ParseError(f"{path}: line {lineno}: duplicate par_id {par_id!r} with another "
                             f"{differ[0]}, first on line {first}")
        bits[cat_index[category]] = 1
    return [ParagraphRecord(category_vector=tuple(bits), **fields)
            for _, fields, bits in rows.values()]
