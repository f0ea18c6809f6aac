import numpy as np
import pytest

from pcldetect.data import (
    CATEGORIES,
    PAD_ID,
    RESERVED_TOKENS,
    ParagraphRecord,
    Vocabulary,
    binarize_label,
    compose_input,
    load_subtask1_tsv,
    load_subtask2_labels,
    pad_batch,
    stratified_kfold,
    tokenize,
    word_tokens,
)
from pcldetect.errors import ConfigError, ParseError, StratificationError

from synthcorpus import encode_token


def make_record(**kw):
    defaults = dict(par_id="p1", art_id="a1", keyword="homeless",
                    country="gb", text="He helped.", raw_label=2)
    defaults.update(kw)
    return ParagraphRecord(**defaults)


# --- label mapping ---------------------------------------------------------

def test_binarize_positive_labels():
    assert binarize_label(2) == 1
    assert binarize_label(3) == 1
    assert binarize_label(4) == 1


def test_binarize_negative_labels():
    assert binarize_label(0) == 0
    assert binarize_label(1) == 0


def test_binarize_rejects_out_of_range():
    for bad in (-1, 5, 17):
        with pytest.raises(ParseError):
            binarize_label(bad)


def test_record_validates_label_and_vector():
    with pytest.raises(ParseError):
        make_record(raw_label=9)
    with pytest.raises(ParseError):
        make_record(category_vector=(1, 0))


# --- input composition and tokenization ------------------------------------

def test_compose_input_template():
    rec = make_record()
    assert compose_input(rec) == "<e> homeless </e> <e> gb </e> He helped."


def test_compose_input_keeps_boundaries_for_empty_fields():
    rec = make_record(keyword="")
    assert compose_input(rec) == "<e>  </e> <e> gb </e> He helped."


def test_compose_input_injective_on_distinct_fields():
    triples = [
        ("homeless", "gb", "He helped."),
        ("homeless", "us", "He helped."),
        ("refugees", "gb", "He helped."),
        ("homeless", "gb", "She helped."),
        ("", "gb", "He helped."),
    ]
    composed = {
        compose_input(make_record(keyword=k, country=c, text=t)) for k, c, t in triples
    }
    assert len(composed) == len(triples)


def test_composed_string_uses_reserved_ids():
    rec = make_record()
    vocab = Vocabulary.build([compose_input(rec)])
    ids = tokenize(compose_input(rec), vocab)
    assert ids.count(4) == 2  # <e>
    assert ids.count(5) == 2  # </e>
    assert ids[0] == vocab.cls_id and ids[-1] == vocab.sep_id


def test_word_tokens_lowercase_and_split():
    assert word_tokens("He helped, truly.") == ["he", "helped", ",", "truly", "."]
    assert word_tokens("<e> X </e>") == ["<e>", "x", "</e>"]


def test_tokenize_empty_text():
    vocab = Vocabulary.build(["some words"])
    assert tokenize("", vocab) == [vocab.cls_id, vocab.sep_id]


def test_tokenize_hard_cap():
    vocab = Vocabulary.build(["w"])
    ids = tokenize("w " * 500, vocab, max_len=250)
    assert len(ids) == 250
    assert ids[0] == vocab.cls_id and ids[-1] == vocab.sep_id


def test_tokenize_round_trip():
    text = "<e> homeless </e> <e> gb </e> He helped, truly."
    vocab = Vocabulary.build([text])
    ids = tokenize(text, vocab)
    assert [vocab.tokens[i] for i in ids[1:-1]] == word_tokens(text)


def test_unknown_token_maps_to_unk():
    vocab = Vocabulary.build(["known words"])
    ids = tokenize("unknown", vocab)
    assert ids == [vocab.cls_id, vocab.unk_id, vocab.sep_id]


def test_tokenize_ids_are_encode_token_ids():
    vocab = Vocabulary.build(["<e> café </e> naïve Zürich words, more words"])
    text = "<e> Café </e> naïve zürich unseen ñandú words 東京 , ."
    ids = tokenize(text, vocab)
    assert ids[1:-1] == [encode_token(vocab, t) for t in word_tokens(text)]
    assert vocab.unk_id in ids  # "unseen", "ñandú" and "東京" are not in the vocabulary
    assert encode_token(vocab, "naïve") in ids and encode_token(vocab, "zürich") in ids


def test_vocab_rejects_missing_reserved_prefix():
    with pytest.raises(ParseError):
        Vocabulary(["a", "b", "c"])


def test_pad_batch():
    out = pad_batch([[1, 2, 3], [1, 2]])
    assert np.array_equal(out, [[1, 2, 3], [1, 2, PAD_ID]])
    assert RESERVED_TOKENS[PAD_ID] == "[PAD]"


# --- stratified folds -------------------------------------------------------

def test_kfold_corpus_scale_positive_balance():
    labels = [1] * 993 + [0] * (10469 - 993)
    folds = stratified_kfold(labels, k=5, seed=0)
    for fold in range(5):
        _, val = folds.split(fold)
        positives = sum(labels[i] for i in val)
        assert positives in (198, 199)
        assert val.size in (2093, 2094)


def test_kfold_partitions_exactly():
    labels = [0, 1] * 20
    folds = stratified_kfold(labels, k=4, seed=3)
    all_val = np.concatenate([folds.split(f)[1] for f in range(4)])
    assert sorted(all_val.tolist()) == list(range(40))
    for f in range(4):
        train, val = folds.split(f)
        assert np.intersect1d(train, val).size == 0
        assert train.size + val.size == 40


def test_kfold_rejects_k1():
    with pytest.raises(ConfigError):
        stratified_kfold([0, 1] * 5, k=1)


def test_kfold_rejects_tiny_class():
    with pytest.raises(StratificationError):
        stratified_kfold([0] * 50 + [1] * 3, k=5)


def test_kfold_seed_sensitivity_and_balance():
    labels = [1] * 40 + [0] * 163
    a = stratified_kfold(labels, k=5, seed=1)
    b = stratified_kfold(labels, k=5, seed=2)
    assert not np.array_equal(a.fold_of, b.fold_of)
    for assignment in (a, b):
        sizes = np.bincount(assignment.fold_of, minlength=5)
        assert sizes.max() - sizes.min() <= 1
        pos_counts = np.bincount(
            assignment.fold_of[np.array(labels) == 1], minlength=5
        )
        assert pos_counts.max() - pos_counts.min() <= 1


def test_kfold_deterministic_given_seed():
    labels = [0, 1, 2] * 10
    a = stratified_kfold(labels, k=3, seed=9)
    b = stratified_kfold(labels, k=3, seed=9)
    assert np.array_equal(a.fold_of, b.fold_of)


# --- file loading ------------------------------------------------------------

def write_tsv(path, rows):
    path.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")


def test_load_subtask1(tmp_path):
    path = tmp_path / "train.tsv"
    write_tsv(path, [
        ("p1", "a1", "homeless", "gb", "He helped.", "2"),
        ("p2", "a2", "refugees", "us", "Just text.", "0"),
    ])
    records = load_subtask1_tsv(path)
    assert len(records) == 2
    assert records[0].keyword == "homeless"
    assert records[0].raw_label == 2
    assert records[1].raw_label == 0


def test_load_subtask1_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    write_tsv(path, [("p1", "a1", "kw", "gb", "text", "2"), ("p2", "a2", "kw", "gb", "text")])
    with pytest.raises(ParseError, match="line 2"):
        load_subtask1_tsv(path)
    write_tsv(path, [("p1", "a1", "kw", "gb", "text", "seven")])
    with pytest.raises(ParseError, match="line 1"):
        load_subtask1_tsv(path)
    write_tsv(path, [("p1", "a1", "kw", "gb", "text", "9")])
    with pytest.raises(ParseError, match="line 1"):
        load_subtask1_tsv(path)


def test_load_subtask1_refuses_a_repeated_par_id_naming_both_lines(tmp_path):
    path = tmp_path / "train.tsv"
    write_tsv(path, [("p1", "a1", "kw", "gb", "text", "2"), ("p2", "a2", "kw", "gb", "more", "0"),
                     ("p1", "a3", "kw", "us", "other text", "0")])
    with pytest.raises(ParseError, match="line 3: duplicate par_id 'p1', first on line 1"):
        load_subtask1_tsv(path)


def test_load_subtask1_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    assert load_subtask1_tsv(path) == []


def test_load_subtask2_or_aggregation(tmp_path):
    path = tmp_path / "cats.tsv"
    write_tsv(path, [
        ("p1", "a1", "text one", "kw", "gb", "Unbalanced power relations"),
        ("p1", "a1", "text one", "kw", "gb", "Compassion"),
        ("p2", "a2", "text two", "kw", "us", "Metaphor"),
    ])
    records = load_subtask2_labels(path)
    assert [r.par_id for r in records] == ["p1", "p2"]
    assert records[0].category_vector == (1, 0, 0, 0, 0, 1, 0)
    assert records[1].category_vector == (0, 0, 0, 0, 1, 0, 0)


def test_load_subtask2_duplicate_rows_idempotent(tmp_path):
    path = tmp_path / "cats.tsv"
    write_tsv(path, [
        ("p1", "a1", "text", "kw", "gb", "Shallow solution"),
        ("p1", "a1", "text", "kw", "gb", "Shallow solution"),
    ])
    (record,) = load_subtask2_labels(path)
    assert record.category_vector == (0, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("column", ["art_id", "text", "keyword", "country"])
def test_load_subtask2_refuses_a_par_id_whose_rows_disagree_naming_both_lines(tmp_path, column):
    path = tmp_path / "cats.tsv"
    first = dict(par_id="p1", art_id="a1", text="text", keyword="kw", country="gb")
    other = {**first, column: "something else"}
    write_tsv(path, [
        (*first.values(), "Shallow solution"),
        ("p2", "a2", "more", "kw", "us", "Metaphor"),
        (*other.values(), "Compassion"),
    ])
    with pytest.raises(ParseError, match=f"line 3: duplicate par_id 'p1' with another {column}, "
                                         "first on line 1"):
        load_subtask2_labels(path)


def test_load_subtask2_unknown_category(tmp_path):
    path = tmp_path / "cats.tsv"
    write_tsv(path, [("p1", "a1", "text", "kw", "gb", "Generosity")])
    with pytest.raises(ParseError, match="line 1"):
        load_subtask2_labels(path)


def test_categories_cover_expected_names():
    assert len(CATEGORIES) == 7
    assert CATEGORIES[0] == "Unbalanced power relations"
    assert CATEGORIES[-1] == "The poorer, the merrier"
