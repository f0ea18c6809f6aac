import numpy as np
import pytest

from pcldetect.encoder import EncoderConfig, init_arrays, param_shapes, save_checkpoint
from pcldetect.ensemble import write_predictions
from pcldetect.files import atomic_open


def test_atomic_open_replaces_the_file_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "old\n"  # not replaced before the end
    assert path.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_write_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "preds.tsv"
    write_predictions(path, ["a", "b"], [0, 1])
    old = path.read_bytes()
    # the third label cannot be formatted, after two lines were written
    with pytest.raises(ValueError):
        write_predictions(path, ["a", "b", "c"], [1, 0, ("x",)])
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["preds.tsv"]


def test_a_failed_checkpoint_write_leaves_no_file(tmp_path, monkeypatch):
    config = EncoderConfig(vocab_size=8, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=8)
    params = init_arrays(param_shapes(config), np.random.default_rng(0))

    def savez_partly(fh, **arrays):
        fh.write(b"PK partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_partly)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "fold0.npz", config, params)
    assert list(tmp_path.iterdir()) == []
