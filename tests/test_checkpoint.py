import hashlib
import struct

import numpy as np
import pytest

from hyperajscc.checkpoint import load_model, read_checkpoint, save_checkpoint
from hyperajscc.config import load_datasets, parse_run_config
from hyperajscc.errors import CorruptArtifactError
from hyperajscc.metrics import snr_sweep
from hyperajscc.models import build_model

from test_config import GOOD


def make_model():
    cfg = parse_run_config(GOOD)
    return build_model(cfg.model, seed=cfg.train.seed), cfg


def edit_body(path, edit):
    """Apply edit to the bytes before the file digest, then seal them with a fresh digest."""
    body = bytearray(open(path, "rb").read()[:-32])
    edit(body)
    open(path, "wb").write(bytes(body) + hashlib.sha256(body).digest())


def overwrite_omega_map(path, gain, offset):
    """Replace the stored (gain, offset) that follows the config text."""

    def edit(body):
        (cfg_len,) = struct.unpack_from("<I", body, 6)
        struct.pack_into("<dd", body, 10 + cfg_len, gain, offset)

    edit_body(path, edit)


def overwrite_last_value(path, value):
    """Replace the last float32 before the digest, the last value of the last tensor."""
    edit_body(path, lambda body: struct.pack_into("<f", body, len(body) - 4, value))


def as_version_1(path):
    """Rewrite a saved checkpoint in format 1: a digest of the config text after it, none of the file."""
    body = open(path, "rb").read()[:-32]
    (cfg_len,) = struct.unpack_from("<I", body, 6)
    end = 10 + cfg_len
    config_digest = hashlib.sha256(body[10:end]).digest()
    open(path, "wb").write(body[:4] + struct.pack("<H", 1) + body[6:end] + config_digest + body[end:])


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        model, cfg = make_model()
        p1, p2 = str(tmp_path / "a.haj"), str(tmp_path / "b.haj")
        save_checkpoint(p1, model, cfg.text)
        loaded, _ = load_model(p1)
        save_checkpoint(p2, loaded, cfg.text)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_values_survive_at_float32_precision(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        loaded, _ = load_model(path)
        for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(b.data, a.data.astype("<f4").astype(np.float64))

    def test_reload_is_the_model_rounded_to_float32(self, tmp_path):
        # the float32 contract: a model rounded through float32 sweeps
        # bit-equal to its saved-and-reloaded copy
        model, cfg = make_model()
        rng = np.random.default_rng(2)
        for _, t in model.named_parameters():
            t.data = (t.data + rng.normal(0.0, 0.1, t.shape)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        loaded, _ = load_model(path)
        val = load_datasets(cfg)[1]
        grid = (0.0, 7.0, 20.0)
        assert snr_sweep(loaded, val, grid, seeds=(0, 1)).rows == snr_sweep(model, val, grid, seeds=(0, 1)).rows

    def test_config_text_embedded_verbatim(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        text, (gain, offset), tensors = read_checkpoint(path)
        assert text == cfg.text
        assert gain == pytest.approx(0.1) and offset == pytest.approx(-1.0)
        assert len(tensors) == len(model.named_parameters())


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.haj")
        open(path, "wb").write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptArtifactError, match="magic"):
            read_checkpoint(path)

    def test_truncated(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CorruptArtifactError):
            read_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        # sealed with a fresh digest, so the tensor table's end is what refuses it
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        edit_body(path, lambda body: body.extend(b"\x00\x01\x02"))
        with pytest.raises(CorruptArtifactError, match="trailing"):
            read_checkpoint(path)

    @pytest.mark.parametrize("edit", ["append", "flip-tensor-bit", "flip-digest-bit"])
    def test_any_unsealed_edit_breaks_the_file_digest(self, tmp_path, edit):
        # a flipped weight bit used to load silently as a different model
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        blob = bytearray(open(path, "rb").read())
        if edit == "append":
            blob += b"\x00\x01\x02"
        else:
            blob[-32 - 100 if edit == "flip-tensor-bit" else -1] ^= 0x40  # a tensor value, or the digest's last byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptArtifactError, match="digest"):
            read_checkpoint(path)

    def test_version_1_refused(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        as_version_1(path)
        with pytest.raises(CorruptArtifactError, match="unsupported version 1"):
            read_checkpoint(path)

    def test_flipped_config_byte_breaks_digest(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        blob = bytearray(open(path, "rb").read())
        blob[12] ^= 0xFF  # inside the embedded config text
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptArtifactError, match="digest"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused(self, tmp_path, value):
        # a loaded NaN would sweep to nan PSNR rows and exit 0
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        overwrite_last_value(path, value)
        with pytest.raises(CorruptArtifactError, match="non-finite"):
            read_checkpoint(path)

    def test_omega_map_mismatch_refused(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        overwrite_omega_map(path, 7.0, 3.0)
        assert read_checkpoint(path)[1] == (7.0, 3.0)
        with pytest.raises(CorruptArtifactError, match="omega map"):
            load_model(path)

    def test_config_mismatch_refused(self, tmp_path):
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)
        with pytest.raises(CorruptArtifactError):
            load_model(path, expected_config_text=cfg.text + "# changed\n")

    def test_unparsable_embedded_config_is_corrupt(self, tmp_path):
        # the tensors fit GOOD, but the stored text fails validation (2*d != 8)
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, GOOD.replace("bandwidth = 4", "bandwidth = 5"))
        with pytest.raises(CorruptArtifactError, match="embedded config"):
            load_model(path)

    def test_undecodable_embedded_config_is_corrupt(self, tmp_path):
        # the digest matches, but the config bytes are not UTF-8 text
        model, cfg = make_model()
        path = str(tmp_path / "m.haj")
        save_checkpoint(path, model, cfg.text)

        def undecodable(body):
            body[10] = 0xFF  # the first byte of the config text

        edit_body(path, undecodable)
        with pytest.raises(CorruptArtifactError, match="corrupt"):
            read_checkpoint(path)
