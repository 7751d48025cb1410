import dataclasses
import errno
import struct

import numpy as np
import pytest

from aukit import cli, dataset, serialize
from aukit.config import HyperParams
from aukit.dataset import SyntheticSpec, default_spec
from aukit.errors import ConfigError, FormatError, IoError

#: Headers whose element count the file cannot hold: 8 * count overflows an
#: index (four dims of 2**32 - 1) or asks for 8 TiB (2**20 x 2**20).
OVERSIZED_DIMS = [[2**32 - 1] * 4, [2**20, 2**20]]


def tensor_header(dims):
    return b"STNT" + bytes((1, 1)) + struct.pack("<I", len(dims)) + b"".join(
        struct.pack("<I", d) for d in dims
    )


def oversized_checkpoint(dims):
    """A 60-byte checkpoint whose one entry claims ``dims``."""
    raw = b"STCK" + bytes((1,)) + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
    raw += tensor_header(dims)
    return raw + b"\0" * (60 - len(raw))


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestTensorContainer:
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4, 5)])
    def test_round_trip_bitwise(self, tmp_path, shape):
        path = tmp_path / "t.stnt"
        original = rand(shape)
        serialize.save_tensor(path, original)
        restored = serialize.load_tensor(path)
        assert restored.shape == original.shape
        assert restored.tobytes() == original.tobytes()

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "t.stnt"
        serialize.save_tensor(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"STNT"
        assert raw[4] == 0x01  # version
        assert raw[5] == 0x01  # dtype f64
        assert raw[6:10] == (2).to_bytes(4, "little")  # ndim
        assert raw[10:14] == (2).to_bytes(4, "little")
        assert raw[14:18] == (3).to_bytes(4, "little")
        assert len(raw) == 18 + 6 * 8

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "t.stnt"
        serialize.save_tensor(path, np.zeros(3))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            serialize.load_tensor(path)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.stnt"
        serialize.save_tensor(path, np.zeros(4))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="end of file"):
            serialize.load_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.stnt"
        serialize.save_tensor(path, np.zeros(2))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            serialize.load_tensor(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            serialize.load_tensor(tmp_path / "absent.stnt")

    @pytest.mark.parametrize("dims", OVERSIZED_DIMS)
    def test_header_count_beyond_file_rejected(self, tmp_path, dims):
        path = tmp_path / "t.stnt"
        header = tensor_header(dims)
        path.write_bytes(header + bytes(16))
        with pytest.raises(FormatError, match=r"payload \(16 of \d+ bytes\)") as err:
            serialize.load_tensor(path)
        assert err.value.offset == len(header)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.stck"
        entries = {
            "backbone.input.kernels": rand((4, 3, 3, 3), seed=1),
            "branch.1.att.bias": rand((1,), seed=2),
            "head.2.fc.weight": rand((1, 16), seed=3),
        }
        serialize.save_checkpoint(path, entries)
        restored = serialize.load_checkpoint(path)
        assert list(restored) == list(entries)
        for name in entries:
            assert restored[name].tobytes() == entries[name].tobytes()

    def test_same_entries_same_bytes(self, tmp_path):
        entries = {"a": rand((3,)), "b": rand((2, 2), seed=7)}
        p1, p2 = tmp_path / "one.stck", tmp_path / "two.stck"
        serialize.save_checkpoint(p1, entries)
        serialize.save_checkpoint(p2, dict(entries))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.stck"
        serialize.save_checkpoint(path, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            serialize.load_checkpoint(path)
        assert err.value.offset == 0

    def test_truncated_entry(self, tmp_path):
        path = tmp_path / "model.stck"
        serialize.save_checkpoint(path, {"w": np.ones(8)})
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(FormatError, match="end of file"):
            serialize.load_checkpoint(path)

    @pytest.mark.parametrize("dims", OVERSIZED_DIMS)
    def test_header_count_beyond_file_rejected(self, tmp_path, dims):
        path = tmp_path / "model.stck"
        path.write_bytes(oversized_checkpoint(dims))
        with pytest.raises(FormatError, match="end of file") as err:
            serialize.load_checkpoint(path)
        assert err.value.offset == 14 + len(tensor_header(dims))

    def test_name_length_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "model.stck"
        path.write_bytes(b"STCK" + bytes((1,)) + struct.pack("<I", 1)
                         + struct.pack("<I", 2**32 - 1) + b"w" * 20)
        with pytest.raises(FormatError, match=r"name of entry 0 \(20 of") as err:
            serialize.load_checkpoint(path)
        assert err.value.offset == 13

    @pytest.mark.parametrize("dims", OVERSIZED_DIMS)
    def test_cli_exits_2_on_oversized_header(self, tmp_path, capsys, dims):
        path = tmp_path / "bad.stck"
        path.write_bytes(oversized_checkpoint(dims))
        frames = tmp_path / "frames.stnt"
        serialize.save_tensor(frames, np.zeros((1, 3, 32, 32)))
        code = cli.main(["infer", "--ckpt", str(path), "--frames", str(frames),
                         "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "end of file" in capsys.readouterr().err

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "model.stck"
        serialize.save_checkpoint(path, {})
        assert serialize.load_checkpoint(path) == {}


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "map.pgm"
        serialize.save_pgm(path, np.array([[0.0, 1.0], [0.5, 0.25]]))
        raw = path.read_bytes()
        header_end = raw.index(b"255\n") + 4
        assert raw[:header_end] == b"P5\n2 2\n255\n"
        assert list(raw[header_end:]) == [0, 255, 128, 64]

    def test_values_clipped(self, tmp_path):
        path = tmp_path / "map.pgm"
        serialize.save_pgm(path, np.array([[-0.5, 1.5]]))
        assert list(path.read_bytes()[-2:]) == [0, 255]


class TestAtomicWrite:
    """A write that fails partway leaves the old file and no temporary file."""

    def test_failed_checkpoint_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.stck"
        serialize.save_checkpoint(path, {"w": np.ones(4)})
        before = path.read_bytes()
        # Entry "a" is written before "b" fails to convert to float64.
        with pytest.raises(ValueError):
            serialize.save_checkpoint(path, {"a": np.zeros(3), "b": "not a number"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.stck"]

    def test_os_error_partway_is_io_error(self, tmp_path, monkeypatch):
        path = tmp_path / "t.stnt"
        serialize.save_tensor(path, np.arange(5.0))
        before = path.read_bytes()

        def disk_full(fp, array):
            fp.write(b"STNT")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(serialize, "write_tensor", disk_full)
        with pytest.raises(IoError, match="No space left"):
            serialize.save_tensor(path, np.zeros(5))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.stnt"]

    def test_failed_text_write_keeps_old_file(self, tmp_path):
        from aukit.training import save_training_log

        path = tmp_path / "log.csv"
        save_training_log(path, [("relation", 3, 9, 0.2, 0.7)])
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_training_log(path, [("attention", 0, 0, 0.1, 0.5), ("short row",)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_new_file_has_default_permissions(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        serialize.save_tensor(tmp_path / "t.stnt", np.zeros(2))
        assert (tmp_path / "t.stnt").stat().st_mode == plain.stat().st_mode

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            serialize.save_checkpoint(tmp_path / "absent" / "model.stck", {})

    @pytest.mark.parametrize("what, write", [
        ("tensor file", lambda path: serialize.save_tensor(path, np.zeros(2))),
        ("checkpoint", lambda path: serialize.save_checkpoint(path, {"w": np.ones(2)})),
        ("PGM file", lambda path: serialize.save_pgm(path, np.zeros((2, 2)))),
        ("labels file", lambda path: dataset.save_labels(path, ["v"], [0], np.ones((1, 1)))),
        ("spec file", lambda path: dataset.save_spec(path, default_spec(m=2))),
    ])
    def test_rename_onto_a_directory_is_io_error_and_leaves_no_temporary_file(
            self, tmp_path, what, write):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IoError, match=f"cannot write {what} {target}: "):
            write(target)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []


class TestReadErrors:
    """An ``OSError`` anywhere in a read, not only at the open, is an ``IoError``."""

    @pytest.mark.parametrize("what, save, load", [
        ("tensor file", lambda path: serialize.save_tensor(path, np.zeros(2)),
         serialize.load_tensor),
        ("checkpoint", lambda path: serialize.save_checkpoint(path, {"w": np.ones(2)}),
         serialize.load_checkpoint),
    ])
    def test_failed_read_partway_is_io_error_naming_the_file(
            self, tmp_path, monkeypatch, what, save, load):
        path = tmp_path / "x"
        save(path)

        def failing(reader):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(serialize, "read_tensor", failing)
        with pytest.raises(IoError, match=f"cannot read {what} {path}: .*Input/output error"):
            load(path)

    def test_directory_under_a_file_is_io_error(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(IoError, match=f"cannot create test directory {tmp_path / 'file'}"):
            serialize.make_dirs(tmp_path / "file" / "sub", "test directory")


@dataclasses.dataclass
class Fields:
    """One field of each annotation the reader knows, as postponed (string) annotations."""
    count: "int"
    rate: "float"
    flag: "bool"
    table: "np.ndarray"
    cells: "IntArray"


class TestJsonObject:
    def test_reads_an_object(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": [1, 2.5], "b": null}')
        assert serialize.load_json_object(path, "test file") == {"a": [1, 2.5], "b": None}

    def test_missing_file_is_io_error_naming_the_path(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(IoError, match=f"cannot read test file {path}"):
            serialize.load_json_object(path, "test file")

    @pytest.mark.parametrize("raw, problem", [
        (b"{", "is not valid JSON"), (b'{"a": "\xff"}', "is not valid JSON"),
        (b"\xff\xfe{}", "is not valid JSON"), (b"[1, 2]", "must hold a JSON object"),
        (b"3", "must hold a JSON object"),
    ])
    def test_bad_content_is_config_error(self, tmp_path, raw, problem):
        path = tmp_path / "x.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=f"test file {path} {problem}"):
            serialize.load_json_object(path, "test file")


class TestReadFields:
    @pytest.mark.parametrize("cls", [HyperParams, SyntheticSpec, Fields])
    def test_every_annotation_has_a_reader(self, cls):
        # A field with an annotation the table lacks would fail only when read.
        assert {f.type for f in dataclasses.fields(cls)} <= set(serialize.FIELD_READERS)

    def test_values_take_their_fields_types(self):
        values = serialize.read_fields(Fields, {
            "count": 3.0, "rate": 2, "flag": False, "table": [[1, 0.5]], "cells": [2.0, -4],
        }, "test")
        assert type(values["count"]) is int and values["count"] == 3
        assert type(values["rate"]) is float and values["rate"] == 2.0
        assert values["flag"] is False
        assert values["table"].dtype == np.float64 and values["table"].tolist() == [[1.0, 0.5]]
        assert values["cells"].dtype == np.int64 and values["cells"].tolist() == [2, -4]

    def test_only_the_given_keys_are_read(self):
        assert serialize.read_fields(Fields, {"rate": 0.5}, "test") == {"rate": 0.5}

    @pytest.mark.parametrize("key, value, problem", [
        ("count", 2.7, "must hold whole numbers, got 2.7"),
        ("count", True, "must hold whole numbers, got True"),
        ("count", "3", "must hold whole numbers, got '3'"),
        ("count", None, "must hold whole numbers, got None"),
        ("count", float("nan"), "must hold whole numbers, got nan"),
        ("count", float("inf"), "must hold whole numbers, got inf"),
        ("rate", "0.1", "must hold numbers, got '0.1'"),
        ("rate", True, "must hold numbers, got True"),
        ("rate", None, "must hold numbers, got None"),
        ("rate", [0.5], "must hold numbers, got \\[0.5\\]"),
        ("flag", 1, "must be true or false, got 1"),
        ("flag", "true", "must be true or false, got 'true'"),
        ("table", [[1, None]], "must hold numbers, got None"),
        ("table", [[1, 2], [3]], "must hold numbers, got \\[1, 2\\]"),
        ("table", [1, False], "must hold numbers, got False"),
        ("cells", [1, 1.5], "must hold whole numbers, got 1.5"),
        ("cells", [[1, "2"]], "must hold whole numbers, got '2'"),
    ])
    def test_wrong_kind_is_config_error_naming_the_key(self, key, value, problem):
        with pytest.raises(ConfigError, match=f"^test: key '{key}': {problem}$"):
            serialize.read_fields(Fields, {key: value}, "test")

    def test_number_beyond_the_field_is_config_error(self):
        with pytest.raises(ConfigError, match="^test: key 'rate': "):
            serialize.read_fields(Fields, {"rate": 10**400}, "test")
        with pytest.raises(ConfigError, match="^test: key 'cells': "):
            serialize.read_fields(Fields, {"cells": [2**70]}, "test")

    def test_unknown_key_is_config_error_naming_it(self):
        with pytest.raises(ConfigError, match="^test: unknown key 'extra'$"):
            serialize.read_fields(Fields, {"rate": 0.5, "extra": 1}, "test")
