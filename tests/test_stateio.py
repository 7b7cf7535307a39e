import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from qcmi import stateio
from qcmi.errors import ConfigError, NotFiniteError, ParseError, ValidationError
from qcmi.harness import ScanConfig, scan
from qcmi.sampling import random_markov_spec, random_tripartite, substream
from qcmi.states import markov_state
from qcmi.stateio import (
    fmt17,
    read_markov_spec,
    read_state,
    write_markov_spec,
    write_state,
)


class TestStateRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        st = random_tripartite((2, 3, 2), substream(60, 0))
        path = tmp_path / "state.json"
        write_state(st, path)
        back = read_state(path)
        assert back.dims == st.dims
        np.testing.assert_allclose(back.mat, st.mat, atol=1e-15)

    def test_file_is_plain_json(self, tmp_path):
        st = random_tripartite((2, 2, 2), substream(60, 1))
        path = tmp_path / "state.json"
        write_state(st, path)
        doc = json.loads(path.read_text())
        assert doc["dims"] == [2, 2, 2]
        assert len(doc["matrix"]) == 8
        assert len(doc["matrix"][0][0]) == 2  # [re, im] pairs

    def test_writer_emits_17_significant_digits(self, tmp_path):
        st = random_tripartite((2, 2, 2), substream(60, 2))
        path = tmp_path / "state.json"
        write_state(st, path)
        value = json.loads(path.read_text())["matrix"][0][0][0]
        assert value == float(fmt17(st.mat[0, 0].real))

    def test_rejects_bad_dims_product(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2, 2], "matrix": ' + json.dumps(
            [[[0.25, 0.0]] * 4 for _ in range(4)]) + "}")
        with pytest.raises(ValidationError):
            read_state(path)

    def test_rejects_non_psd(self, tmp_path):
        mat = np.diag([1.5, -0.5]).astype(complex)
        rows = [[[mat[i, j].real, mat[i, j].imag] for j in range(2)] for i in range(2)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [1, 2, 1], "matrix": rows}))
        with pytest.raises(ValidationError):
            read_state(path)

    @pytest.mark.parametrize("dims", [[True, True, 2], [1, 1, False], [1.0, 1, 2]])
    def test_rejects_dims_that_are_not_integers(self, dims, tmp_path):
        # JSON true would otherwise be read as the integer 1.
        path = tmp_path / "bad.json"
        rows = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        path.write_text(json.dumps({"dims": dims, "matrix": rows}))
        with pytest.raises(ValidationError, match=r"^dims: expected three positive integers$"):
            read_state(path)

    def test_rejects_bool_matrix_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        rows = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, False]]]
        path.write_text(json.dumps({"dims": [1, 1, 2], "matrix": rows}))
        with pytest.raises(ValidationError, match=r"^matrix: entry \(1,1\) is not an \[re,im\] pair$"):
            read_state(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_entries(self, value, tmp_path):
        # Python's json reads NaN and Infinity as floats.
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dims": [1, 1, 2], "matrix": [[[0.5, 0], [0, 0]], [[%s, 0], [0.5, 0]]]}' % value
        )
        with pytest.raises(NotFiniteError) as exc:
            read_state(path)
        assert str(exc.value) == f"matrix entry (1, 0) is ({float(value)!r}+0j)"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "top level: expected a JSON object"),
            ({"dims": [1, 1, 1], "matrix": []}, "matrix: expected a nonempty list of rows"),
            (
                {"dims": [1, 1, 2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0]]]},
                "matrix: row 1 does not have 2 entries",
            ),
        ],
        ids=["list", "empty-matrix", "ragged-row"],
    )
    def test_rejects_a_malformed_document(self, doc, message, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_state(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2, 2')
        with pytest.raises(ParseError):
            read_state(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_state(tmp_path / "nope.json")


class TestMarkovSpecRoundTrip:
    def test_write_then_read(self, tmp_path):
        spec = random_markov_spec((2, 4, 2), substream(61, 0))
        path = tmp_path / "spec.json"
        write_markov_spec(spec, path)
        back = read_markov_spec(path)
        assert back.dims == spec.dims
        assert len(back.blocks) == len(spec.blocks)
        for ours, theirs in zip(spec.blocks, back.blocks):
            assert theirs.weight == pytest.approx(ours.weight, abs=1e-15)
            assert (theirs.d_left, theirs.d_right) == (ours.d_left, ours.d_right)
            np.testing.assert_allclose(theirs.rho_al.mat, ours.rho_al.mat, atol=1e-15)
            np.testing.assert_allclose(theirs.rho_rc.mat, ours.rho_rc.mat, atol=1e-15)

    def test_round_trip_preserves_assembled_state(self, tmp_path):
        spec = random_markov_spec((2, 3, 2), substream(61, 1))
        path = tmp_path / "spec.json"
        write_markov_spec(spec, path)
        direct = markov_state(spec)
        loaded = markov_state(read_markov_spec(path))
        np.testing.assert_allclose(loaded.mat, direct.mat, atol=1e-14)

    def test_schema_field_names(self, tmp_path):
        spec = random_markov_spec((2, 2, 2), substream(61, 2))
        path = tmp_path / "spec.json"
        write_markov_spec(spec, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dA", "dC", "blocks"}
        assert set(doc["blocks"][0]) == {"p", "dL", "dR", "rho_AL", "rho_RC"}

    def test_rejects_missing_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"dA": 2, "blocks": []}')
        with pytest.raises(ValidationError):
            read_markov_spec(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dA", True, "dA: expected a positive integer"),
            ("dC", False, "dC: expected a positive integer"),
            ("dL", True, "blocks[0].dL: expected a positive integer"),
            ("dR", True, "blocks[0].dR: expected a positive integer"),
            ("p", True, "blocks[0].p: expected a number"),
        ],
    )
    def test_rejects_bools(self, field, value, message, tmp_path):
        # JSON true and false would otherwise be read as 1 and 0.
        spec = random_markov_spec((1, 1, 1), substream(61, 3))
        path = tmp_path / "spec.json"
        write_markov_spec(spec, path)
        doc = json.loads(path.read_text())
        target = doc if field in ("dA", "dC") else doc["blocks"][0]
        target[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_markov_spec(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "top level: expected a JSON object"),
            (lambda doc: {**doc, "blocks": []}, "blocks: expected a nonempty list"),
            (lambda doc: {**doc, "blocks": [1]}, "blocks[0]: expected an object"),
            (
                lambda doc: {**doc, "blocks": [{**doc["blocks"][0], "rho_AL": [[[2.0, 0.0]]]}]},
                "blocks[0].rho_AL: trace is 2.0, expected 1 within 1e-10",
            ),
        ],
        ids=["list", "no-blocks", "number-block", "not-a-density-factor"],
    )
    def test_rejects_a_malformed_spec(self, edit, message, tmp_path):
        spec = random_markov_spec((1, 1, 1), substream(61, 3))
        path = tmp_path / "spec.json"
        write_markov_spec(spec, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_markov_spec(path)

    def test_rejects_a_non_finite_weight(self, tmp_path):
        spec = random_markov_spec((1, 1, 1), substream(61, 3))
        path = tmp_path / "spec.json"
        write_markov_spec(spec, path)
        doc = json.loads(path.read_text())
        doc["blocks"][0]["p"] = math.nan
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"^block weights entry 0 is nan$"):
            read_markov_spec(path)


class TestIntegerPaths:
    """open() takes an integer as a file descriptor, which it would use and
    then close. A path that is an integer is rejected before any open."""

    @pytest.fixture
    def fd(self, tmp_path):
        # A live descriptor of a file that already holds a state, opened
        # for reading and writing at offset 0.
        path = tmp_path / "held.json"
        write_state(random_tripartite((1, 1, 2), substream(62, 0)), path)
        fd = os.open(path, os.O_RDWR)
        yield fd, path, path.read_bytes()
        try:
            os.close(fd)
        except OSError:
            pass

    @staticmethod
    def _untouched(fd, path, held):
        os.fstat(fd)  # still open: raises OSError once closed
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
        assert path.read_bytes() == held

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_write_state_rejects_a_descriptor(self, fd, kind):
        st = random_tripartite((1, 1, 2), substream(62, 1))
        with pytest.raises(ConfigError, match="^cannot write "):
            write_state(st, kind(fd[0]))
        self._untouched(*fd)

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_read_state_rejects_a_descriptor(self, fd, kind):
        with pytest.raises(ParseError, match="^cannot read "):
            read_state(kind(fd[0]))
        self._untouched(*fd)

    def test_read_markov_spec_rejects_a_descriptor(self, fd):
        with pytest.raises(ParseError, match="^cannot read "):
            read_markov_spec(fd[0])
        self._untouched(*fd)

    def test_scan_report_rejects_a_descriptor(self, fd):
        with pytest.raises(ConfigError, match="^cannot write "):
            scan(ScanConfig(dims=(1, 1, 2), samples=1, out=fd[0]))
        self._untouched(*fd)

    @pytest.mark.parametrize("path", [False, True])
    def test_bools_are_not_stdin_or_stdout(self, path, monkeypatch):
        # False and True are descriptors 0 and 1; a stand-in for open()
        # records any attempt to use them.
        opened = []
        monkeypatch.setattr(stateio, "open", lambda *a, **k: opened.append(a), raising=False)
        monkeypatch.setattr(stateio.os, "open", lambda *a, **k: opened.append(a))
        st = random_tripartite((1, 1, 2), substream(62, 2))
        with pytest.raises(ConfigError, match="^cannot write "):
            write_state(st, path)
        with pytest.raises(ConfigError, match="^cannot write "):
            scan(ScanConfig(dims=(1, 1, 2), samples=1, out=path))
        with pytest.raises(ParseError, match="^cannot read "):
            read_state(path)
        assert opened == []
        os.fstat(int(path))


NOT_PATHS = [None, ["p"], 2.5, 3 + 0j, {"path": "p"}]


class TestNonPathArguments:
    """A path is a string, bytes or a path object. Anything else is rejected
    with the integer paths' message before any open, rather than reaching
    open() and its TypeError."""

    MESSAGE = ": a path must be a string or a path object$"

    @pytest.mark.parametrize("path", NOT_PATHS, ids=repr)
    def test_writing_rejects_it(self, path):
        st = random_tripartite((1, 1, 2), substream(63, 0))
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(repr(path))}{self.MESSAGE}"):
            write_state(st, path)
        with pytest.raises(ConfigError, match=self.MESSAGE):
            write_markov_spec(random_markov_spec((1, 1, 1), substream(63, 1)), path)

    @pytest.mark.parametrize("path", NOT_PATHS, ids=repr)
    def test_reading_rejects_it(self, path):
        with pytest.raises(ParseError, match=f"^cannot read {re.escape(repr(path))}{self.MESSAGE}"):
            read_state(path)
        with pytest.raises(ParseError, match=self.MESSAGE):
            read_markov_spec(path)

    @pytest.mark.parametrize("kind", ["str", "bytes", "path object"])
    def test_strings_bytes_and_path_objects_are_paths(self, kind, tmp_path):
        path = tmp_path / "state.json"
        given = {"str": str(path), "bytes": os.fsencode(path), "path object": path}[kind]
        st = random_tripartite((1, 1, 2), substream(63, 2))
        write_state(st, given)
        assert read_state(given).mat.tobytes() == st.mat.tobytes()


class TestWriter:
    """The one text writer rewrites a file in place and cuts it at the end
    of the new text; devices and pipes are written and not cut."""

    TEXT = "sample_index,cmi\n0,0.69314718055994529\n1,-0\n"

    def test_a_shorter_rewrite_leaves_no_stale_bytes(self, tmp_path):
        path = tmp_path / "report.csv"
        stateio._write_text(path, self.TEXT * 40)
        stateio._write_text(path, self.TEXT)
        assert path.read_bytes() == self.TEXT.encode()
        stateio._write_text(path, "")
        assert path.read_bytes() == b""

    def test_a_rewrite_is_byte_identical_to_a_fresh_write(self, tmp_path):
        fresh = tmp_path / "fresh.csv"
        stateio._write_text(fresh, self.TEXT)
        for before in ("", "x" * 7, "y" * 4000, self.TEXT[::-1]):
            path = tmp_path / "old.csv"
            path.write_text(before)
            inode = os.stat(path).st_ino
            stateio._write_text(path, self.TEXT)
            assert path.read_bytes() == fresh.read_bytes()
            assert os.stat(path).st_ino == inode  # the same file, not a replacement

    def test_a_scan_rewrites_its_report_as_a_fresh_one(self, tmp_path):
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=64, out=str(tmp_path / "a.csv"))
        longer = dataclasses.replace(cfg, samples=9)
        scan(longer)
        scan(cfg)
        scan(dataclasses.replace(cfg, out=str(tmp_path / "b.csv")))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_dev_null_is_a_target(self):
        stateio._write_text(os.devnull, self.TEXT)
        scan(ScanConfig(dims=(2, 2, 2), samples=2, seed=64, out=os.devnull))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_fifo_is_a_target(self, tmp_path):
        # The reader is opened first, without blocking, so the writer's open
        # returns at once; the text fits in the pipe's buffer.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            stateio._write_text(fifo, self.TEXT)
            assert os.read(reader, 1 << 16) == self.TEXT.encode()
        finally:
            os.close(reader)

    def test_a_new_file_gets_the_umask_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            stateio._write_text(tmp_path / "new.csv", self.TEXT)
            with open(tmp_path / "by-open.csv", "w") as fh:
                fh.write(self.TEXT)
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "new.csv").st_mode & 0o777
        assert mode == 0o640 == os.stat(tmp_path / "by-open.csv").st_mode & 0o777

    def test_a_directory_raises_the_error_of_open(self, tmp_path):
        # The message a truncating open() gave, with the path.
        with pytest.raises(OSError) as opened:
            open(tmp_path, "w")
        want = f"cannot write {tmp_path}: {opened.value}"
        assert "Is a directory" in want
        with pytest.raises(ConfigError) as err:
            stateio._write_text(tmp_path, self.TEXT)
        assert str(err.value) == want
        with pytest.raises(ConfigError) as err:
            scan(ScanConfig(dims=(2, 2, 2), samples=1, out=str(tmp_path)))
        assert str(err.value) == want

    def test_an_integer_path_raises_before_any_open(self, monkeypatch):
        opened = []
        monkeypatch.setattr(stateio.os, "open", lambda *a, **k: opened.append(a))
        with pytest.raises(ConfigError) as err:
            stateio._write_text(5, self.TEXT)
        assert str(err.value) == "cannot write 5: a path must be a string or a path object"
        assert opened == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_write_raises_config_error(self):
        with pytest.raises(ConfigError, match=r"^cannot write /dev/full: \[Errno 28\] "):
            stateio._write_text("/dev/full", self.TEXT)


class TestFmt17:
    def test_round_trips_doubles(self):
        for x in (1.0 / 3.0, 0.1, 2.0 - np.sqrt(2.0), 1e-300, 0.0):
            assert float(fmt17(x)) == x
