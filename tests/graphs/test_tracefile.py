"""Tests for the on-disk trace format."""

import pytest

from repro.errors import BatchError, TraceError
from repro.graphs import generators as gen, streams
from repro.graphs.streams import BatchOp
from repro.graphs.tracefile import (
    TraceWriter,
    iter_trace,
    read_trace,
    recover_trace,
    scan_trace,
    validate_trace,
    write_stream,
    write_trace,
)


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        _, edges = gen.clique(5)
        ops = streams.insert_then_delete(edges, 4, seed=1)
        path = tmp_path / "t.txt"
        count = write_trace(ops, path)
        assert count == len(ops)
        assert read_trace(path) == ops

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_trace([], path)
        assert read_trace(path) == []

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\nI 0 1\n  # mid\nD 1 0\n")
        ops = read_trace(path)
        assert [op.kind for op in ops] == ["insert", "delete"]
        assert ops[0].edges == ((0, 1),)

    def test_edges_canonicalized(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("I 5 2\n")
        assert read_trace(path)[0].edges == ((2, 5),)


class TestErrors:
    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("Q 0 1\n")
        with pytest.raises(BatchError):
            read_trace(path)

    def test_odd_endpoints(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("I 0 1 2\n")
        with pytest.raises(BatchError):
            read_trace(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("I a b\n")
        with pytest.raises(BatchError):
            read_trace(path)


class TestValidate:
    def test_valid_stream_reports_n(self):
        ops = [BatchOp("insert", ((0, 9),)), BatchOp("delete", ((0, 9),))]
        assert validate_trace(ops) == 10

    def test_insert_live_edge_rejected(self):
        ops = [BatchOp("insert", ((0, 1),)), BatchOp("insert", ((0, 1),))]
        with pytest.raises(BatchError):
            validate_trace(ops)

    def test_delete_absent_rejected(self):
        with pytest.raises(BatchError):
            validate_trace([BatchOp("delete", ((0, 1),))])

    def test_duplicate_within_batch_rejected(self):
        with pytest.raises(BatchError):
            validate_trace([BatchOp("insert", ((0, 1), (0, 1)))])


class TestIntegrityFooter:
    """The checksum footer catches truncation and corruption (TraceError)."""

    def _ops(self):
        _, edges = gen.clique(5)
        return streams.insert_then_delete(edges, 4, seed=1)

    def test_sealed_roundtrip(self, tmp_path):
        path = tmp_path / "sealed.txt"
        ops = self._ops()
        write_trace(ops, path)
        assert "# repro-trace-end" in path.read_text()
        assert read_trace(path, strict=True) == ops

    def test_footerless_legacy_still_reads(self, tmp_path):
        path = tmp_path / "legacy.txt"
        write_trace(self._ops(), path, footer=False)
        assert read_trace(path) == self._ops()
        with pytest.raises(TraceError, match="missing end-of-trace footer"):
            read_trace(path, strict=True)

    def test_truncated_body_detected(self, tmp_path):
        path = tmp_path / "trunc.txt"
        write_trace(self._ops(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")  # drop the first batch
        with pytest.raises(TraceError, match="CRC-32"):
            read_trace(path)

    def test_flipped_byte_detected(self, tmp_path):
        path = tmp_path / "flip.txt"
        write_trace(self._ops(), path)
        text = path.read_text()
        body_end = text.index("# repro-trace-end")
        corrupted = text[: body_end - 3] + ("9" if text[body_end - 3] != "9" else "8") + text[body_end - 2 :]
        path.write_text(corrupted)
        with pytest.raises(TraceError):
            read_trace(path)

    def test_malformed_footer_detected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("I 0 1\n# repro-trace-end batches=x crc32=zz\n")
        with pytest.raises(TraceError, match="malformed"):
            read_trace(path)

    def test_content_after_footer_detected(self, tmp_path):
        path = tmp_path / "tail.txt"
        write_trace(self._ops(), path)
        with open(path, "a") as fh:
            fh.write("I 9 10\n")
        with pytest.raises(TraceError, match="after end-of-trace"):
            read_trace(path)

    def test_empty_sealed_trace(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_trace([], path)
        assert read_trace(path, strict=True) == []


class TestTraceWriter:
    def test_incremental_then_seal(self, tmp_path):
        _, edges = gen.clique(4)
        ops = streams.insert_only(edges, 3)
        path = tmp_path / "wal.txt"
        with TraceWriter(path) as writer:
            for op in ops:
                writer.append(op)
            # unsealed mid-stream: tolerant read works, strict refuses
            assert read_trace(path) == ops
            with pytest.raises(TraceError):
                read_trace(path, strict=True)
        assert read_trace(path, strict=True) == ops

    def test_append_after_seal_rejected(self, tmp_path):
        path = tmp_path / "done.txt"
        writer = TraceWriter(path)
        writer.append(BatchOp("insert", ((0, 1),)))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(TraceError, match="sealed"):
            writer.append(BatchOp("insert", ((1, 2),)))

    def test_writer_matches_write_trace(self, tmp_path):
        _, edges = gen.clique(4)
        ops = streams.insert_then_delete(edges, 2, seed=0)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trace(ops, a)
        with TraceWriter(b) as writer:
            for op in ops:
                writer.append(op)
        assert a.read_text() == b.read_text()


class TestSealedAppend:
    """Re-opening a sealed WAL in append mode (the service-restart move).

    Regression for the sealed-trace append corruption: a plain re-open
    used to write batches *after* the integrity footer, which the readers
    then misparsed.  Append mode now detects the seal, verifies it and
    unseals (strip footer, resume CRC); a corrupt seal raises TraceError.
    """

    OPS = [
        BatchOp("insert", ((0, 1), (1, 2))),
        BatchOp("insert", ((0, 2),)),
        BatchOp("delete", ((0, 1),)),
    ]

    def _sealed(self, path):
        with TraceWriter(path) as writer:
            for op in self.OPS[:2]:
                writer.append(op)

    def test_unseal_resumes_sealed_trace(self, tmp_path):
        path = tmp_path / "wal.trace"
        self._sealed(path)
        with TraceWriter(path, append=True) as writer:
            assert writer.batches == 2  # resumed, not restarted
            writer.append(self.OPS[2])
        # the re-sealed file is one coherent trace: strict read, correct
        # batch count, CRC covering old + new body alike
        assert read_trace(path, strict=True) == self.OPS
        assert list(iter_trace(path, strict=True)) == self.OPS

    def test_unseal_strips_footer_in_place(self, tmp_path, monkeypatch):
        """Regression: unsealing used to rewrite the whole file through a
        truncate-to-zero ``open(path, 'wb')``, leaving a kill -9 window in
        which every previously acked batch was gone (and state recovery
        then discarded the checkpoint too).  The footer is strictly a
        suffix, so unsealing must never open the WAL in a truncating
        mode — it strips the footer with one in-place truncate."""
        import builtins

        path = tmp_path / "wal.trace"
        self._sealed(path)
        real_open = builtins.open

        def guarded(file, mode="r", *args, **kwargs):
            if str(file) == str(path) and any(c in str(mode) for c in "wx"):
                raise AssertionError(
                    f"unseal opened the WAL in truncating mode {mode!r} — "
                    "a crash mid-rewrite would lose acked batches"
                )
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded)
        writer = TraceWriter(path, append=True)
        monkeypatch.undo()
        # the durable state right after the unseal (a crash point) is the
        # exact acked body, footer physically gone: a valid unsealed WAL.
        assert read_trace(path) == self.OPS[:2]
        assert not path.read_text().rstrip().splitlines()[-1].startswith("#")
        writer.append(self.OPS[2])
        writer.close()
        assert read_trace(path, strict=True) == self.OPS

    def test_resumes_unsealed_crash_log(self, tmp_path):
        # a crashed writer leaves no footer; append mode resumes in place
        path = tmp_path / "wal.trace"
        write_trace(self.OPS[:2], path, footer=False)
        with TraceWriter(path, append=True) as writer:
            assert writer.batches == 2
            writer.append(self.OPS[2])
        assert read_trace(path, strict=True) == self.OPS

    def test_append_to_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "new.trace"
        with TraceWriter(path, append=True) as writer:
            writer.append(self.OPS[0])
        assert read_trace(path, strict=True) == self.OPS[:1]

    def test_unseal_refuses_corrupt_body(self, tmp_path):
        path = tmp_path / "wal.trace"
        self._sealed(path)
        lines = path.read_text().splitlines()
        lines[0] = "I 7 8"  # body no longer matches the footer CRC
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="CRC"):
            TraceWriter(path, append=True)

    def test_default_mode_still_truncates(self, tmp_path):
        path = tmp_path / "wal.trace"
        self._sealed(path)
        with TraceWriter(path) as writer:
            writer.append(self.OPS[2])
        assert read_trace(path, strict=True) == self.OPS[2:]

    def test_sync_mode_flushes_durably(self, tmp_path):
        path = tmp_path / "wal.trace"
        writer = TraceWriter(path, sync=True)
        writer.append(self.OPS[0])
        # acked-before-sealed: the batch is on disk before close()
        assert read_trace(path) == self.OPS[:1]
        writer.close()


class TestStreaming:
    """The out-of-core surface: iter_trace / scan_trace / write_stream."""

    def _ops(self):
        _, edges = gen.clique(6)
        return streams.insert_then_delete(edges, 4, seed=2)

    def test_iter_matches_read(self, tmp_path):
        path = tmp_path / "t.txt"
        ops = self._ops()
        write_trace(ops, path)
        assert list(iter_trace(path)) == ops
        assert list(iter_trace(path, strict=True)) == ops

    def test_tiny_chunks_cross_line_boundaries(self, tmp_path):
        # chunk_bytes=1 forces every line to be reassembled byte by byte
        path = tmp_path / "t.txt"
        ops = self._ops()
        write_trace(ops, path)
        assert list(iter_trace(path, strict=True, chunk_bytes=1)) == ops

    def test_incremental_crc_detects_corruption(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self._ops(), path)
        text = path.read_text()
        # flip one digit of the body (keeping every line parseable) so the
        # incremental CRC fold — not the line parser — must catch it
        pos = next(i for i, ch in enumerate(text) if ch.isdigit())
        flip = "9" if text[pos] != "9" else "8"
        path.write_text(text[:pos] + flip + text[pos + 1 :])
        with pytest.raises(TraceError, match="CRC-32"):
            list(iter_trace(path))

    def test_strict_unsealed_raises_at_exhaustion(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self._ops(), path, footer=False)
        assert list(iter_trace(path)) == self._ops()
        with pytest.raises(TraceError, match="missing end-of-trace footer"):
            list(iter_trace(path, strict=True))

    def test_content_after_footer_detected(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self._ops(), path)
        with open(path, "a") as fh:
            fh.write("I 9 10\n")
        with pytest.raises(TraceError, match="after end-of-trace"):
            list(iter_trace(path))

    def test_scan_reports_shape(self, tmp_path):
        path = tmp_path / "t.txt"
        ops = [
            BatchOp("insert", ((0, 1), (1, 2), (2, 3))),
            BatchOp("delete", ((1, 2),)),
            BatchOp("insert", ((4, 7),)),
        ]
        write_trace(ops, path)
        info = scan_trace(path, strict=True)
        assert info.batches == 3
        assert info.edge_updates == 5
        assert info.vertices == 8  # max endpoint 7 -> universe 0..7
        assert info.max_live_edges == 3

    def test_scan_rejects_invalid_stream(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("I 0 1\nD 2 3\n")
        with pytest.raises(BatchError):
            scan_trace(path)

    def test_write_stream_from_generator(self, tmp_path):
        path = tmp_path / "t.txt"
        ops = self._ops()
        writer = write_stream(iter(ops), path)
        assert writer.batches == len(ops)
        assert read_trace(path, strict=True) == ops

    def test_iter_is_lazy(self, tmp_path):
        # Draining one batch must not require parsing the whole file.
        path = tmp_path / "t.txt"
        write_trace(self._ops(), path)
        it = iter_trace(path)
        first = next(it)
        assert first == self._ops()[0]
        it.close()

class TestRecoverTrace:
    """The torn-tail-tolerant WAL reader behind service restarts."""

    OPS = [
        BatchOp("insert", ((0, 1), (1, 2))),
        BatchOp("insert", ((2, 3),)),
        BatchOp("delete", ((1, 2),)),
    ]

    def test_missing_file(self, tmp_path):
        assert recover_trace(tmp_path / "nope.txt") == ([], 0)

    def test_sealed_file_loads_whole(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self.OPS, path)
        ops, good = recover_trace(path)
        assert ops == self.OPS
        assert good == path.stat().st_size

    def test_unsealed_clean_tail(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self.OPS, path, footer=False)
        ops, good = recover_trace(path)
        assert ops == self.OPS
        assert good == path.stat().st_size

    def test_torn_final_line_without_newline_is_dropped(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self.OPS, path, footer=False)
        clean = path.stat().st_size
        with open(path, "a") as fh:
            fh.write("I 7 8 9")  # killed mid-append: no newline
        ops, good = recover_trace(path)
        assert ops == self.OPS
        assert good == clean

    def test_torn_garbage_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self.OPS, path, footer=False)
        clean = path.stat().st_size
        with open(path, "a") as fh:
            fh.write("garbage that is no batch line\n")
        ops, good = recover_trace(path)
        assert ops == self.OPS
        assert good == clean

    def test_mid_file_corruption_still_raises(self, tmp_path):
        """Only the *tail* may be forgiven: bad bytes with real batches
        after them mean the log cannot be trusted."""
        path = tmp_path / "t.txt"
        write_trace(self.OPS, path, footer=False)
        lines = path.read_text().splitlines(keepends=True)
        idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        lines[idx] = "garbage in the middle\n"
        path.write_text("".join(lines))
        with pytest.raises(BatchError):
            recover_trace(path)

    def test_corrupt_sealed_file_still_raises(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(self.OPS, path)
        text = path.read_text().replace("I 0 1", "I 0 9", 1)
        path.write_text(text)
        with pytest.raises(TraceError):
            recover_trace(path)
