"""Property tests for the CRC32 journal frame codec.

The frame layer is the bottom of the durability stack: every WAL
record, archived segment, and grid-journal row rides inside one frame.
These tests pin its three contracts:

* round-trip — any JSON-safe document encodes to one line that decodes
  back bit-identically (hypothesis-driven);
* detection — flipping any single bit of any byte of a framed record
  is detected (frames sit mid-journal so the torn-tail forgiveness
  cannot mask the flip);
* one verdict — every reader of the journal format (``read_jsonl``,
  ``recover_jsonl``, ``repair_journal_tail``, ``fsck``) is a view of
  one scan, so they cannot disagree about what is healthy, torn or
  corrupt; frames are the only line format.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    FRAME_PREFIX,
    JournalCorruptError,
    append_jsonl,
    decode_frame,
    encode_frame,
    read_jsonl,
    recover_jsonl,
    repair_journal_tail,
    scan_journal,
)
from repro.service.fsck import run_fsck

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)

json_docs = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


@given(doc=json_docs)
@settings(max_examples=200, deadline=None)
def test_frame_round_trip(doc):
    line = encode_frame(doc)
    assert line.startswith(FRAME_PREFIX)
    assert "\n" not in line
    assert decode_frame(line) == json.loads(json.dumps(doc))


@given(docs=st.lists(json_docs, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_journal_round_trip_through_file(tmp_path_factory, docs):
    path = str(tmp_path_factory.mktemp("frames") / "journal.jsonl")
    for doc in docs:
        append_jsonl(path, doc)
    assert read_jsonl(path) == [json.loads(json.dumps(d)) for d in docs]


def test_single_bit_flip_detected_at_every_byte_position(tmp_path):
    """Exhaustively flip one bit in every byte of a mid-journal frame."""
    path = str(tmp_path / "journal.jsonl")
    victim = {"seq": 7, "op": "allocate", "category": "render", "x": [1.5, 2.5]}
    frame = (encode_frame(victim) + "\n").encode("utf-8")
    prefix = (encode_frame({"seq": 6}) + "\n").encode("utf-8")
    suffix = (encode_frame({"seq": 8}) + "\n").encode("utf-8")
    baseline = prefix + frame + suffix
    for byte_offset in range(len(frame)):
        for bit in range(8):
            corrupted = bytearray(baseline)
            corrupted[len(prefix) + byte_offset] ^= 1 << bit
            with open(path, "wb") as handle:
                handle.write(bytes(corrupted))
            with pytest.raises(JournalCorruptError):
                read_jsonl(path)


def test_bit_flip_in_final_complete_line_is_detected(tmp_path):
    """A newline-terminated final line is covered — torn-tail forgiveness
    only applies when the trailing newline itself never made it."""
    path = str(tmp_path / "journal.jsonl")
    append_jsonl(path, {"seq": 1})
    append_jsonl(path, {"seq": 2})
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    # Flip one payload bit in the last frame (not the trailing newline).
    blob[-10] ^= 0x04
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    with pytest.raises(JournalCorruptError):
        read_jsonl(path)


_A = (encode_frame({"seq": 1}) + "\n").encode("utf-8")
_B = (encode_frame({"seq": 2}) + "\n").encode("utf-8")
_HALF = encode_frame({"seq": 3}).encode("utf-8")[:9]
_BAD = _B[:-3] + b"X}\n"  # newline-terminated, CRC no longer matches

# (blob, verdict, corrupt line, corrupt byte offset, docs kept)
VERDICTS = {
    "clean": (_A + _B, "healthy", None, None, 2),
    "empty": (b"", "healthy", None, None, 0),
    "torn-final-line": (_A + _B + _HALF, "torn", None, None, 2),
    "complete-but-unterminated-final-line": (_A + _B[:-1], "torn", None, None, 1),
    "trailing-blank-line": (_A + _B + b"\n", "corrupt", 3, len(_A + _B), 2),
    "two-trailing-blank-lines": (_A + _B + b"\n\n", "corrupt", 3, len(_A + _B), 2),
    "blank-line-mid-file": (_A + b"\n" + _B, "corrupt", 2, len(_A), 1),
    "bad-terminated-last-line": (_A + _BAD, "corrupt", 2, len(_A), 1),
    "bad-line-then-torn-line": (_A + _BAD + _HALF, "corrupt", 2, len(_A), 1),
    "raw-json-object-line": (_A + b'{"seq":2}\n', "corrupt", 2, len(_A), 1),
    "bare-scalar-line": (_A + _B + b"7\n", "corrupt", 3, len(_A + _B), 2),
    "invalid-utf8": (_A + b"F1 2 \xff\xfe\n" + _B, "corrupt", 2, len(_A), 1),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_every_journal_reader_gives_the_same_verdict(tmp_path, case):
    blob, verdict, line, offset, kept = VERDICTS[case]
    path = tmp_path / "shard-00.wal"
    path.write_bytes(blob)
    expected_docs = [{"seq": i + 1} for i in range(kept)]

    scanned, good_bytes, torn, corrupt = scan_journal(str(path))
    assert scanned == expected_docs
    assert torn == (verdict == "torn")
    assert (corrupt is not None) == (verdict == "corrupt")

    # read_jsonl: the prefix, or the typed error at the same place.
    if verdict == "corrupt":
        with pytest.raises(JournalCorruptError) as excinfo:
            read_jsonl(str(path))
        assert (excinfo.value.line, excinfo.value.offset) == (line, offset)
        assert good_bytes == offset
    else:
        assert read_jsonl(str(path)) == expected_docs

    # recover_jsonl: same prefix, a report exactly when corrupt.
    docs, recovery = recover_jsonl(str(path), quarantine=False)
    assert docs == expected_docs
    if verdict == "corrupt":
        assert (recovery.line, recovery.offset, recovery.docs_kept) == (line, offset, kept)
    else:
        assert recovery is None

    # fsck: error at that line/offset, a torn-tail note, or silence.
    findings = [f for f in run_fsck(str(tmp_path)).findings if f.path == path.name]
    if verdict == "corrupt":
        assert [f.severity for f in findings] == ["error"]
        assert f"line {line} (byte offset {offset})" in findings[0].problem
    elif verdict == "torn":
        assert [(f.severity, f.problem[:4]) for f in findings] == [("note", "torn")]
    else:
        assert findings == []

    # repair_journal_tail, last (it writes): with everything committed,
    # refuses what the others call corrupt, and otherwise truncates to
    # exactly the scan's good bytes.
    if verdict == "corrupt":
        with pytest.raises(JournalCorruptError) as excinfo:
            repair_journal_tail(str(path), len(blob))
        assert (excinfo.value.line, excinfo.value.offset) == (line, offset)
        assert path.read_bytes() == blob
    else:
        assert repair_journal_tail(str(path), len(blob)) == len(blob) - good_bytes
        assert path.read_bytes() == blob[: good_bytes]
        assert (len(blob) > good_bytes) == (verdict == "torn")


def test_decode_frame_rejects_malformed_headers():
    good = encode_frame({"a": 1})
    for bad in (
        "F2 " + good[3:],  # wrong version tag
        "F1 notanumber deadbeef {}",  # length not an integer
        "F1 3 deadbeef {}",  # length does not match payload
        "F1 2 deadbeef {}",  # length matches, CRC does not
        good[:-1],  # truncated payload
        "F1 8 zzzzzzzz " + '{"a": 1}',  # non-hex crc
        "F1 8",  # header only
    ):
        with pytest.raises(ValueError):
            decode_frame(bad)


def test_torn_tail_still_forgiven_without_newline(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    append_jsonl(path, {"seq": 1})
    full = encode_frame({"seq": 2})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(full[: len(full) // 2])  # crash mid-append, no "\n"
    assert read_jsonl(path) == [{"seq": 1}]
