"""The hostile-input matrix every disk tier must survive.

Each tier's test module subclasses :class:`HostileInputMatrix` with a
small adapter for that tier (the firmware build cache, the ``.sbx``
execution cache, the ``.tbx`` trace tier); the five cases below then
run against all three — against a one-frame entry file for the
firmware and trace tiers (``records = 1``), against an append store
of two records for ``.sbx``:

* a flipped payload bit,
* a torn tail (a writer killed mid-write),
* a garbage file,
* an oversized length field, and
* an exploit pickle — raw, as a pre-framing reader would take it, and
  correctly framed, as this reader does — whose load would create a
  marker directory.

In every case the tier must serve nothing from the damaged bytes and
fall back to rebuilding, re-translating or re-recording, and the
exploit's marker must never appear.

The append-only tier (``.sbx``) subclasses :class:`AppendTierMatrix`
instead, which adds a sixth case: a writer killed halfway through an
append (of a record like the others, or of a much bigger one whose
declared length covers the later appends), or a frame whose payload
hides a false magic, followed by later appends, must cost only the
damaged record.
"""

import os
import pickle

from repro.framestore import HEADER


class _Exploit:
    """Pickles to a REDUCE of ``os.mkdir(marker)`` — loading it with
    stock pickle creates the marker directory."""

    def __init__(self, marker: str):
        self.marker = marker

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


class HostileInputMatrix:
    """Mix-in: the five hostile inputs, for one tier.

    Subclasses implement

    * ``fmt()`` — the tier's :class:`~repro.framestore.FrameFormat`;
    * ``populate(tmp_path)`` — write a valid store (or entry) of
      ``records`` intact records and return its path;
    * ``assert_recovers(path, intact, corrupt)`` — re-open the tier
      as a fresh process would and assert it serves exactly the first
      ``intact`` records, nothing damaged, and recovers; ``corrupt``
      says whether the damage must show as a corrupt count (a torn
      tail need not: an appender may still be writing it);

    and may override ``flip_offset(data)``, the byte whose low bit
    the flipped-bit case flips (default: inside the last payload).
    """

    records = 2

    def flip_offset(self, data: bytes) -> int:
        return len(data) - 3

    def test_flipped_payload_byte_is_skipped(self, tmp_path):
        path = self.populate(tmp_path)
        data = bytearray(path.read_bytes())
        data[self.flip_offset(bytes(data))] ^= 0x01
        path.write_bytes(bytes(data))
        self.assert_recovers(path, intact=self.records - 1,
                             corrupt=True)

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = self.populate(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        self.assert_recovers(path, intact=self.records - 1,
                             corrupt=False)

    def test_garbage_file_loads_nothing(self, tmp_path):
        path = self.populate(tmp_path)
        path.write_bytes(b"definitely not a store file" * 30)
        self.assert_recovers(path, intact=0, corrupt=True)

    def test_oversized_length_field_rejected(self, tmp_path):
        path = self.populate(tmp_path)
        path.write_bytes(self.fmt().magic
                         + HEADER.pack(1 << 30, b"\x00" * 16)
                         + b"\x00" * 64)
        self.assert_recovers(path, intact=0, corrupt=True)

    def test_exploit_pickle_is_refused_not_executed(self, tmp_path):
        marker = tmp_path / "pwned"
        exploit = pickle.dumps(_Exploit(str(marker)))
        for framed in (False, True):
            path = self.populate(tmp_path)
            path.write_bytes(self.fmt().frame(exploit) if framed
                             else exploit)
            self.assert_recovers(path, intact=0, corrupt=True)
            assert not marker.exists()


class AppendTierMatrix(HostileInputMatrix):
    """Mix-in: the five hostile inputs plus damage followed by later
    appends, for an append-only tier.

    Subclasses also implement ``open_store(path)`` — the tier's
    :class:`~repro.framestore.AppendStore` over ``path``, opened as a
    fresh process would — and ``record(n)``, the ``n``-th of four
    distinct records of about the same size."""

    def test_appends_after_damage_are_read(self, tmp_path):
        frame = self.fmt().frame(pickle.dumps(
            self.record(1), protocol=pickle.HIGHEST_PROTOCOL))
        half = len(frame) // 2
        false_header = self.fmt().magic + HEADER.pack(8, bytes(16))
        damages = {
            # a writer killed halfway through its append
            "torn": frame[:half],
            # ...through a big append: the later appends fit inside
            # its declared length, so only resync can reach them
            "torn-big": self.fmt().frame(bytes(8192))[:100],
            # bit-rot that plants a false magic inside the payload
            "false-magic": frame[:half] + false_header
            + frame[half + len(false_header):],
        }
        for name, damage in damages.items():
            path = tmp_path / (name + self.fmt().suffix)
            assert self.open_store(path).publish_record(self.record(0))
            with path.open("ab") as handle:
                handle.write(damage)
            later = self.open_store(path)
            assert later.publish_record(self.record(2))
            assert later.publish_record(self.record(3))
            fresh = self.open_store(path)
            counts = (fresh.loaded, fresh.corrupt)
            assert counts == (3, 1), (name, counts)
