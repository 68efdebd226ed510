"""The hostile-input matrix every disk tier must survive.

Each tier's test module subclasses :class:`HostileInputMatrix` with a
small adapter for that tier (the firmware build cache, the ``.sbx``
execution cache, the ``.tbx`` trace tier); the five cases below then
run against all three:

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
