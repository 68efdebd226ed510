"""Memory bus and region-map behaviour."""

import pytest

from repro.errors import MemoryAccessError
from repro.msp430.memory import EXECUTE, Memory, MemoryMap, READ, WRITE


@pytest.fixture
def memory():
    return Memory()


class TestRegionMap:
    def test_fram_bounds(self):
        assert MemoryMap.in_main_fram(0x4400)
        assert MemoryMap.in_main_fram(0xFFFF)
        assert not MemoryMap.in_main_fram(0x43FF)

    def test_infomem_bounds(self):
        assert MemoryMap.in_infomem(0x1800)
        assert MemoryMap.in_infomem(0x19FF)
        assert not MemoryMap.in_infomem(0x1A00)

    def test_region_lookup(self, memory):
        assert memory.map.region_at(0x0000).name == "peripherals"
        assert memory.map.region_at(0x1C00).name == "sram"
        assert memory.map.region_at(0x5000).name == "fram"
        assert memory.map.region_at(0xFF80).name == "vectors"


class TestBasicAccess:
    def test_word_roundtrip(self, memory):
        memory.write_word(0x4400, 0xBEEF)
        assert memory.read_word(0x4400) == 0xBEEF

    def test_byte_roundtrip(self, memory):
        memory.write_byte(0x1C00, 0xA5)
        assert memory.read_byte(0x1C00) == 0xA5

    def test_word_is_little_endian(self, memory):
        memory.write_word(0x4400, 0x1234)
        assert memory.read_byte(0x4400) == 0x34
        assert memory.read_byte(0x4401) == 0x12

    def test_word_access_ignores_bit0(self, memory):
        memory.write_word(0x4401, 0xAAAA)
        assert memory.read_word(0x4400) == 0xAAAA

    def test_hole_read_raises(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.read_word(0x3000)

    def test_hole_write_raises(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.write_word(0x1B00, 1)

    def test_bsl_is_read_only(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.write_word(0x1000, 1)

    def test_peripherals_not_executable(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.fetch_word(0x0200)

    def test_fram_executable(self, memory):
        memory.load(0x4400, b"\x34\x12")
        assert memory.fetch_word(0x4400) == 0x1234


class TestSupervisorAccess:
    def test_supervisor_bypasses_region_checks(self, memory):
        with memory.supervisor():
            memory.write_word(0x1000, 0x5555)   # BSL is normally RO
        assert memory.dump(0x1000, 2) == b"\x55\x55"

    def test_load_and_dump_bypass(self, memory):
        memory.load(0x1B00, b"\x01\x02")        # hole
        assert memory.dump(0x1B00, 2) == b"\x01\x02"

    def test_load_past_end_raises(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.load(0xFFFF, b"\x00\x01")


class TestIoPorts:
    def test_io_write_intercepted(self, memory):
        seen = []
        memory.add_io(0x0200, write=lambda a, v: seen.append((a, v)))
        memory.write_word(0x0200, 0x77)
        assert seen == [(0x0200, 0x77)]
        # backing store untouched
        assert memory.dump(0x0200, 2) == b"\x00\x00"

    def test_io_read_intercepted(self, memory):
        memory.add_io(0x0202, read=lambda: 0xCAFE)
        assert memory.read_word(0x0202) == 0xCAFE

    def test_io_byte_read_high_and_low(self, memory):
        memory.add_io(0x0204, read=lambda: 0xABCD)
        assert memory.read_byte(0x0204) == 0xCD
        assert memory.read_byte(0x0205) == 0xAB

    def test_io_must_be_word_aligned(self, memory):
        with pytest.raises(ValueError):
            memory.add_io(0x0201, read=lambda: 0)


class TestObservers:
    def test_observer_sees_accesses(self, memory):
        log = []
        memory.add_observer(lambda a, k, s: log.append((a, k, s)))
        memory.write_word(0x4400, 1)
        memory.read_byte(0x4400)
        assert (0x4400, WRITE, 2) in log
        assert (0x4400, READ, 1) in log

    def test_observer_removal(self, memory):
        log = []
        observer = lambda a, k, s: log.append(a)
        memory.add_observer(observer)
        memory.remove_observer(observer)
        memory.write_word(0x4400, 1)
        assert log == []

    def test_fill(self, memory):
        memory.fill(0x4400, 4, 0xAB)
        assert memory.dump(0x4400, 4) == b"\xab\xab\xab\xab"

    def test_fill_past_end_keeps_64_kb(self, memory):
        # the backing store never resizes: generated code holds a
        # 16-bit view of it
        with pytest.raises(MemoryAccessError):
            memory.fill(0xFFFE, 4, 0xAB)
        assert len(memory._bytes) == 0x10000
