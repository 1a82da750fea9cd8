"""Sparse memory: loads/stores, ranges, page crossing, snapshots."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.ref.memory import MemoryAccessError, PAGE_SHIFT, PAGE_SIZE, SparseMemory


class TestBasicAccess:
    def test_uninitialized_reads_zero(self):
        memory = SparseMemory()
        assert memory.load(0x1000, 8) == 0

    def test_store_load_roundtrip(self):
        memory = SparseMemory()
        memory.store(0x2000, 8, 0x1122334455667788)
        assert memory.load(0x2000, 8) == 0x1122334455667788
        assert memory.load(0x2000, 4) == 0x55667788  # little endian

    def test_byte_granularity(self):
        memory = SparseMemory()
        memory.store(0x10, 1, 0xAB)
        memory.store(0x11, 1, 0xCD)
        assert memory.load(0x10, 2) == 0xCDAB

    def test_store_masks_to_size(self):
        memory = SparseMemory()
        memory.store(0x0, 2, 0x12345678)
        assert memory.load(0x0, 4) == 0x5678

    def test_page_crossing_access(self):
        memory = SparseMemory()
        address = PAGE_SIZE - 4
        memory.store(address, 8, 0xDEADBEEFCAFEBABE)
        assert memory.load(address, 8) == 0xDEADBEEFCAFEBABE

    def test_load_bytes_across_unallocated_pages(self):
        memory = SparseMemory()
        memory.store(PAGE_SIZE * 2, 1, 0x7F)
        blob = memory.load_bytes(PAGE_SIZE * 2 - 2, 4)
        assert blob == b"\x00\x00\x7f\x00"

    @given(
        address=st.integers(min_value=0, max_value=1 << 20),
        data=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=60)
    def test_bytes_roundtrip(self, address, data):
        memory = SparseMemory()
        memory.store_bytes(address, data)
        assert memory.load_bytes(address, len(data)) == data


class TestRanges:
    def test_unrestricted_by_default(self):
        memory = SparseMemory()
        memory.store(0xFFFF_FFFF_0000, 8, 1)  # no error

    def test_out_of_range_load_faults(self):
        memory = SparseMemory(ranges=[(0x1000, 0x100)])
        with pytest.raises(MemoryAccessError):
            memory.load(0x2000, 4)

    def test_straddling_range_end_faults(self):
        memory = SparseMemory(ranges=[(0x1000, 0x100)])
        with pytest.raises(MemoryAccessError):
            memory.load(0x10FE, 4)

    def test_in_range_succeeds(self):
        memory = SparseMemory(ranges=[(0x1000, 0x100)])
        memory.store(0x1080, 8, 42)
        assert memory.load(0x1080, 8) == 42

    def test_add_range_extends(self):
        memory = SparseMemory(ranges=[(0x1000, 0x100)])
        memory.add_range(0x4000, 0x100)
        memory.store(0x4000, 4, 7)

    def test_error_carries_details(self):
        memory = SparseMemory(ranges=[(0, 16)])
        with pytest.raises(MemoryAccessError) as info:
            memory.load(0x40, 4, kind="fetch")
        assert info.value.kind == "fetch"
        assert info.value.address == 0x40


class TestPrograms:
    def test_write_program_and_fetch(self):
        memory = SparseMemory()
        memory.write_program(0x8000_0000, [0x13, 0x33001033])
        assert memory.load_word(0x8000_0000) == 0x13
        assert memory.load_word(0x8000_0004) == 0x33001033


class TestSnapshots:
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 16),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_snapshot_restore_roundtrip(self, writes):
        memory = SparseMemory()
        for address, value in writes:
            memory.store(address, 1, value)
        pages = memory.snapshot_pages()
        clone = SparseMemory()
        clone.restore_pages(pages)
        for address, _ in writes:
            assert clone.load(address, 1) == memory.load(address, 1)

    def test_resident_bytes_tracks_pages(self):
        memory = SparseMemory()
        assert memory.resident_bytes == 0
        memory.store(0, 1, 1)
        memory.store(PAGE_SIZE * 10, 1, 1)
        assert memory.resident_bytes == 2 * PAGE_SIZE


class _ByteWiseMemory:
    """The access path :class:`SparseMemory` had before its window fast
    paths, transcribed: a range check on every access (last window first),
    4- and 8-byte loads inside a page unpacked, other loads and every store
    through bytes."""

    def __init__(self, ranges=None):
        self._pages = {}
        self._ranges = list(ranges) if ranges else None
        self._last_range = (1, 0)

    def in_range(self, address, size=1):
        if self._ranges is None:
            return True
        end = address + size
        base, limit = self._last_range
        if base <= address and end <= limit:
            return True
        for base, window in self._ranges:
            if base <= address and end <= base + window:
                self._last_range = (base, base + window)
                return True
        return False

    def _check(self, address, size, kind):
        if not self.in_range(address, size):
            raise MemoryAccessError(address, size, kind)

    def _page(self, index):
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def load(self, address, size, kind="load"):
        if not self.in_range(address, size):
            raise MemoryAccessError(address, size, kind)
        offset = address & (PAGE_SIZE - 1)
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                return 0
            if size == 4:
                return struct.unpack_from("<I", page, offset)[0]
            if size == 8:
                return struct.unpack_from("<Q", page, offset)[0]
            return int.from_bytes(page[offset : offset + size], "little")
        return int.from_bytes(self.load_bytes(address, size, check=False), "little")

    def store(self, address, size, value, kind="store"):
        self._check(address, size, kind)
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        self.store_bytes(address, data, check=False)

    def load_bytes(self, address, size, check=True):
        if check:
            self._check(address, size, "load")
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - offset, remaining)
            page = self._pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset : offset + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def store_bytes(self, address, data, check=True):
        if check:
            self._check(address, len(data), "store")
        cursor = address
        view = memoryview(data)
        while view:
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - offset, len(view))
            page = self._page(cursor >> PAGE_SHIFT)
            page[offset : offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def load_word(self, address):
        return self.load(address, 4, kind="fetch")

    def snapshot_pages(self):
        return {index: bytes(page) for index, page in self._pages.items()}


# Legal windows whose edges sit on and off page edges.
_WINDOWS = [(0x0FF8, 0x1010), (0x5000, 0x0FFC), (0x7000, 0x1000)]
_EDGES = sorted({edge for base, size in _WINDOWS for edge in (base, base + size)}
                | {PAGE_SIZE * page for page in range(1, 9)})


@st.composite
def _accesses(draw):
    """Accesses of 1, 2, 4 and 8 bytes (and a 3-byte one) near page and
    window edges."""
    operations = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        address = draw(st.sampled_from(_EDGES)) + draw(st.integers(-9, 9))
        size = draw(st.sampled_from((1, 2, 4, 8, 3)))
        operation = draw(st.sampled_from(("load", "store", "load_word")))
        operations.append((operation, address, size,
                           draw(st.integers(min_value=0, max_value=(1 << 64) - 1))))
    return operations


class TestWindowFastPath:
    @given(operations=_accesses(), restricted=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_byte_wise_path(self, operations, restricted):
        """Values, page contents and every fault's address, size and kind
        agree with the byte-wise path, with ranges set and without."""
        ranges = _WINDOWS if restricted else None
        memory = SparseMemory(ranges=ranges)
        reference = _ByteWiseMemory(ranges=ranges)
        for operation, address, size, value in operations:
            outcomes = []
            for target in (memory, reference):
                try:
                    if operation == "load":
                        outcomes.append(target.load(address, size))
                    elif operation == "store":
                        outcomes.append(target.store(address, size, value))
                    else:
                        outcomes.append(target.load_word(address))
                except MemoryAccessError as error:
                    outcomes.append((error.address, error.size, error.kind))
            assert outcomes[0] == outcomes[1], (operation, hex(address), size)
        assert memory.snapshot_pages() == reference.snapshot_pages()
