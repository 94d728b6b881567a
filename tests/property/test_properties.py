"""Property-based tests (hypothesis) for core data structures."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.mshr import MSHRFile
from repro.cache.replacement import FIFOPolicy, LRUPolicy
from repro.common.bitvector import BitVector
from repro.core.free_queue import FreeQueue
from repro.dram.address_map import AddressMap
from repro.config.dram import DDR4_3200, HBM2
from repro.schemes.tid import TiDTagArray
from repro.vm.descriptors import CPDArray


# -- BitVector ------------------------------------------------------------

@given(st.sets(st.integers(0, 63)))
def test_bitvector_count_matches_set(bits):
    bv = BitVector(64)
    for b in bits:
        bv.set(b)
    assert bv.count() == len(bits)
    for i in range(64):
        assert bv.test(i) == (i in bits)


@given(st.sets(st.integers(0, 63)), st.integers(0, 64))
def test_bitvector_first_zero_is_correct(bits, start):
    bv = BitVector(64)
    for b in bits:
        bv.set(b)
    expected = next((i for i in range(start, 64) if i not in bits), -1)
    assert bv.first_zero(start) == expected


@given(st.sets(st.integers(0, 63)))
def test_bitvector_set_clear_roundtrip(bits):
    bv = BitVector(64)
    for b in bits:
        bv.set(b)
    for b in bits:
        bv.clear(b)
    assert not bv.any_set


# -- Replacement policies ----------------------------------------------------

@given(st.lists(st.integers(0, 9), min_size=1, max_size=60))
def test_lru_victim_is_least_recent(refs):
    """Model check against an explicit recency list."""
    policy = LRUPolicy()
    recency = []
    for key in refs:
        if key in recency:
            policy.touch(key)
            recency.remove(key)
            recency.append(key)
        else:
            policy.insert(key)
            recency.append(key)
    assert policy.evict() == recency[0]


@given(st.lists(st.integers(0, 9), min_size=1, max_size=60))
def test_fifo_victim_is_oldest_insert(refs):
    policy = FIFOPolicy()
    order = []
    for key in refs:
        if key in order:
            policy.touch(key)
        else:
            policy.insert(key)
            order.append(key)
    assert policy.evict() == order[0]


# -- MSHR file -----------------------------------------------------------------

@given(st.lists(st.integers(0, 5), min_size=1, max_size=40),
       st.integers(1, 4))
def test_mshr_conservation(keys, capacity):
    """Every waiter is eventually notified exactly once."""
    m = MSHRFile(capacity)
    notified = []
    issued = []
    for i, key in enumerate(keys):
        outcome = m.allocate(key, i, lambda t, i=i: notified.append(i))
        if outcome == "new":
            issued.append(key)
    # Retire in issue order, draining overflow as slots free.
    while issued:
        key = issued.pop(0)
        for w in m.retire(key, 0):
            w(0)
        issued.extend(m.drain_overflow(0))
    assert sorted(notified) == list(range(len(keys)))


# -- Free queue -----------------------------------------------------------------

@given(st.lists(st.sampled_from(["alloc", "free"]), max_size=64))
def test_free_queue_accounting_invariant(ops):
    fq, cpds = FreeQueue(16), CPDArray(16)
    allocated = []
    for op in ops:
        if op == "alloc" and fq.num_free > 0:
            cfn = fq.allocate(cpds)
            assert not cpds[cfn].valid
            cpds[cfn].valid = True
            allocated.append(cfn)
        elif op == "free" and allocated:
            # FIFO reclamation from the tail side.
            cfn = allocated.pop(0)
            cpds[cfn].valid = False
            fq.mark_freed()
        assert 0 <= fq.num_free <= 16
        assert fq.allocated == len(allocated)
        assert sum(1 for i in range(16) if cpds[i].valid) == len(allocated)


# -- Address map ------------------------------------------------------------------

@given(st.integers(0, 2**34), st.sampled_from([HBM2, DDR4_3200]))
def test_address_map_decode_in_range(addr, cfg):
    am = AddressMap(cfg)
    d = am.decode(addr)
    assert 0 <= d.channel < cfg.num_channels
    assert 0 <= d.bank < cfg.banks_per_channel
    assert d.row >= 0


@given(st.integers(0, 2**30))
def test_address_map_same_burst_same_location(addr):
    am = AddressMap(HBM2)
    base = (addr >> 6) << 6
    assert am.decode(base) == am.decode(base + 63)


# -- TiD tag array ---------------------------------------------------------

class _ScanTagArray:
    """Way pick by scanning the set's used ways (the O(ways) reference)."""

    def __init__(self, num_sets, ways):
        self.num_sets, self.ways = num_sets, ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def allocate(self, line_id, dirty=False):
        s = self.sets[line_id % self.num_sets]
        victim = None
        if len(s) >= self.ways:
            victim_id, (way, victim_dirty) = s.popitem(last=False)
            victim = (victim_id, way, victim_dirty)
        else:
            used = {rec[0] for rec in s.values()}
            way = next(w for w in range(self.ways) if w not in used)
        s[line_id] = [way, dirty]
        return way, victim

    def lookup(self, line_id):
        s = self.sets[line_id % self.num_sets]
        if line_id in s:
            s.move_to_end(line_id)


_TAG_OPS = st.lists(
    st.tuples(st.sampled_from(["alloc", "touch", "warm"]),
              st.integers(0, 40), st.booleans()),
    max_size=120,
)


@given(st.integers(1, 4), st.integers(1, 4), _TAG_OPS)
def test_tid_way_pick_matches_used_way_scan(num_sets, ways, ops):
    tags = TiDTagArray(num_sets, ways)
    ref = _ScanTagArray(num_sets, ways)
    for op, line, dirty in ops:
        present = tags.lookup(line, touch=False) is not None
        if op == "touch":
            tags.lookup(line)
            ref.lookup(line)
        elif op == "alloc" and not present:
            assert tags.allocate(line, dirty) == ref.allocate(line, dirty)
        elif op == "warm":
            # Four consecutive lines, as a page warms four 1 KB lines.
            tags.warm(line, 4, dirty)
            for line_id in range(line, line + 4):
                rec = ref.sets[line_id % num_sets].get(line_id)
                if rec is None:
                    ref.allocate(line_id, dirty)
                elif dirty:
                    rec[1] = True
        for s, r in zip(tags._sets, ref.sets):
            assert list(s.items()) == list(r.items())
            assert sorted(rec[0] for rec in s.values()) == list(range(len(s)))
