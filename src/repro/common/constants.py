"""Architectural constants shared by every subsystem.

All latency constants come from the swap-path breakdown in Section II-A of
the HoPP paper (HPCA 2023) and are expressed in microseconds of simulated
virtual time.  All geometry constants (page/cacheline sizes, table shapes)
come from Section III.
"""

# ---------------------------------------------------------------------------
# Address geometry.
# ---------------------------------------------------------------------------

#: Bytes per 4 KB page (log2).
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Bytes per cacheline (log2).
BLOCK_SHIFT = 6
BLOCK_SIZE = 1 << BLOCK_SHIFT

#: Cachelines per page.  A 4 KB page holds 64 blocks, which bounds the HPD
#: hot-page threshold N to [1, 64] (Section III-B).
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE

#: Huge page sizes supported by the reverse page table (Section III-C).
HUGE_PAGE_2M_SHIFT = 21
HUGE_PAGE_1G_SHIFT = 30

# ---------------------------------------------------------------------------
# Swap-path latencies, Section II-A, in microseconds.
# ---------------------------------------------------------------------------

#: Step 1 - page-fault context switch.
T_CONTEXT_SWITCH_US = 0.3

#: Step 2 - kernel page-table walk to locate the PTE.
T_PTE_WALK_US = 0.6

#: Step 3 - swapcache query + page/swap-entry allocation.
T_SWAPCACHE_OP_US = 0.4

#: Step 4 - one 4 KB page over RDMA (56 Gbps fabric, paper's testbed).
T_RDMA_PAGE_US = 4.0

#: Step 5 - per-page amortized reclaim cost.  Since Linux v5.8 reclaim runs
#: ahead of the fault, so only a small residue lands on the critical path.
T_RECLAIM_PER_PAGE_US = 2.0
T_RECLAIM_CRITICAL_RESIDUE_US = 0.0

#: Step 6 - establish the PTE and return to user space.
T_PTE_SET_US = 1.0

#: A prefetch-hit still takes a synchronous fault into the swapcache
#: (Section II-C): context switch + walk + swapcache lookup + PTE set.
T_PREFETCH_HIT_US = (
    T_CONTEXT_SWITCH_US + T_PTE_WALK_US + T_SWAPCACHE_OP_US + T_PTE_SET_US
)

#: Full remote fault on the critical path (steps 1-4 and 6; reclaim is
#: asynchronous post-v5.8).  This is the paper's 8.3 us side of the
#: "8.3 to 11.3 us" range.
T_REMOTE_FAULT_US = (
    T_CONTEXT_SWITCH_US
    + T_PTE_WALK_US
    + T_SWAPCACHE_OP_US
    + T_RDMA_PAGE_US
    + T_PTE_SET_US
)

#: An LLC miss served by local DRAM (Section II-C's "DRAM-hit").
T_DRAM_HIT_US = 0.1

#: First touch of a page: allocate and zero a local frame (minor fault).
T_MINOR_FAULT_US = 1.9

#: CPU cost of posting one prefetch READ from *inside the fault handler*
#: (swapcache entry allocation + RDMA verb post).  Fault-time
#: prefetchers (Fastswap, Leap, Depth-N) pay this on the critical path
#: for every page in their window; HoPP's execution engine issues from
#: its own data plane and does not (Section III's separate data path).
T_PREFETCH_ISSUE_US = 0.35

# ---------------------------------------------------------------------------
# HoPP hardware geometry, Section III-B / III-C defaults.
# ---------------------------------------------------------------------------

#: Hot Page Detection table: 16-way, 4-set associative cache (M = 64).
HPD_WAYS = 16
HPD_SETS = 4

#: Hot-page threshold: a page is extracted after N READ misses.
HPD_THRESHOLD = 8

#: Reverse-page-table cache: 64 KB, 16-way; each entry is 8 bytes.
RPT_CACHE_KB = 64
RPT_CACHE_WAYS = 16
RPT_ENTRY_BYTES = 8

#: RPT entry field widths (Figure 6): 16-bit PID, 40-bit VPN, 1-bit shared
#: flag, 2-bit huge-page flag (4K / 2M / 1G), padded to 64 bits.
RPT_PID_BITS = 16
RPT_VPN_BITS = 40

#: Bytes written to the hot-page DRAM area per extracted hot page
#: (PID + VPN combo, one RPT-entry-sized record).
HOT_PAGE_RECORD_BYTES = 8

# ---------------------------------------------------------------------------
# HoPP software defaults, Section III-D / III-E.
# ---------------------------------------------------------------------------

#: Stream Training Table entries.
STT_ENTRIES = 64

#: VPN history length per stream (L).  A stream is identified once the
#: history is full; the dominant stride must occur >= L/2 times.
STT_HISTORY_LEN = 16

#: A new hot page joins a stream when its VPN is within this many pages of
#: the stream's most recent VPN (Delta_stream).
STT_STREAM_DELTA = 64

#: LSP target-pattern length (M): consecutive strides forming the pattern.
LSP_PATTERN_LEN = 2

#: RSP out-of-order tolerance: cumulative strides within +/- max_stride
#: count as a return to the ripple stream.
RSP_MAX_STRIDE = 2

#: Policy engine defaults (Section III-E).
POLICY_ALPHA = 0.2
POLICY_OFFSET_MAX = 1024
POLICY_T_MIN_US = 40.0
POLICY_T_MAX_US = 5_000.0
POLICY_DEFAULT_INTENSITY = 1
