/**
 * @file
 * Tests for the shared LLC (hits, LRU, writebacks, the MSHR file, the
 * tag store against a reference of its replacement policy) and the
 * trace-driven core model (issue/retire discipline, window limits, the
 * window ring's completion tokens).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "core/core.hh"
#include "recording_target.hh"
#include "sim/system.hh"

namespace bh
{
namespace
{

MemSystemConfig
smallMemConfig()
{
    MemSystemConfig cfg;
    cfg.enableEnergy = false;
    cfg.enableHammerObserver = false;
    return cfg;
}

LlcConfig
tinyLlc()
{
    LlcConfig cfg;
    cfg.capacityBytes = 64 * 1024;  // 64 KB, 8-way, 128 sets
    return cfg;
}

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : mem(smallMemConfig(), std::make_unique<NullMitigation>()),
          llc(tinyLlc(), mem)
    {
    }

    void
    runFor(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now) {
            llc.tick(now);
            mem.tick(now);
        }
    }

    /**
     * Tick until a fill lands in `cache`. One channel completes inline
     * at column issue, so the fill's data returns tCL + tBL after the
     * returned tick; -1 if no fill lands.
     */
    Cycle
    runUntilFill(Llc &cache)
    {
        std::uint64_t fills = cache.fills();
        for (Cycle end = now + 1000; now < end; ++now) {
            cache.tick(now);
            mem.tick(now);
            if (cache.fills() != fills)
                return now++;
        }
        return -1;
    }

    /** When a fill that landed at tick `filled` completes its waiters. */
    Cycle
    fillReady(Cycle filled)
    {
        const DramTimings &t = mem.device().timings();
        return filled + t.tCL + t.tBL + tinyLlc().fillLatency;
    }

    MemSystem mem;
    Llc llc;
    Cycle now = 0;
};

TEST_F(CacheTest, MissThenHit)
{
    RecordingTarget rec;
    EXPECT_EQ(llc.access(0x1000, false, 0, now, rec.token()),
              LlcResult::kMiss);
    runFor(300);
    EXPECT_GE(rec.done[0], 0);

    EXPECT_EQ(llc.access(0x1000, false, 0, now, rec.token()),
              LlcResult::kHit);
    EXPECT_EQ(rec.done[1], now + 20);   // default hit latency
}

TEST_F(CacheTest, MshrMergesSameLine)
{
    // One fill serves every access to its line: it completes the
    // waiters in registration order, at its data's return + fillLatency.
    RecordingTarget rec;
    EXPECT_EQ(llc.access(0x2000, false, 0, now, rec.token()),
              LlcResult::kMiss);
    EXPECT_EQ(llc.access(0x2008, true, 1, now, rec.token()),
              LlcResult::kMiss);
    EXPECT_EQ(llc.access(0x2010, false, 2, now, rec.token()),
              LlcResult::kMiss);
    EXPECT_EQ(llc.mshrsInUse(), 1u);    // merged
    Cycle filled = runUntilFill(llc);
    ASSERT_GE(filled, 0);
    EXPECT_EQ(rec.order, (std::vector<std::uint32_t>{0, 1, 2}));
    for (Cycle done : rec.done)
        EXPECT_EQ(done, fillReady(filled));
    EXPECT_EQ(llc.mshrsInUse(), 0u);
}

TEST_F(CacheTest, DirtyEvictionWritesBack)
{
    // Fill one set (8 ways) with dirty lines, then evict.
    // With 128 sets, addresses stride by 128*64 bytes stay in one set.
    const Addr stride = 128 * 64;
    for (int i = 0; i < 8; ++i) {
        llc.access(0x3000 + i * stride, true, 0, now);
        runFor(300);
    }
    EXPECT_EQ(llc.writebacks(), 0u);
    llc.access(0x3000 + 8 * stride, true, 0, now);
    runFor(300);
    EXPECT_EQ(llc.writebacks(), 1u);
}

TEST_F(CacheTest, LruEvictsOldest)
{
    const Addr stride = 128 * 64;
    for (int i = 0; i < 8; ++i) {
        llc.access(0x3000 + i * stride, false, 0, now);
        runFor(300);
    }
    // Touch line 0 to refresh its recency, then insert a 9th line.
    llc.access(0x3000, false, 0, now);
    llc.access(0x3000 + 8 * stride, false, 0, now);
    runFor(300);
    // Line 0 must still hit; line 1 (LRU) must have been evicted.
    EXPECT_EQ(llc.access(0x3000, false, 0, now), LlcResult::kHit);
    EXPECT_EQ(llc.access(0x3000 + stride, false, 0, now),
              LlcResult::kMiss);
}

TEST_F(CacheTest, WriteMissAllocatesDirty)
{
    llc.access(0x4000, true, 0, now);
    runFor(300);
    EXPECT_EQ(llc.misses(), 1u);
    // Evicting it later must produce a writeback (checked via set fill).
    const Addr stride = 128 * 64;
    for (int i = 1; i <= 8; ++i) {
        llc.access(0x4000 + i * stride, false, 0, now);
        runFor(300);
    }
    EXPECT_EQ(llc.writebacks(), 1u);
}

TEST_F(CacheTest, PerThreadStats)
{
    llc.access(0x5000, false, 2, now);
    runFor(300);
    llc.access(0x5000, false, 2, now);
    EXPECT_EQ(llc.threadStats(2).accesses, 2u);
    EXPECT_EQ(llc.threadStats(2).misses, 1u);
    EXPECT_EQ(llc.threadStats(0).accesses, 0u);
}

TEST_F(CacheTest, MshrLimitRejects)
{
    LlcConfig cfg = tinyLlc();
    cfg.mshrs = 2;
    Llc small(cfg, mem);
    RecordingTarget rec;
    EXPECT_EQ(small.access(0x100000, false, 0, now, rec.token()),
              LlcResult::kMiss);
    EXPECT_EQ(small.access(0x200000, false, 0, now, rec.token()),
              LlcResult::kMiss);
    EXPECT_EQ(small.access(0x300000, false, 0, now),
              LlcResult::kReject);
    EXPECT_EQ(small.mshrsInUse(), 2u);

    // A fill frees its entry, and the next miss reuses it: its own
    // fill completes only its own waiter.
    Cycle filled = runUntilFill(small);
    ASSERT_GE(filled, 0);
    EXPECT_EQ(small.mshrsInUse(), 1u);
    ASSERT_EQ(rec.order.size(), 1u);
    EXPECT_EQ(rec.done[rec.order[0]], fillReady(filled));
    EXPECT_EQ(small.access(0x300000, false, 0, now, rec.token()),
              LlcResult::kMiss);
    EXPECT_EQ(small.mshrsInUse(), 2u);
    while (rec.order.size() < 3) {
        std::size_t before = rec.order.size();
        filled = runUntilFill(small);
        ASSERT_GE(filled, 0);
        ASSERT_EQ(rec.order.size(), before + 1);
        EXPECT_EQ(rec.done[rec.order.back()], fillReady(filled));
    }
    EXPECT_EQ(small.mshrsInUse(), 0u);
}

/**
 * The LLC's replacement policy as a line array: 64-bit line tags, one
 * global use counter, and a victim that is the first invalid way or
 * else the way with the smallest `lastUse`.
 */
class ReferenceLlc
{
  public:
    ReferenceLlc(std::size_t sets, unsigned ways)
        : numSets(sets), numWays(ways), lines(sets * ways)
    {
    }

    /** Look `line` up; a hit is marked used, and dirty on a write. */
    bool
    access(Addr line, bool is_write)
    {
        std::size_t base = (line % numSets) * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            Line &l = lines[base + w];
            if (l.valid && l.tag == line) {
                l.lastUse = ++useCounter;
                l.dirty |= is_write;
                ++hits;
                return true;
            }
        }
        ++misses;
        return false;
    }

    /** A fill of `line`: evict the victim, writing it back if dirty. */
    void
    install(Addr line, bool dirty)
    {
        std::size_t base = (line % numSets) * numWays;
        Line *victim = &lines[base];
        for (unsigned w = 0; w < numWays; ++w) {
            Line &l = lines[base + w];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (l.lastUse < victim->lastUse)
                victim = &l;
        }
        if (victim->valid && victim->dirty)
            ++writebacks;
        *victim = Line{line, true, dirty, ++useCounter};
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t numSets;
    unsigned numWays;
    std::vector<Line> lines;
    std::uint64_t useCounter = 0;
};

/** (sets, ways, seed) of one differential run. */
class LlcReferenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, unsigned, std::uint64_t>>
{
};

TEST_P(LlcReferenceTest, TagStoreMatchesLastUsePolicy)
{
    // A seeded stream of reads and writes over distinct lines scattered
    // below 1 GiB, three times the cache's capacity: half of the
    // accesses pick any line of the footprint, half one of the last 16
    // lines accessed, so hits land on every LRU rank. Each miss's fill
    // lands before the next access, so the two caches see the same
    // sequence of lookups and fills.
    auto [sets, ways, seed] = GetParam();
    MemSystem mem(smallMemConfig(), std::make_unique<NullMitigation>());
    LlcConfig cfg;
    cfg.capacityBytes = sets * ways * kLineBytes;
    cfg.ways = ways;
    Llc llc(cfg, mem);
    ReferenceLlc ref(sets, ways);

    Rng rng(seed);
    std::vector<Addr> footprint;
    for (std::size_t i = 0; i < 3 * sets * ways; ++i)
        footprint.push_back(rng.below(Addr{1} << 24));
    std::vector<Addr> recent;
    Cycle now = 0;
    for (std::size_t n = 0; n < 12 * sets * ways + 200; ++n) {
        Addr line = !recent.empty() && rng.chance(0.5)
            ? recent[rng.below(recent.size())]
            : footprint[rng.below(footprint.size())];
        if (recent.size() < 16)
            recent.push_back(line);
        else
            recent[n % 16] = line;
        bool is_write = rng.chance(0.3);
        bool hit = ref.access(line, is_write);
        Addr addr = line * kLineBytes + rng.below(kLineBytes);
        ASSERT_EQ(llc.access(addr, is_write, 0, now),
                  hit ? LlcResult::kHit : LlcResult::kMiss)
            << "access " << n << " line " << line;
        if (!hit) {
            std::uint64_t fills = llc.fills();
            for (Cycle end = now + 100000;
                 llc.fills() == fills && now < end; ++now) {
                llc.tick(now);
                mem.tick(now);
            }
            ASSERT_NE(llc.fills(), fills) << "access " << n;
            ref.install(line, is_write);
        }
        ASSERT_TRUE(llc.quiet()) << "access " << n;
        ASSERT_EQ(llc.hits(), ref.hits) << "access " << n;
        ASSERT_EQ(llc.misses(), ref.misses) << "access " << n;
        ASSERT_EQ(llc.writebacks(), ref.writebacks) << "access " << n;
    }
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LlcReferenceTest,
    ::testing::Values(std::make_tuple(std::size_t{1}, 1u, 1ull),
                      std::make_tuple(std::size_t{4}, 4u, 2ull),
                      std::make_tuple(std::size_t{128}, 8u, 3ull)));

TEST(LlcDeathTest, GeometryOutsideTheTagStoreIsFatal)
{
    MemSystem mem(smallMemConfig(), std::make_unique<NullMitigation>());
    LlcConfig three_sets;
    three_sets.capacityBytes = 3 * 8 * kLineBytes;
    EXPECT_EXIT(Llc(three_sets, mem), ::testing::ExitedWithCode(1),
                "power of two");
    LlcConfig wide;
    wide.ways = 256;
    wide.capacityBytes = 256 * kLineBytes;
    EXPECT_EXIT(Llc(wide, mem), ::testing::ExitedWithCode(1), "ways");
}

TEST(LlcDeathTest, TagWiderThan32BitsPanics)
{
    // One set: the tag is the whole line address, which fits 32 bits
    // up to 2^38 B.
    MemSystem mem(smallMemConfig(), std::make_unique<NullMitigation>());
    LlcConfig cfg;
    cfg.capacityBytes = kLineBytes;
    cfg.ways = 1;
    Llc llc(cfg, mem);
    EXPECT_EQ(llc.access((Addr{1} << 38) - kLineBytes, false, 0, 0),
              LlcResult::kMiss);
    EXPECT_DEATH(llc.access(Addr{1} << 38, false, 0, 0), "32 bits");
}

/** Scripted trace source for core tests. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<TraceEntry> entries)
        : list(std::move(entries))
    {
    }

    bool
    next(TraceEntry &entry) override
    {
        if (pos >= list.size())
            return false;
        entry = list[pos++];
        return true;
    }

    void reset() override { pos = 0; }

  private:
    std::vector<TraceEntry> list;
    std::size_t pos = 0;
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : mem(smallMemConfig(), std::make_unique<NullMitigation>())
    {
    }

    void
    runSystem(Core &core, Llc *llc, Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            core.tick(c);
            if (llc)
                llc->tick(c);
            mem.tick(c);
        }
    }

    MemSystem mem;
};

TEST_F(CoreTest, BubblesRetireAtIssueWidth)
{
    // 400 pure-compute instructions at 4-wide: ~100 cycles.
    VectorTrace trace({TraceEntry{400, false, false, false, 0}});
    CoreConfig cfg;
    Core core(cfg, 0, trace, nullptr, mem);
    runSystem(core, nullptr, 110);
    EXPECT_EQ(core.retired(), 400u);
    EXPECT_TRUE(core.done());
}

TEST_F(CoreTest, MemOpBlocksRetirementUntilDone)
{
    VectorTrace trace({TraceEntry{0, true, false, true, 0x100}});
    CoreConfig cfg;
    Core core(cfg, 0, trace, nullptr, mem);
    core.tick(0);
    EXPECT_EQ(core.retired(), 0u);
    runSystem(core, nullptr, 300);
    EXPECT_EQ(core.retired(), 1u);
    EXPECT_EQ(core.memOps(), 1u);
}

TEST_F(CoreTest, WindowLimitsOutstandingWork)
{
    // A trace of 1000 dependent-free bypass reads: the 128-entry window
    // and MSHR cap bound how far the core runs ahead.
    std::vector<TraceEntry> entries(
        1000, TraceEntry{0, true, false, true, 0});
    for (std::size_t i = 0; i < entries.size(); ++i)
        entries[i].addr = 0x100000 + i * kLineBytes;
    VectorTrace trace(std::move(entries));
    CoreConfig cfg;
    Core core(cfg, 0, trace, nullptr, mem);
    core.tick(0);
    core.tick(1);
    // Nothing retired yet, so issue stops at the MSHR cap.
    EXPECT_LE(core.memOps(), cfg.maxOutstandingMem);
}

TEST_F(CoreTest, PostedWritesDoNotBlock)
{
    std::vector<TraceEntry> entries(
        10, TraceEntry{0, true, true, true, 0x9000});
    VectorTrace trace(std::move(entries));
    CoreConfig cfg;
    Core core(cfg, 0, trace, nullptr, mem);
    runSystem(core, nullptr, 50);
    EXPECT_EQ(core.retired(), 10u);
}

TEST_F(CoreTest, CachedReadsGoThroughLlc)
{
    Llc llc(tinyLlc(), mem);
    // The last five reads come 200 instructions apart, after the fill:
    // they hit, completing their tokens while they issue.
    std::vector<TraceEntry> entries(
        20, TraceEntry{0, true, false, false, 0x8000});
    for (std::size_t i = 15; i < entries.size(); ++i)
        entries[i].bubbles = 200;
    VectorTrace trace(std::move(entries));
    CoreConfig cfg;
    Core core(cfg, 0, trace, &llc, mem);
    runSystem(core, &llc, 600);
    EXPECT_EQ(core.retired(), 20u + 5 * 200);
    EXPECT_TRUE(core.done());
    // All 20 accesses hit one line: whatever the MSHR-merge split between
    // "hit" and "merged miss", exactly one DRAM fill must be issued. The
    // controller classifies each served column command once.
    EXPECT_EQ(llc.hits() + llc.misses(), 20u);
    EXPECT_GE(llc.hits(), 5u);
    const MemController &mc = mem.controller();
    EXPECT_EQ(mc.threadStats(0).reads, 1u);
    EXPECT_EQ(mc.rowHits() + mc.rowMisses() + mc.rowConflicts(), 1u);
}

TEST_F(CoreTest, DoneAfterTraceEnds)
{
    VectorTrace trace({TraceEntry{4, false, false, false, 0}});
    CoreConfig cfg;
    Core core(cfg, 0, trace, nullptr, mem);
    runSystem(core, nullptr, 20);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.retired(), 4u);
}

TEST_F(CoreTest, StallCyclesCountRejections)
{
    // Quota 0 blocks every submit: the core must record stalls.
    MemSystemConfig cfg = smallMemConfig();
    class ZeroQuota : public Mitigation
    {
      public:
        std::string name() const override { return "zero"; }
        int quota(ThreadId, unsigned) const override { return 0; }
    };
    MemSystem blocked_mem(cfg, std::make_unique<ZeroQuota>());
    VectorTrace trace({TraceEntry{0, true, false, true, 0x100}});
    CoreConfig core_cfg;
    Core core(core_cfg, 0, trace, nullptr, blocked_mem);
    for (Cycle c = 0; c < 100; ++c)
        core.tick(c);
    EXPECT_GT(core.stallCycles(), 90u);
    EXPECT_EQ(core.retired(), 0u);
}

/**
 * The window ring's tokens under out-of-order completions: a core with
 * a 4-entry window issues 40 bypass reads to different banks and rows,
 * ten trips around the ring. A twin memory system gets the same reads
 * at the same cycles with recording tokens, so it knows when each op's
 * data returns. Every op must retire in order, never before then. One
 * channel completes inline at column issue; two go through the
 * delivery heap.
 */
void
checkWindowTokens(unsigned channels)
{
    MemSystemConfig cfg = smallMemConfig();
    cfg.org = DramOrg::paperConfig(channels);
    auto build = [&] {
        std::vector<std::unique_ptr<Mitigation>> m;
        for (unsigned ch = 0; ch < channels; ++ch)
            m.push_back(std::make_unique<NullMitigation>());
        return std::make_unique<MemSystem>(cfg, std::move(m));
    };
    auto mem = build();
    auto twin = build();
    std::vector<TraceEntry> ops;
    for (unsigned i = 0; i < 40; ++i) {
        DramCoord c;
        // Four ops per bank, two rows alternating: FR-FCFS serves the
        // third (a row hit) before the second (a conflict).
        c.channel = (i / 4) % channels;
        c.bankGroup = (i / 4) % 3;
        c.row = 100 + i % 2;
        ops.push_back(TraceEntry{0, true, false, true,
                                 mem->mapper().encode(c)});
    }
    VectorTrace trace(ops);
    CoreConfig core_cfg;
    core_cfg.windowSize = 4;
    core_cfg.maxOutstandingMem = 4;
    Core core(core_cfg, 0, trace, nullptr, *mem);

    RecordingTarget data;
    std::vector<Cycle> retired_at;
    for (Cycle c = 0; c < 5000 && !core.done(); ++c) {
        mem->deliverCompletionsDue(c);
        twin->deliverCompletionsDue(c);
        std::uint64_t issued = core.memOps();
        core.tick(c);
        for (std::uint64_t k = issued; k < core.memOps(); ++k) {
            Request req;
            req.addr = ops[k].addr;
            req.thread = 0;
            req.arrival = c;
            req.completion = data.token();
            ASSERT_EQ(twin->submit(req), SubmitResult::kAccepted);
        }
        retired_at.resize(core.retired(), c);
        mem->tick(c);
        twin->tick(c);
    }
    ASSERT_TRUE(core.done());
    ASSERT_EQ(retired_at.size(), ops.size());
    bool out_of_order = false;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        EXPECT_GE(data.done[k], 0) << "op " << k;
        EXPECT_GE(retired_at[k], data.done[k]) << "op " << k;
        out_of_order |= k > 0 && data.done[k] < data.done[k - 1];
    }
    EXPECT_TRUE(out_of_order);
}

TEST(CoreWindowTokens, InlineCompletions) { checkWindowTokens(1); }

TEST(CoreWindowTokens, DeliveryHeap) { checkWindowTokens(2); }

TEST(SystemDeathTest, SetTraceAfterRunIsFatal)
{
    SystemConfig cfg;
    cfg.threads = 1;
    cfg.llc = tinyLlc();
    System system(cfg, std::make_unique<NullMitigation>());
    auto compute = [] {
        return std::make_unique<VectorTrace>(
            std::vector<TraceEntry>{TraceEntry{400, false, false, false, 0}});
    };
    system.setTrace(0, compute());
    system.setTrace(0, compute());      // before the first run: fine
    system.run(10);
    EXPECT_DEATH(system.setTrace(0, compute()), "after the system ran");
}

} // namespace
} // namespace bh
