/**
 * @file
 * Unit tests for the six baseline mitigation mechanisms, driven through a
 * recording stub controller, and for the Misra-Gries table Graphene,
 * DAPPER and ABACuS share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/ordered.hh"
#include "common/rng.hh"
#include "mem/controller.hh"
#include "mitigations/cbt.hh"
#include "mitigations/graphene.hh"
#include "mitigations/misra_gries.hh"
#include "mitigations/mrloc.hh"
#include "mitigations/para.hh"
#include "mitigations/prohit.hh"
#include "mitigations/settings.hh"
#include "mitigations/twice.hh"
#include "sim/experiment.hh"

namespace bh
{
namespace
{

/** Records victim refreshes that mechanisms schedule. */
class RecordingController
{
  public:
    RecordingController()
        : timings(DramTimings::ddr4()),
          dev(DramOrg::paperConfig(), timings), nullMitig(),
          ctrl(dev, ControllerConfig{}, nullMitig, nullptr, nullptr)
    {
    }

    DramTimings timings;
    DramDevice dev;
    NullMitigation nullMitig;
    MemController ctrl;
};

MitigationSettings
tinySettings(std::uint32_t n_rh = 1024)
{
    MitigationSettings s;
    s.nRH = n_rh;
    s.blastRadius = 1;
    s.timings = DramTimings::ddr4();
    s.banks = 16;
    s.rowsPerBank = 65536;
    s.threads = 8;
    s.seed = 7;
    return s;
}

TEST(Para, ProbabilityForPaperThreshold)
{
    // (1 - p/2)^16384 <= 1e-15  =>  p ~ 0.0042 for N_RH* = 16K.
    double p = Para::solveProbability(16384);
    EXPECT_NEAR(p, 0.0042, 0.0004);
    EXPECT_NEAR(std::pow(1.0 - p / 2.0, 16384), 1e-15, 1e-16);
}

TEST(Para, ProbabilityGrowsAsThresholdShrinks)
{
    EXPECT_GT(Para::solveProbability(512), Para::solveProbability(16384));
    EXPECT_LE(Para::solveProbability(2), 1.0);
}

TEST(Para, RefreshRateMatchesProbability)
{
    RecordingController rc;
    Para para(tinySettings(4096));
    para.setController(&rc.ctrl);
    const int acts = 50000;
    for (int i = 0; i < acts; ++i)
        para.onActivate(i % 16, 1000 + (i % 7), 0, i);
    double rate = static_cast<double>(para.refreshesIssued()) / acts;
    EXPECT_NEAR(rate, para.probability(), 0.15 * para.probability());
}

TEST(Para, RefreshTargetsNeighbors)
{
    RecordingController rc;
    Para para(tinySettings(64));    // high probability
    para.setController(&rc.ctrl);
    for (int i = 0; i < 100; ++i)
        para.onActivate(3, 500, 0, i);
    EXPECT_GT(rc.ctrl.pendingVictimRefreshes(), 0u);
}

TEST(Prohit, InsertionIsProbabilistic)
{
    RecordingController rc;
    Prohit ph(tinySettings());
    ph.setController(&rc.ctrl);
    // One activation rarely inserts (p = 1/16); hammering inserts surely.
    for (int i = 0; i < 200; ++i)
        ph.onActivate(0, 42, 0, i);
    ph.onAutoRefresh(0, 8, 1000);
    // Row 42 should have reached the hot queue and its neighbors been
    // refreshed.
    EXPECT_GE(ph.refreshesIssued(), 2u);
}

TEST(Prohit, HotQueueServedOnRefresh)
{
    RecordingController rc;
    Prohit ph(tinySettings());
    ph.setController(&rc.ctrl);
    for (int i = 0; i < 500; ++i)
        ph.onActivate(1, 77, 0, i);
    auto before = rc.ctrl.pendingVictimRefreshes();
    ph.onAutoRefresh(0, 8, 1000);
    EXPECT_GT(rc.ctrl.pendingVictimRefreshes(), before);
}

TEST(MrLoc, LocalityRaisesProbability)
{
    // A hammered victim (high locality) should be refreshed much more
    // often than PARA's base rate.
    RecordingController rc;
    MrLoc ml(tinySettings(8192));
    ml.setController(&rc.ctrl);
    const int acts = 20000;
    for (int i = 0; i < acts; ++i)
        ml.onActivate(0, 1000, 0, i);   // always the same aggressor
    double rate = static_cast<double>(ml.refreshesIssued()) / acts;
    EXPECT_GT(rate, ml.baseProbability());
}

TEST(MrLoc, ColdVictimsGetBaseRate)
{
    RecordingController rc;
    MrLoc ml(tinySettings(8192));
    ml.setController(&rc.ctrl);
    const int acts = 40000;
    for (int i = 0; i < acts; ++i)
        ml.onActivate(i % 16, (i * 37) % 60000, 0, i);  // no locality
    double rate = static_cast<double>(ml.refreshesIssued()) / acts;
    EXPECT_NEAR(rate, ml.baseProbability(), 0.4 * ml.baseProbability());
}

TEST(Cbt, ThresholdLadderDoublesPerLevel)
{
    Cbt cbt(tinySettings(32768));
    const auto &thr = cbt.thresholds();
    ASSERT_EQ(thr.size(), 6u);
    for (std::size_t l = 1; l < thr.size(); ++l)
        EXPECT_EQ(thr[l], thr[l - 1] * 2);
    // Leaf threshold = effective budget / 2 = 32768/2/2.
    EXPECT_EQ(thr.back(), 8192u);
}

TEST(Cbt, AutoDepthGrowsAtLowerThresholds)
{
    Cbt big(tinySettings(32768));
    Cbt small(tinySettings(1024));
    EXPECT_GT(small.thresholds().size(), big.thresholds().size());
}

TEST(Cbt, HammeredRegionGetsRefreshed)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Cbt cbt(s);
    cbt.setController(&rc.ctrl);
    for (int i = 0; i < 20000; ++i)
        cbt.onActivate(0, 4096, 0, i);
    EXPECT_GT(cbt.regionRefreshes(), 0u);
    EXPECT_GT(cbt.rowsRefreshed(), 0u);
}

TEST(Cbt, SpreadAccessesDoNotTriggerRefreshes)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(32768);
    Cbt cbt(s);
    cbt.setController(&rc.ctrl);
    // Benign-like: 100K activations spread across the whole bank.
    Rng rng(5);
    for (int i = 0; i < 100000; ++i)
        cbt.onActivate(0, static_cast<RowId>(rng.below(65536)), 0, i);
    EXPECT_EQ(cbt.regionRefreshes(), 0u);
}

TEST(Cbt, WindowResetCollapsesTree)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Cbt cbt(s);
    cbt.setController(&rc.ctrl);
    for (int i = 0; i < 5000; ++i)
        cbt.onActivate(0, 4096, 0, i);
    auto before = cbt.regionRefreshes();
    cbt.tick(s.timings.tREFW + 1);
    // After the reset the same row must climb the ladder again from zero.
    for (int i = 0; i < 100; ++i)
        cbt.onActivate(0, 4096, 0, i);
    EXPECT_EQ(cbt.regionRefreshes(), before);
}

TEST(Twice, RefreshesNeighborsAtThreshold)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Twice tw(s);
    tw.setController(&rc.ctrl);
    EXPECT_EQ(tw.refreshThreshold(), 256u);     // effN/2 = 512/2
    for (unsigned i = 0; i < tw.refreshThreshold(); ++i)
        tw.onActivate(0, 100, 0, i);
    EXPECT_EQ(tw.refreshesIssued(), 2u);        // rows 99 and 101
    EXPECT_EQ(rc.ctrl.pendingVictimRefreshes(), 2u);
}

TEST(Twice, PruningDropsSlowRows)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Twice tw(s);
    tw.setController(&rc.ctrl);
    // One activation, then many pruning intervals: entry must go.
    tw.onActivate(0, 100, 0, 0);
    EXPECT_EQ(tw.tableEntries(), 1u);
    for (int i = 0; i < 50; ++i)
        tw.onAutoRefresh(0, 8, i);
    EXPECT_EQ(tw.tableEntries(), 0u);
    EXPECT_GT(tw.pruned(), 0u);
}

TEST(Twice, FastRowSurvivesPruning)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Twice tw(s);
    tw.setController(&rc.ctrl);
    // Activate at a pace well above the pruning threshold.
    for (int interval = 0; interval < 10; ++interval) {
        for (int i = 0; i < 20; ++i)
            tw.onActivate(0, 100, 0, interval * 100 + i);
        tw.onAutoRefresh(0, 8, interval);
        if (tw.refreshesIssued() > 0)
            break;  // reached the refresh threshold already
        EXPECT_EQ(tw.tableEntries(), 1u) << "interval " << interval;
    }
}

TEST(Twice, PeakOccupancyTracked)
{
    RecordingController rc;
    Twice tw(tinySettings(32768));
    tw.setController(&rc.ctrl);
    for (int r = 0; r < 100; ++r)
        tw.onActivate(0, static_cast<RowId>(r), 0, r);
    EXPECT_GE(tw.peakTableEntries(), 100u);
}

TEST(Graphene, TableSizeFollowsMisraGries)
{
    MitigationSettings s = tinySettings(32768);
    Graphene g(s);
    // W = tREFW / tRC, T = effN/2 = 8K: N = ceil(W/T) + 1.
    auto w = static_cast<double>(s.timings.tREFW) / s.timings.tRC;
    EXPECT_NEAR(g.tableSize(), w / 8192.0 + 1.5, 2.0);
    EXPECT_EQ(g.threshold(), 8192u);
}

TEST(Graphene, HotRowTriggersPeriodicRefreshes)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Graphene g(s);
    g.setController(&rc.ctrl);
    // T = 256: 1024 activations => 4 trigger points x 2 neighbors.
    for (int i = 0; i < 1024; ++i)
        g.onActivate(0, 500, 0, i);
    EXPECT_EQ(g.refreshesIssued(), 8u);
}

TEST(Graphene, MisraGriesNeverMissesFrequentRow)
{
    // Core Misra-Gries guarantee: any row activated more than T times in
    // the window triggers at least one refresh, regardless of how much
    // other traffic floods the table.
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Graphene g(s);
    g.setController(&rc.ctrl);
    Rng rng(11);
    unsigned hot_acts = 0;
    for (int i = 0; i < 200000; ++i) {
        if (i % 100 == 0) {
            g.onActivate(0, 777, 0, i);     // hot row, 1% of traffic
            ++hot_acts;
        } else {
            g.onActivate(0, static_cast<RowId>(rng.below(60000)), 0, i);
        }
    }
    ASSERT_GT(hot_acts, g.threshold());
    EXPECT_GT(g.refreshesIssued(), 0u);
}

TEST(Graphene, WindowResetClearsCounts)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(1024);
    Graphene g(s);
    g.setController(&rc.ctrl);
    for (int i = 0; i < 200; ++i)
        g.onActivate(0, 500, 0, i);
    g.tick(s.timings.tREFW + 1);
    auto before = g.refreshesIssued();
    for (int i = 0; i < 200; ++i)
        g.onActivate(0, 500, 0, i);
    // 200 + 200 < 2T after reset: no new trigger from stale counts.
    EXPECT_EQ(g.refreshesIssued(), before);
}

TEST(NeighborRefreshes, StayInsideTheBank)
{
    RecordingController rc;
    MitigationSettings s = tinySettings();
    s.blastRadius = 2;
    // Row 1 has one neighbour below it and two above.
    EXPECT_EQ(scheduleNeighborRefreshes(rc.ctrl, s, 3, 1), 3u);
    EXPECT_EQ(scheduleNeighborRefreshes(rc.ctrl, s, 3, s.rowsPerBank - 1),
              2u);
    EXPECT_EQ(scheduleNeighborRefreshes(rc.ctrl, s, 3, 500), 4u);
    EXPECT_EQ(rc.ctrl.victimRefreshesScheduled(), 9u);
}

// ---- the shared Misra-Gries table against the code it replaced -------

/**
 * The spillover code Graphene, DAPPER and ABACuS each carried before
 * they shared MisraGriesTable: an unordered_map and a minimum walk over
 * its key-sorted copy (first strictly smaller count wins, so ties go to
 * the lowest row).
 */
struct ReferenceMisraGries
{
    std::unordered_map<RowId, std::uint32_t> counts;
    std::uint32_t spillover = 0;

    /** A miss on a full table; true when `row` was installed. */
    bool
    spill(RowId row, RowId &displaced, std::uint32_t &installed)
    {
        ++spillover;
        RowId minRow = 0;
        std::uint32_t minCount = 0;
        bool haveMin = false;
        for (const auto &item : sortedItems(counts)) {
            if (!haveMin || item.second < minCount) {
                minRow = item.first;
                minCount = item.second;
                haveMin = true;
            }
        }
        if (!haveMin || spillover < minCount)
            return false;
        counts.erase(minRow);
        counts.emplace(row, spillover + 1);
        spillover = minCount;
        displaced = minRow;
        installed = counts[row];
        return true;
    }

    void
    clear()
    {
        counts.clear();
        spillover = 0;
    }
};

std::vector<std::pair<RowId, std::uint32_t>>
sortedEntries(const MisraGriesTable &table)
{
    std::vector<std::pair<RowId, std::uint32_t>> out;
    for (const auto &e : table.items())
        out.emplace_back(e.row, e.count);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(MisraGriesTable, MatchesSortedWalkReference)
{
    // Phases alternate between a hot set the table can hold and a range
    // three times its size. Hits bump the count only half the time
    // (ABACuS's SAV path) and inserts start at 0 or 1 (ABACuS's RAC vs
    // Graphene's count), so counts tie constantly and spills exercise
    // the tie-break; the spillover both does and does not catch up.
    for (unsigned capacity : {1u, 2u, 7u, 170u}) {
        for (std::uint64_t seed : {3ull, 29ull}) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << capacity << " seed " << seed);
            Rng rng(seed * 1000 + capacity);
            MisraGriesTable table(capacity);
            ReferenceMisraGries ref;
            unsigned spills = 0;
            unsigned installs = 0;
            // Each hot phase opens with a window reset (clear()), so the
            // hot set refills the table and climbs clear of the
            // spillover before the cold phase spills into it.
            const int phase = 20 * static_cast<int>(capacity) + 500;
            for (int step = 0; step < 20000; ++step) {
                bool hotPhase = (step / phase) % 2 == 0;
                if (hotPhase && step % phase == 0) {
                    table.clear();
                    ref.clear();
                }
                auto row = static_cast<RowId>(
                    rng.below(hotPhase ? capacity : 3 * capacity + 3));
                auto *hit = table.find(row);
                auto refHit = ref.counts.find(row);
                ASSERT_EQ(hit != nullptr, refHit != ref.counts.end());
                if (hit) {
                    std::uint32_t bump = rng.below(2) ? 1 : 0;
                    hit->count += bump;
                    refHit->second += bump;
                } else if (table.hasRoom()) {
                    ASSERT_LT(ref.counts.size(), capacity);
                    auto initial = static_cast<std::uint32_t>(rng.below(2));
                    table.insert(row, initial, row);
                    ref.counts.emplace(row, initial);
                } else {
                    ASSERT_EQ(ref.counts.size(), capacity);
                    ++spills;
                    auto before = sortedEntries(table);
                    RowId refDisplaced = 0;
                    std::uint32_t refInstalled = 0;
                    bool refIn = ref.spill(row, refDisplaced, refInstalled);
                    auto *e = table.spill(row, ~std::uint64_t{0});
                    ASSERT_EQ(e != nullptr, refIn);
                    if (e) {
                        ++installs;
                        EXPECT_EQ(e->row, row);
                        EXPECT_EQ(e->count, refInstalled);
                        EXPECT_EQ(e->word, ~std::uint64_t{0});
                        RowId displaced = 0;
                        for (const auto &[r, c] : before)
                            if (!table.find(r))
                                displaced = r;
                        EXPECT_EQ(displaced, refDisplaced);
                    }
                }
                ASSERT_EQ(table.spillover(), ref.spillover);
                ASSERT_EQ(sortedEntries(table), sortedItems(ref.counts));
            }
            // The stream must exercise both spill outcomes.
            EXPECT_GT(installs, 0u);
            EXPECT_GT(spills, installs);
        }
    }
}

/**
 * End-to-end MRLoc run under an active RowHammer attack (folded in from
 * the examples/_dbg_mrloc.cc debug scratch): the full system must keep
 * the victim-refresh pipeline draining and the hammer observer clean.
 */
TEST(MrLoc, FullSystemAttackRunDrainsVictimRefreshes)
{
    setVerbose(false);
    ExperimentConfig cfg;
    cfg.mechanism = "MRLoc";
    cfg.threads = 4;
    cfg.nRH = 512;
    cfg.refwMs = 0.25;
    cfg.warmupCycles = 100000;
    cfg.runCycles = 700000;
    cfg.attack.numBanks = 4;

    MixSpec mix;
    mix.name = "am";
    mix.apps = {kAttackAppName, "444.namd", "435.gromacs", "456.hmmer"};
    auto sys = buildSystem(cfg, mix);
    sys->run(cfg.warmupCycles + cfg.runCycles);

    auto *observer = sys->mem().hammerObserver();
    ASSERT_NE(observer, nullptr);
    // The attack thread must actually hammer...
    EXPECT_GT(observer->activationCount(), 1000u);
    EXPECT_GT(observer->maxRowActivations(), cfg.nRH / 2);
    // ...and MRLoc must respond with victim refreshes that keep the
    // pending queue bounded (the erase path drains what it schedules).
    EXPECT_GT(sys->mem().controller().victimRefreshesDone(), 0u);
    EXPECT_LT(sys->mem().controller().pendingVictimRefreshes(), 100u);
    // No bit flip may slip through at this threshold.
    EXPECT_EQ(observer->bitFlips().size(), 0u);
}

} // namespace
} // namespace bh
