/**
 * @file
 * Tests for the RowHammer failure oracle (disturbance accumulation, blast
 * radius, refresh resets) and the DRAM energy model.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <set>
#include <utility>

#include "common/rng.hh"
#include "dram/device.hh"
#include "dram/energy.hh"
#include "dram/hammer_observer.hh"

namespace bh
{
namespace
{

HammerConfig
smallConfig(std::uint32_t n_rh = 100, unsigned radius = 1)
{
    HammerConfig cfg;
    cfg.nRH = n_rh;
    cfg.blastRadius = radius;
    cfg.blastImpactBase = 0.5;
    return cfg;
}

TEST(HammerObserver, AdjacentDisturbanceTriggersFlipAtThreshold)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(100));
    for (int i = 0; i < 99; ++i)
        obs.onActivate(0, 10, i);
    EXPECT_TRUE(obs.bitFlips().empty());
    obs.onActivate(0, 10, 99);
    ASSERT_EQ(obs.bitFlips().size(), 2u);    // rows 9 and 11
    EXPECT_EQ(obs.bitFlips()[0].victimRow, 9u);
    EXPECT_EQ(obs.bitFlips()[1].victimRow, 11u);
}

TEST(HammerObserver, DoubleSidedHalvesRequiredActs)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(100));
    // Aggressors 9 and 11 around victim 10: each act adds 1 to the victim.
    for (int i = 0; i < 25; ++i) {
        obs.onActivate(0, 9, 2 * i);
        obs.onActivate(0, 11, 2 * i + 1);
    }
    EXPECT_TRUE(obs.bitFlips().empty());
    for (int i = 25; i < 50; ++i) {
        obs.onActivate(0, 9, 2 * i);
        obs.onActivate(0, 11, 2 * i + 1);
    }
    bool victim_flipped = false;
    for (const auto &f : obs.bitFlips())
        victim_flipped |= (f.victimRow == 10);
    EXPECT_TRUE(victim_flipped);
}

TEST(HammerObserver, RefreshResetsDisturbance)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(100));
    for (int i = 0; i < 80; ++i)
        obs.onActivate(0, 10, i);
    obs.onRowRefresh(0, 9);
    obs.onRowRefresh(0, 11);
    for (int i = 0; i < 80; ++i)
        obs.onActivate(0, 10, 100 + i);
    EXPECT_TRUE(obs.bitFlips().empty());
}

TEST(HammerObserver, BlastRadiusDecay)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(100, 3));
    // Hammer row 20: victims at distance 1 (impact 1), 2 (0.5), 3 (0.25).
    for (int i = 0; i < 100; ++i)
        obs.onActivate(0, 20, i);
    // Only the distance-1 victims reach 100 disturbance.
    std::set<RowId> flipped;
    for (const auto &f : obs.bitFlips())
        flipped.insert(f.victimRow);
    EXPECT_TRUE(flipped.count(19));
    EXPECT_TRUE(flipped.count(21));
    EXPECT_FALSE(flipped.count(22));
    EXPECT_FALSE(flipped.count(23));
    // 100 more acts push the distance-2 victims (0.5 each) to 100.
    for (int i = 0; i < 100; ++i)
        obs.onActivate(0, 20, 100 + i);
    flipped.clear();
    for (const auto &f : obs.bitFlips())
        flipped.insert(f.victimRow);
    EXPECT_TRUE(flipped.count(18));
    EXPECT_TRUE(flipped.count(22));
}

TEST(HammerObserver, AutoRefreshSweepResetsRange)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(100));
    for (int i = 0; i < 90; ++i)
        obs.onActivate(0, 10, i);
    obs.onAutoRefresh(8, 8);    // rows 8..15 in all banks
    for (int i = 0; i < 90; ++i)
        obs.onActivate(0, 10, 200 + i);
    EXPECT_TRUE(obs.bitFlips().empty());
}

/** Hammer a seeded stream of random (bank, row) activations. */
void
hammerSeeded(HammerObserver &obs, const DramOrg &org, std::uint64_t seed,
             Cycle start)
{
    Rng rng(seed);
    for (Cycle t = start; t < start + 6000; ++t) {
        auto bank = static_cast<unsigned>(rng.below(org.banksPerChannel()));
        auto row = static_cast<RowId>(rng.below(org.rowsPerBank));
        obs.onActivate(bank, row, t);
    }
}

/**
 * Sweep one observer with onAutoRefresh and its twin with the per-row
 * onRowRefresh loop the sweep replaced; every row's state and every
 * later flip (re-armed or not) must agree.
 */
void
expectSweepMatchesRowByRow(RowId first, unsigned num_rows)
{
    DramOrg org = DramOrg::tinyConfig();
    HammerObserver sweep(org, smallConfig(16, 2));
    HammerObserver byRow(org, smallConfig(16, 2));
    hammerSeeded(sweep, org, 5, 0);
    hammerSeeded(byRow, org, 5, 0);
    std::set<std::pair<unsigned, RowId>> flippedBefore;
    for (const auto &f : sweep.bitFlips())
        flippedBefore.insert({f.bank, f.victimRow});
    ASSERT_FALSE(flippedBefore.empty());

    sweep.onAutoRefresh(first, num_rows);
    std::set<RowId> swept;
    for (unsigned r = 0; r < num_rows; ++r)
        swept.insert(static_cast<RowId>((first + r) % org.rowsPerBank));
    for (unsigned b = 0; b < org.banksPerChannel(); ++b)
        for (RowId row : swept)
            byRow.onRowRefresh(b, row);

    for (unsigned b = 0; b < org.banksPerChannel(); ++b) {
        for (RowId r = 0; r < org.rowsPerBank; ++r) {
            ASSERT_EQ(sweep.rowActivations(b, r), byRow.rowActivations(b, r))
                << "bank " << b << " row " << r;
            ASSERT_EQ(sweep.rowDisturbance(b, r), byRow.rowDisturbance(b, r))
                << "bank " << b << " row " << r;
            if (swept.count(r)) {
                EXPECT_EQ(sweep.rowActivations(b, r), 0u);
                EXPECT_EQ(sweep.rowDisturbance(b, r), 0.0);
            }
        }
    }

    // Swept rows that had flipped are re-armed: the same later stream
    // flips them again, at the same cycles in both observers.
    hammerSeeded(sweep, org, 6, 10000);
    hammerSeeded(byRow, org, 6, 10000);
    ASSERT_EQ(sweep.bitFlips().size(), byRow.bitFlips().size());
    unsigned rearmed = 0;
    for (std::size_t i = 0; i < sweep.bitFlips().size(); ++i) {
        const auto &a = sweep.bitFlips()[i];
        const auto &b = byRow.bitFlips()[i];
        EXPECT_EQ(a.bank, b.bank);
        EXPECT_EQ(a.victimRow, b.victimRow);
        EXPECT_EQ(a.cycle, b.cycle);
        if (a.cycle >= 10000 && swept.count(a.victimRow) &&
            flippedBefore.count({a.bank, a.victimRow}))
            ++rearmed;
    }
    EXPECT_GT(rearmed, 0u);
}

TEST(HammerObserver, AutoRefreshSweepWrapsToRowZero)
{
    // tinyConfig has 256 rows per bank: rows 250..255, then 0..3.
    expectSweepMatchesRowByRow(250, 10);
}

TEST(HammerObserver, AutoRefreshSweepCoveringTheBankClearsEveryRow)
{
    expectSweepMatchesRowByRow(100, 256);
    expectSweepMatchesRowByRow(100, 300);
}

TEST(HammerObserver, RefreshWindowOnPaperGeometryResetsOnlyWrittenGroups)
{
    // 16 banks x 65,536 rows: the written-group map has groups of 512
    // rows, so hammering rows 511 and 1,024 of bank 3 reaches victims
    // 512 and 1,023 across group edges (groups 0, 1 and 2 of the bank).
    DramOrg org = DramOrg::paperConfig(1);
    HammerObserver obs(org, smallConfig(64));
    const unsigned bank = 3;
    const std::set<RowId> aggressors{511, 1024};
    const std::set<RowId> victims{510, 512, 1023, 1025};
    Cycle now = 0;
    auto hammer = [&] {
        for (int i = 0; i < 64; ++i)
            for (RowId row : aggressors)
                obs.onActivate(bank, row, now++);
    };
    auto flippedVictims = [&](std::size_t from) {
        std::set<RowId> out;
        for (std::size_t i = from; i < obs.bitFlips().size(); ++i) {
            EXPECT_EQ(obs.bitFlips()[i].bank, bank);
            out.insert(obs.bitFlips()[i].victimRow);
        }
        return out;
    };
    hammer();
    ASSERT_EQ(flippedVictims(0), victims);
    for (RowId v : victims)
        EXPECT_GE(obs.rowDisturbance(bank, v), 64.0);

    // One tREFW of REFs (8 rows each at paper timings), starting mid
    // bank so the last one wraps from row 65,535 to row 0.
    unsigned per_ref = DramDevice(org, DramTimings::ddr4()).rowsPerRefresh();
    ASSERT_EQ(org.rowsPerBank % per_ref, 0u);
    RowId first = 1020;
    for (unsigned r = 0; r < org.rowsPerBank / per_ref; ++r)
        obs.onAutoRefresh((first + r * per_ref) % org.rowsPerBank, per_ref);

    // The sweep left every page no ACT wrote unmapped (checked before
    // the reads below map them): three written groups hold one page of
    // disturbance and part of one page of counts each, where a sweep
    // that touched every row would map all 12 MiB.
    auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    EXPECT_GT(obs.residentBytes(), 0u);
    EXPECT_LE(obs.residentBytes(), 3 * 2 * page);
    for (unsigned b = 0; b < org.banksPerChannel(); ++b) {
        for (RowId r = 0; r < org.rowsPerBank; ++r) {
            ASSERT_EQ(obs.rowActivations(b, r), 0u)
                << "bank " << b << " row " << r;
            ASSERT_EQ(obs.rowDisturbance(b, r), 0.0)
                << "bank " << b << " row " << r;
        }
    }

    // The refreshed victims flip again, and a flipped row's activation
    // count is its own ACTs alone, without the flip-reported flag.
    std::size_t before = obs.bitFlips().size();
    hammer();
    EXPECT_EQ(flippedVictims(before), victims);
    for (RowId row : aggressors)
        EXPECT_EQ(obs.rowActivations(bank, row), 64u);
    obs.onActivate(bank, 512, now++);
    EXPECT_EQ(obs.rowActivations(bank, 512), 1u);
    EXPECT_EQ(obs.maxRowActivations(), 64u);
}

TEST(HammerObserver, MaxRowActivationsTracksPeak)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(1000));
    for (int i = 0; i < 42; ++i)
        obs.onActivate(1, 5, i);
    EXPECT_EQ(obs.maxRowActivations(), 42u);
    obs.onRowRefresh(1, 5);
    EXPECT_EQ(obs.rowActivations(1, 5), 0u);
    EXPECT_EQ(obs.maxRowActivations(), 42u);    // historical peak persists
}

TEST(HammerObserver, BanksAreIndependent)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(100));
    for (int i = 0; i < 99; ++i) {
        obs.onActivate(0, 10, i);
        obs.onActivate(1, 10, i);
    }
    EXPECT_TRUE(obs.bitFlips().empty());
    obs.onActivate(0, 10, 1000);
    EXPECT_EQ(obs.bitFlips().size(), 2u);   // only bank 0's victims
    for (const auto &f : obs.bitFlips())
        EXPECT_EQ(f.bank, 0u);
}

TEST(HammerObserver, EdgeRowsDoNotCrash)
{
    DramOrg org = DramOrg::tinyConfig();
    HammerObserver obs(org, smallConfig(10, 6));
    for (int i = 0; i < 100; ++i) {
        obs.onActivate(0, 0, i);
        obs.onActivate(0, org.rowsPerBank - 1, i);
    }
    EXPECT_FALSE(obs.bitFlips().empty());
}

TEST(HammerObserver, ActivationCountAggregates)
{
    HammerObserver obs(DramOrg::tinyConfig(), smallConfig(1000));
    for (int i = 0; i < 7; ++i)
        obs.onActivate(0, 3, i);
    EXPECT_EQ(obs.activationCount(), 7u);
}

TEST(EnergyModel, CommandsAddEnergy)
{
    DramTimings t = DramTimings::ddr4();
    DramEnergyModel e(t);
    double base = e.totalEnergy(0);
    e.onCommand(DramCommand::kAct, 0);
    double with_act = e.totalEnergy(0);
    EXPECT_GT(with_act, base);
    e.onCommand(DramCommand::kRd, 0);
    EXPECT_GT(e.totalEnergy(0), with_act);
}

TEST(EnergyModel, RefreshCostsMoreThanRead)
{
    DramTimings t = DramTimings::ddr4();
    DramEnergyModel e1(t), e2(t);
    e1.onCommand(DramCommand::kRef, 0);
    e2.onCommand(DramCommand::kRd, 0);
    EXPECT_GT(e1.totalEnergy(0), e2.totalEnergy(0));
}

TEST(EnergyModel, ActiveStandbyCostsMoreThanIdle)
{
    DramTimings t = DramTimings::ddr4();
    DramEnergyModel active(t), idle(t);
    active.onOpenBankCount(1, 0);
    idle.onOpenBankCount(0, 0);
    Cycle window = 1'000'000;
    EXPECT_GT(active.totalEnergy(window), idle.totalEnergy(window));
}

TEST(EnergyModel, BackgroundGrowsWithTime)
{
    DramTimings t = DramTimings::ddr4();
    DramEnergyModel e(t);
    double e1 = e.totalEnergy(1'000'000);
    double e2 = e.totalEnergy(2'000'000);
    EXPECT_GT(e2, e1);
    EXPECT_NEAR(e2, 2 * e1, 1e-9);
}

TEST(EnergyModel, BreakdownSumsToTotal)
{
    DramTimings t = DramTimings::ddr4();
    DramEnergyModel e(t);
    e.onCommand(DramCommand::kAct, 0);
    e.onCommand(DramCommand::kRd, 10);
    e.onCommand(DramCommand::kWr, 20);
    e.onCommand(DramCommand::kRef, 30);
    double total = e.totalEnergy(1000);
    double sum = e.actPreEnergy() + e.readEnergy() + e.writeEnergy() +
        e.refreshEnergy() + e.backgroundEnergy();
    EXPECT_NEAR(total, sum, 1e-12);
}

} // namespace
} // namespace bh
