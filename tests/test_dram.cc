/**
 * @file
 * Unit tests for the DRAM device model: timing conversion, bank state
 * machine legality, rank-level constraints (tRRD/tFAW/turnaround), and
 * refresh behavior.
 */

#include <gtest/gtest.h>

#include "dram/device.hh"
#include "dram/timing.hh"

namespace bh
{
namespace
{

DramTimings
paperTimings()
{
    return DramTimings::ddr4();
}

TEST(Timing, PaperValuesConvert)
{
    DramTimings t = paperTimings();
    EXPECT_EQ(t.tRC, nsToCycles(46.25));
    EXPECT_EQ(t.tFAW, nsToCycles(35.0));
    EXPECT_EQ(t.tREFW, nsToCycles(64e6));
    EXPECT_EQ(t.tREFI, nsToCycles(7812.5));
    EXPECT_GT(t.tRAS, 0);
    EXPECT_GT(t.tRP, 0);
    // tRC should be at least tRAS + tRP-ish.
    EXPECT_GE(t.tRC, t.tRAS);
}

TEST(Timing, Lpddr4HalvesRefreshWindow)
{
    DramTimings d = DramTimings::ddr4();
    DramTimings l = DramTimings::lpddr4();
    EXPECT_EQ(l.tREFW * 2, d.tREFW);
}

TEST(Org, PaperGeometry)
{
    DramOrg org = DramOrg::paperConfig();
    EXPECT_EQ(org.banksPerRank(), 16u);
    EXPECT_EQ(org.banksPerChannel(), 16u);
    EXPECT_EQ(org.rowsPerBank, 65536u);
    EXPECT_EQ(org.totalBytes(), 8ull << 30);
}

TEST(Bank, ActThenReadRespectsTrcd)
{
    DramTimings t = paperTimings();
    Bank b(t);
    EXPECT_FALSE(b.isOpen());
    b.issue(DramCommand::kAct, 7, 100);
    EXPECT_TRUE(b.isOpen());
    EXPECT_EQ(b.openRow(), 7u);
    EXPECT_EQ(b.earliest(DramCommand::kRd), 100 + t.tRCD);
    EXPECT_EQ(b.earliest(DramCommand::kWr), 100 + t.tRCD);
}

TEST(Bank, ActToActIsTrc)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 0);
    EXPECT_EQ(b.earliest(DramCommand::kAct), t.tRC);
}

TEST(Bank, ActToPreIsTras)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 50);
    EXPECT_EQ(b.earliest(DramCommand::kPre), 50 + t.tRAS);
}

TEST(Bank, PreToActIsTrp)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 0);
    Cycle pre_time = b.earliest(DramCommand::kPre);
    b.issue(DramCommand::kPre, 0, pre_time);
    EXPECT_FALSE(b.isOpen());
    EXPECT_GE(b.earliest(DramCommand::kAct), pre_time + t.tRP);
}

TEST(Bank, ReadExtendsPrecharge)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 0);
    Cycle rd_time = b.earliest(DramCommand::kRd);
    b.issue(DramCommand::kRd, 1, rd_time);
    EXPECT_GE(b.earliest(DramCommand::kPre), rd_time + t.tRTP);
}

TEST(Bank, WriteRecoveryBeforePrecharge)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 0);
    Cycle wr_time = b.earliest(DramCommand::kWr);
    b.issue(DramCommand::kWr, 1, wr_time);
    EXPECT_GE(b.earliest(DramCommand::kPre),
              wr_time + t.tCWL + t.tBL + t.tWR);
}

TEST(BankDeath, ActToOpenBankPanics)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 0);
    EXPECT_DEATH(b.issue(DramCommand::kAct, 2, t.tRC * 2), "ACT to open");
}

TEST(BankDeath, ReadWrongRowPanics)
{
    DramTimings t = paperTimings();
    Bank b(t);
    b.issue(DramCommand::kAct, 1, 0);
    EXPECT_DEATH(b.issue(DramCommand::kRd, 2, t.tRCD + 10), "wrong");
}

class DeviceTest : public ::testing::Test
{
  protected:
    DeviceTest()
        : timings(paperTimings()),
          dev(DramOrg::paperConfig(), timings)
    {
    }

    DramTimings timings;
    DramDevice dev;
};

TEST_F(DeviceTest, TrrdBetweenBanks)
{
    dev.issue(DramCommand::kAct, 0, 1, 0);
    EXPECT_GE(dev.earliest(DramCommand::kAct, 1), timings.tRRD);
}

TEST_F(DeviceTest, TfawLimitsBurstOfActs)
{
    // Four ACTs as fast as tRRD allows; the fifth must wait for tFAW.
    Cycle now = 0;
    for (unsigned i = 0; i < 4; ++i) {
        now = std::max(now, dev.earliest(DramCommand::kAct, i));
        dev.issue(DramCommand::kAct, i, 1, now);
    }
    EXPECT_GE(dev.earliest(DramCommand::kAct, 4), timings.tFAW);
}

TEST_F(DeviceTest, TimingViolationPanics)
{
    dev.issue(DramCommand::kAct, 0, 1, 0);
    EXPECT_DEATH(dev.issue(DramCommand::kAct, 1, 1, 1), "timing violation");
}

TEST_F(DeviceTest, ReadToWriteTurnaround)
{
    dev.issue(DramCommand::kAct, 0, 1, 0);
    Cycle rd = dev.earliest(DramCommand::kRd, 0);
    dev.issue(DramCommand::kRd, 0, 1, rd);
    EXPECT_GT(dev.earliest(DramCommand::kWr, 0), rd);
}

TEST_F(DeviceTest, WriteToReadTurnaround)
{
    dev.issue(DramCommand::kAct, 0, 1, 0);
    Cycle wr = dev.earliest(DramCommand::kWr, 0);
    dev.issue(DramCommand::kWr, 0, 1, wr);
    EXPECT_GE(dev.earliest(DramCommand::kRd, 0),
              wr + timings.tCWL + timings.tBL + timings.tWTR);
}

TEST_F(DeviceTest, RefreshRequiresAllBanksClosed)
{
    dev.issue(DramCommand::kAct, 3, 1, 0);
    EXPECT_EQ(dev.earliestRefresh(), -1);
    EXPECT_TRUE(dev.anyBankOpen());
}

TEST_F(DeviceTest, RefreshBlocksActivationsForTrfc)
{
    Cycle e = dev.earliestRefresh();
    ASSERT_GE(e, 0);
    dev.issueRefresh(e);
    EXPECT_GE(dev.earliest(DramCommand::kAct, 0), e + timings.tRFC);
}

TEST_F(DeviceTest, RefreshSweepsRowsInOrder)
{
    unsigned per_ref = dev.rowsPerRefresh();
    EXPECT_GT(per_ref, 0u);
    auto r1 = dev.issueRefresh(dev.earliestRefresh());
    EXPECT_EQ(r1.firstRow, 0u);
    EXPECT_EQ(r1.numRows, per_ref);
    Cycle next = dev.earliest(DramCommand::kAct, 0);
    auto r2 = dev.issueRefresh(next);
    EXPECT_EQ(r2.firstRow, per_ref);
}

TEST_F(DeviceTest, RowsPerRefreshCoversBankPerWindow)
{
    // rowsPerRefresh * (tREFW / tREFI) must cover all rows.
    auto refs_per_window = timings.tREFW / timings.tREFI;
    EXPECT_GE(dev.rowsPerRefresh() * refs_per_window,
              DramOrg::paperConfig().rowsPerBank);
}

TEST_F(DeviceTest, OpenBankCountTracksState)
{
    EXPECT_EQ(dev.openBankCount(), 0u);
    dev.issue(DramCommand::kAct, 0, 1, 0);
    dev.issue(DramCommand::kAct, 1, 1, timings.tRRD);
    EXPECT_EQ(dev.openBankCount(), 2u);
    Cycle pre = dev.earliest(DramCommand::kPre, 0);
    dev.issue(DramCommand::kPre, 0, 0, pre);
    EXPECT_EQ(dev.openBankCount(), 1u);
}

} // namespace
} // namespace bh
