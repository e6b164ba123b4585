/**
 * @file
 * RFM tests (SS VI-B): the in-DRAM space-saving table plus the
 * MC-side RAA cadence protect coupled rows without the MC knowing
 * the relation.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "test_common.h"

namespace dramscope {
namespace {

using dram::RowAddr;

TEST(SpaceSavingTable, TracksTheHottestRow)
{
    core::SpaceSavingTable table(4);
    EXPECT_FALSE(table.hottest().has_value());
    table.account(10, 100);
    table.account(20, 500);
    table.account(30, 50);
    EXPECT_EQ(table.hottest(), RowAddr(20));
    // Decay halves the counter instead of resetting it.
    table.decay(20);  // 250.
    EXPECT_EQ(table.hottest(), RowAddr(20));
    table.decay(20);
    table.decay(20);  // 62.
    EXPECT_EQ(table.hottest(), RowAddr(10));
}

TEST(SpaceSavingTable, InheritsTheFloor)
{
    core::SpaceSavingTable table(2);
    table.account(1, 100);
    table.account(2, 200);
    // Table full: row 3 evicts the minimum (row 1) and inherits its
    // 100, so it outranks row 2 once row 2 decays to 100.
    table.account(3, 1);
    EXPECT_EQ(table.hottest(), RowAddr(2));
    table.decay(2);
    EXPECT_EQ(table.hottest(), RowAddr(3));
    // Row 1 was evicted: re-entering it evicts the new minimum (row
    // 2 at 100) and starts from that floor, 102 > row 3's 101.
    table.account(1, 2);
    EXPECT_EQ(table.hottest(), RowAddr(1));
}

TEST(RfmMitigation, IssuesAtTheRaaimtCadence)
{
    core::RfmMitigation rfm(testutil::tinyPlain(), 1000, 16);
    rfm.onActivate(0, 5, 999);
    EXPECT_EQ(rfm.fired(), 0u);
    rfm.onActivate(0, 5, 1);
    EXPECT_EQ(rfm.fired(), 1u);
    rfm.onActivate(0, 5, 3000);
    EXPECT_EQ(rfm.fired(), 4u);
    EXPECT_EQ(rfm.pendingCommands().size(), 4u);
}

TEST(Rfm, ProtectsAgainstTheCoupledSplitAttack)
{
    // The MC never learns the coupled relation; the in-DRAM engine
    // resolves it (SS VI-B's recommended deployment).
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::RfmMitigation rfm(cfg, 2000, 16);

    const RowAddr aggr = 60, partner = 572;
    for (const RowAddr v : {aggr - 1, aggr + 1, partner - 1, partner + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, partner, 0);

    // Split attack in rounds, each address under the RAA cadence.
    for (int round = 0; round < 6; ++round) {
        for (const RowAddr a : {aggr, partner})
            core::hammerThroughMitigation(host, rfm, 0, a, 1950);
    }
    EXPECT_GT(rfm.fired(), 0u);
    for (const RowAddr v :
         {aggr - 1, aggr + 1, partner - 1, partner + 1}) {
        const BitVec row = host.readRowBits(0, v);
        EXPECT_EQ(row.size() - row.popcount(), 0u) << "victim " << v;
    }
}

TEST(Rfm, WithoutRfmTheSameAttackFlips)
{
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip chip(cfg);
    bender::Host host(chip);

    const RowAddr aggr = 60, partner = 572;
    for (const RowAddr v : {aggr - 1, aggr + 1, partner - 1, partner + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, partner, 0);
    for (int round = 0; round < 6; ++round) {
        for (const RowAddr a : {aggr, partner})
            host.hammer(0, a, 1950);
    }
    size_t flips = 0;
    for (const RowAddr v :
         {aggr - 1, aggr + 1, partner - 1, partner + 1}) {
        const BitVec row = host.readRowBits(0, v);
        flips += row.size() - row.popcount();
    }
    EXPECT_GT(flips, 0u);
}

} // namespace
} // namespace dramscope
