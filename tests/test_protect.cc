/**
 * @file
 * Protection-mechanism tests: activation tracking and row swapping vs
 * coupled rows, DRFM, and data scrambling (SS VI).  Every defense runs
 * through core::hammerThroughMitigation.
 */

#include <gtest/gtest.h>

#include "core/protect/mitigation.h"
#include "core/protect/scramble.h"
#include "core/patterns.h"
#include "dram/chip.h"
#include "test_common.h"

namespace dramscope {
namespace {

using core::ActivationTracker;
using core::TrackerOptions;
using dram::RowAddr;

TEST(Tracker, FiresAtThreshold)
{
    TrackerOptions opts;
    opts.threshold = 100;
    ActivationTracker t(opts);
    for (int k = 0; k < 99; ++k)
        EXPECT_TRUE(t.onActivate(5).empty());
    const auto fired = t.onActivate(5);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], RowAddr(5));
    EXPECT_EQ(t.mitigations(), 1u);
}

TEST(Tracker, BulkCountsAccumulate)
{
    TrackerOptions opts;
    opts.threshold = 1000;
    ActivationTracker t(opts);
    EXPECT_TRUE(t.onActivate(7, 999).empty());
    EXPECT_FALSE(t.onActivate(7, 1).empty());
}

TEST(Tracker, CoupledAwareFoldsThePair)
{
    TrackerOptions opts;
    opts.threshold = 1000;
    opts.coupledAware = true;
    opts.coupledDistance = 512;
    ActivationTracker t(opts);
    // Split activations across the coupled pair.
    EXPECT_TRUE(t.onActivate(20, 500).empty());
    const auto fired = t.onActivate(532, 500);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], RowAddr(20));
    EXPECT_EQ(fired[1], RowAddr(532));
}

TEST(Tracker, UnawareTrackerMissesSplitActivations)
{
    TrackerOptions opts;
    opts.threshold = 1000;
    ActivationTracker t(opts);
    EXPECT_TRUE(t.onActivate(20, 999).empty());
    EXPECT_TRUE(t.onActivate(532, 999).empty());
    EXPECT_EQ(t.mitigations(), 0u);
}

TEST(Tracker, MisraGriesSpillRaisesFloor)
{
    TrackerOptions opts;
    opts.tableSize = 2;
    opts.threshold = 100;
    ActivationTracker t(opts);
    t.onActivate(1, 10);
    t.onActivate(2, 10);
    // Table is full: row 3 spills, raising the floor for future rows.
    t.onActivate(3, 50);
    // A new row entering later starts from the raised floor, so it
    // reaches the threshold sooner — the conservative MG property.
    t.onActivate(1, 10);  // Still tracked normally.
    const auto fired = t.onActivate(1, 80);
    EXPECT_FALSE(fired.empty());
}

TEST(Tracker, ResetClearsState)
{
    TrackerOptions opts;
    opts.threshold = 100;
    ActivationTracker t(opts);
    t.onActivate(4, 99);
    t.reset();
    EXPECT_TRUE(t.onActivate(4, 99).empty());
}

TEST(Tracker, CoupledCanonicalHoldsAtTheBankEdges)
{
    // Row 0's partner is the distance itself, and the last row folds
    // onto distance - 1: the canonical representative (the smaller of
    // the pair) must absorb both halves of a split attack at either
    // edge of the bank.
    TrackerOptions opts;
    opts.threshold = 1000;
    opts.coupledAware = true;
    opts.coupledDistance = 512;

    ActivationTracker low(opts);
    EXPECT_TRUE(low.onActivate(0, 500).empty());
    const auto firedLow = low.onActivate(512, 500);
    ASSERT_EQ(firedLow.size(), 2u);
    EXPECT_EQ(firedLow[0], RowAddr(0));
    EXPECT_EQ(firedLow[1], RowAddr(512));

    ActivationTracker high(opts);
    EXPECT_TRUE(high.onActivate(1023, 500).empty());
    const auto firedHigh = high.onActivate(511, 500);
    ASSERT_EQ(firedHigh.size(), 2u);
    EXPECT_EQ(firedHigh[0], RowAddr(511));
    EXPECT_EQ(firedHigh[1], RowAddr(1023));
}

TEST(Tracker, SpilledTiesNeverFireButTrackedTiesDo)
{
    // Misra-Gries under a table full of equal counters: newcomers
    // spill (raising the floor) instead of evicting an arbitrary tie,
    // so no spilled row can fire spuriously — while every tracked tie
    // still fires exactly at its threshold.
    TrackerOptions opts;
    opts.tableSize = 4;
    opts.threshold = 100;
    ActivationTracker t(opts);
    for (RowAddr r = 1; r <= 4; ++r)
        t.onActivate(r, 50);  // Four tracked ties at 50.
    for (RowAddr r = 10; r <= 13; ++r)
        EXPECT_TRUE(t.onActivate(r, 40).empty());  // All spill.
    EXPECT_EQ(t.mitigations(), 0u);

    // The tracked ties are still intact and fire at the threshold.
    for (RowAddr r = 1; r <= 4; ++r) {
        const auto fired = t.onActivate(r, 50);
        ASSERT_EQ(fired.size(), 1u) << r;
        EXPECT_EQ(fired[0], r);
    }
    EXPECT_EQ(t.mitigations(), 4u);

    // reset() clears the spill floor too, not just the counters.
    t.reset();
    t.onActivate(20, 99);
    EXPECT_TRUE(t.onActivate(20, 0).empty());
    EXPECT_FALSE(t.onActivate(20, 1).empty());
}

class CoupledAttackTest : public ::testing::Test
{
  protected:
    /** Coupled tiny chip, no remap, thresholds per DisturbParams. */
    static dram::DeviceConfig
    coupledConfig()
    {
        dram::DeviceConfig cfg = dram::makeTinyConfig();
        cfg.rowRemap = dram::RowRemapScheme::None;
        return cfg;
    }

    /** Total flips around both rows of the coupled pair. */
    static size_t
    victimFlips(bender::Host &host, RowAddr aggr)
    {
        size_t flips = 0;
        const RowAddr partner = aggr ^ 512u;
        for (const RowAddr v :
             {aggr - 1, aggr + 1, partner - 1, partner + 1}) {
            const BitVec row = host.readRowBits(0, v);
            flips += row.size() - row.popcount();
        }
        return flips;
    }

    static void
    armVictims(bender::Host &host, RowAddr aggr)
    {
        const RowAddr partner = aggr ^ 512u;
        for (const RowAddr v :
             {aggr - 1, aggr + 1, partner - 1, partner + 1})
            host.writeRowPattern(0, v, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        host.writeRowPattern(0, partner, 0);
    }

    /**
     * Hammers row A then its partner through @p defense over eight
     * coupled pairs; returns the total victim bitflips.
     */
    static size_t
    pairAttack(bender::Host &host, core::Mitigation &defense,
               uint64_t acts)
    {
        // Eight coupled pairs in typical subarrays: enough victim
        // cells for a just-over-threshold dose to flip the weakest.
        size_t flips = 0;
        for (RowAddr aggr = 52; aggr <= 92; aggr += 8) {
            armVictims(host, aggr);
            core::hammerThroughMitigation(host, defense, 0, aggr, acts);
            core::hammerThroughMitigation(host, defense, 0, aggr ^ 512u,
                                          acts);
            flips += victimFlips(host, aggr);
        }
        return flips;
    }
};

TEST_F(CoupledAttackTest, UnawareTrackerIsBypassedBySplitAttack)
{
    dram::Chip chip(coupledConfig());
    bender::Host host(chip);
    TrackerOptions opts;
    opts.threshold = 6000;
    core::GrapheneMitigation tracker(chip.config(), opts);

    // Split the hammering across the coupled pair: each counter stays
    // below threshold, but the shared wordline sees the full count.
    const size_t flips = pairAttack(host, tracker, 5900);
    EXPECT_EQ(tracker.tracker(0).mitigations(), 0u);
    EXPECT_GT(flips, 0u);
}

TEST_F(CoupledAttackTest, AwareTrackerStopsTheSplitAttack)
{
    dram::Chip chip(coupledConfig());
    bender::Host host(chip);
    TrackerOptions opts;
    opts.threshold = 6000;
    opts.coupledAware = true;
    opts.coupledDistance = 512;
    core::GrapheneMitigation tracker(chip.config(), opts);

    const size_t flips = pairAttack(host, tracker, 5900);
    EXPECT_GT(tracker.tracker(0).mitigations(), 0u);
    EXPECT_EQ(flips, 0u);
}

TEST_F(CoupledAttackTest, VictimRefreshIncidentallyProtectsCoupledRows)
{
    // The paper's nuance (SS VI-A): victim-refresh mitigation stays
    // secure on coupled chips, because the refresh ACT of row A+-1 is
    // itself coupled and restores (A^D)+-1 too.
    dram::Chip chip(coupledConfig());
    bender::Host host(chip);
    TrackerOptions opts;
    opts.threshold = 6000;
    core::GrapheneMitigation tracker(chip.config(), opts);  // Unaware.

    const RowAddr aggr = 60;
    armVictims(host, aggr);
    core::hammerThroughMitigation(host, tracker, 0, aggr, 100000);

    EXPECT_GT(tracker.tracker(0).mitigations(), 0u);
    EXPECT_EQ(victimFlips(host, aggr), 0u);
}

TEST_F(CoupledAttackTest, RowSwapIsNeutralizedByCoupledRows)
{
    // SS VI-A: MC-side row swapping relocates only row A; the
    // attacker keeps driving the same physical wordline through the
    // never-swapped row B = A ^ D.
    dram::Chip chip(coupledConfig());
    bender::Host host(chip);
    core::RowSwapOptions opts;
    opts.threshold = 6000;
    opts.spareBase = 400;  // Far from the attacked region.
    core::RowSwapMitigation swap(chip.config(), opts);

    // Each pair's first hammer triggers the swap of A; the second
    // drives the same physical wordline through B.
    const size_t flips = pairAttack(host, swap, 6000);
    EXPECT_GT(swap.swaps(), 0u);
    EXPECT_GT(flips, 0u);
}

TEST_F(CoupledAttackTest, CoupledAwareRowSwapStopsTheAttack)
{
    dram::Chip chip(coupledConfig());
    bender::Host host(chip);
    core::RowSwapOptions opts;
    opts.threshold = 6000;
    opts.spareBase = 400;
    opts.coupledAware = true;
    opts.coupledDistance = 512;
    core::RowSwapMitigation swap(chip.config(), opts);

    const size_t flips = pairAttack(host, swap, 6000);
    EXPECT_GT(swap.swaps(), 0u);
    EXPECT_EQ(flips, 0u);
}

TEST(Drfm, ProtectsCoupledVictims)
{
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::DrfmMitigation drfm(cfg, 4000);

    const RowAddr aggr = 20, partner = 532;
    for (const RowAddr v : {aggr - 1, aggr + 1, partner - 1, partner + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, partner, 0);

    core::hammerThroughMitigation(host, drfm, 0, aggr, 30000);
    EXPECT_EQ(drfm.fired(), 7u);  // floor(30000 / 4000).

    for (const RowAddr v :
         {aggr - 1, aggr + 1, partner - 1, partner + 1}) {
        const BitVec row = host.readRowBits(0, v);
        EXPECT_EQ(row.size() - row.popcount(), 0u) << "victim " << v;
    }
}

TEST(Drfm, WithoutItTheSameAttackFlips)
{
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip chip(cfg);
    bender::Host host(chip);

    const RowAddr aggr = 60;
    for (const RowAddr v : {aggr - 1, aggr + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.hammer(0, aggr, 100000);
    size_t flips = 0;
    for (const RowAddr v : {aggr - 1, aggr + 1}) {
        const BitVec row = host.readRowBits(0, v);
        flips += row.size() - row.popcount();
    }
    EXPECT_GT(flips, 0u);
}

TEST(Scrambler, RoundtripIsTransparent)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::Scrambler scrambler(host, 0xFEEDULL);

    BitVec data(cfg.rowBits);
    for (size_t i = 0; i < data.size(); i += 5)
        data.set(i, true);
    scrambler.writeRowBits(0, 9, data);
    EXPECT_EQ(scrambler.readRowBits(0, 9), data);
    // The array itself holds masked data.
    EXPECT_NE(host.readRowBits(0, 9), data);
}

TEST(Scrambler, MasksDifferPerRowWhenRowKeyed)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::Scrambler keyed(host, 0xFEEDULL, true);
    core::Scrambler legacy(host, 0xFEEDULL, false);
    EXPECT_NE(keyed.mask(1), keyed.mask(2));
    EXPECT_EQ(legacy.mask(1), legacy.mask(2));
}

TEST(Scrambler, NeutralizesTheAdversarialPattern)
{
    // SS VI-B: the worst-case data pattern through a scrambling MC
    // causes far fewer bitflips than when written raw.
    dram::DeviceConfig cfg = testutil::tinyPlain();
    const auto map = core::PhysMap::fromSwizzle(
        dram::Swizzle(cfg), cfg.columnsPerRow(), cfg.rdDataBits);
    const BitVec victim = core::AdversarialPatterns::worstBerVictimRow(map);
    const BitVec aggr =
        core::AdversarialPatterns::worstBerAggressorRow(map);

    auto attack = [&](bool scrambled) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        core::Scrambler scr(host, 0x5EEDULL);
        size_t flips = 0;
        for (RowAddr base = 52; base < 84; base += 4) {
            if (scrambled) {
                scr.writeRowBits(0, base, victim);
                scr.writeRowBits(0, base + 1, aggr);
            } else {
                host.writeRowBits(0, base, victim);
                host.writeRowBits(0, base + 1, aggr);
            }
            host.hammer(0, base + 1, 300000);
            const BitVec read = scrambled ? scr.readRowBits(0, base)
                                          : host.readRowBits(0, base);
            flips += read.hammingDistance(victim);
        }
        return flips;
    };

    const size_t raw = attack(false);
    const size_t scrambled = attack(true);
    // The scrambled pattern behaves like random data (~0.7x the
    // solid baseline) while the raw adversarial pattern sits ~1.4x
    // above it; expect a wide margin between the two.
    EXPECT_GT(raw * 2, scrambled * 3);
}

} // namespace
} // namespace dramscope
