/**
 * @file
 * Device-interface tests: the same command surface (act/pre/rd/wr/
 * ref/actMany/violations/refreshAggressorNeighbors) driven against
 * the Chip, Dimm and HbmStack backends, the cross-backend
 * equivalences the abstraction promises, and the fast-path mode
 * registry.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bender/host.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "dram/hbm_stack.h"
#include "mapping/dimm.h"
#include "test_common.h"

namespace dramscope {
namespace {

TEST(DeviceDimm, BusConfigScalesByChipCount)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    const auto &chip_cfg = dimm.chipConfig();
    const auto &bus = dimm.config();
    ASSERT_EQ(dimm.chipCount(), 16u);
    // Device columns are chip-major: the rank row is the per-chip
    // rows side by side, with per-chip MAT geometry preserved.
    EXPECT_EQ(bus.rowBits, chip_cfg.rowBits * 16);
    EXPECT_EQ(bus.matWidth, chip_cfg.matWidth * 16);
    EXPECT_EQ(bus.rdDataBits, chip_cfg.rdDataBits);
    EXPECT_EQ(bus.columnsPerRow(), chip_cfg.columnsPerRow() * 16);
    EXPECT_EQ(bus.rowsPerBank, chip_cfg.rowsPerBank);
    EXPECT_EQ(bus.numBanks, chip_cfg.numBanks);
    EXPECT_EQ(bus.name, chip_cfg.name + "/rank");
}

TEST(DeviceDimm, HostWorkloadMatchesStandaloneChip)
{
    // With the RCD inversion off and identity DQ twists, a rank is 16
    // copies of the same silicon receiving the same commands: a
    // hammer workload through the Device interface must produce, in
    // every chip's slice of the rank row, exactly the bits a
    // standalone chip produces under the same workload.
    mapping::Dimm dimm(testutil::tinyPlain(), /*rcd_inversion=*/false,
                       /*identity_twist=*/true);
    dram::Chip chip(testutil::tinyPlain());
    bender::Host dimm_host(dimm);
    bender::Host chip_host(chip);

    const dram::RowAddr aggr = 100;
    const uint64_t count = 300000;
    auto run = [&](bender::Host &host) {
        host.writeRowPattern(0, aggr - 1, ~0ULL);
        host.writeRowPattern(0, aggr + 1, ~0ULL);
        host.hammer(0, aggr, count);
        return std::make_pair(host.readRowBits(0, aggr - 1),
                              host.readRowBits(0, aggr + 1));
    };
    const auto [chip_lo, chip_hi] = run(chip_host);
    const auto [dimm_lo, dimm_hi] = run(dimm_host);

    // The workload must actually disturb something, or the equality
    // below is vacuous.
    const size_t chip_flips = (chip.config().rowBits - chip_lo.popcount()) +
                              (chip.config().rowBits - chip_hi.popcount());
    EXPECT_GT(chip_flips, 0u);

    const uint32_t n = chip.config().rowBits;
    ASSERT_EQ(dimm_lo.size(), size_t(n) * 16);
    for (uint32_t c = 0; c < 16; ++c) {
        for (uint32_t i = 0; i < n; ++i) {
            ASSERT_EQ(dimm_lo.get(size_t(c) * n + i), chip_lo.get(i))
                << "chip " << c << " bit " << i;
            ASSERT_EQ(dimm_hi.get(size_t(c) * n + i), chip_hi.get(i))
                << "chip " << c << " bit " << i;
        }
    }
}

TEST(DeviceDimm, ActManyBroadcastsToEveryChip)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    bender::Host host(dimm);
    host.hammer(0, 40, 1234);
    for (uint32_t c = 0; c < dimm.chipCount(); ++c)
        EXPECT_EQ(dimm.chip(c).stats().acts, 1234u) << c;
}

TEST(DeviceDimm, RcdInversionVisibleThroughDevice)
{
    // Common pitfall (1) at the Device level: the host writes "row 5"
    // but B-side chips store it at the inverted address.
    mapping::Dimm dimm(testutil::tinyPlain(), /*rcd_inversion=*/true,
                       /*identity_twist=*/true);
    bender::Host host(dimm);
    host.writeRowPattern(0, 5, 0xFFFFFFFFULL);

    const auto b_side = dimm.chipCount() - 1;
    const auto inverted = dimm.chipRow(b_side, 5);
    ASSERT_NE(inverted, 5u);
    auto &chip = dimm.chip(b_side);
    const auto t = host.now();
    chip.act(0, 5, t + 100);
    EXPECT_EQ(chip.read(0, 0, t + 120), 0u);
    chip.pre(0, t + 160);
    chip.act(0, inverted, t + 200);
    EXPECT_EQ(chip.read(0, 0, t + 220), 0xFFFFFFFFULL);
    chip.pre(0, t + 260);
}

TEST(DeviceDimm, ViolationsAggregateWithChipPrefix)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    // ACT 3ns after PRE is inside the RowCopy gap — a recorded
    // violation on every chip, since commands broadcast.
    dimm.act(0, 10, 1000);
    dimm.pre(0, 1050);
    dimm.act(0, 11, 1053);
    EXPECT_EQ(dimm.violationCount(), uint64_t(dimm.chipCount()));
    const auto log = dimm.violationLog();
    ASSERT_EQ(log.size(), size_t(dimm.chipCount()));
    EXPECT_EQ(log.front().what.rfind("chip0: ", 0), 0u);
    EXPECT_EQ(log.back().what.rfind("chip15: ", 0), 0u);
}

/**
 * Arms both neighbours of row 100 on a plain rank, hammers it
 * @p acts times through mitigation @p kind (None: unprotected) and
 * returns each chip's victim bitflips.  Chip c owns the c-th
 * chip-sized slice of every bus row.
 */
std::vector<size_t>
rankVictimFlips(core::MitigationKind kind, uint64_t acts)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    bender::Host host(dimm);
    const dram::RowAddr aggr = 100;
    for (const dram::RowAddr v : {aggr - 1, aggr + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    if (kind == core::MitigationKind::None) {
        host.hammer(0, aggr, acts);
    } else {
        const auto mit = core::makeMitigation(kind, dimm.config(), {});
        core::hammerThroughMitigation(host, *mit, 0, aggr, acts);
        EXPECT_GT(mit->fired(), 0u);
    }
    const uint32_t chipBits = dimm.chipConfig().rowBits;
    std::vector<size_t> flips(dimm.chipCount(), 0);
    for (const dram::RowAddr v : {aggr - 1, aggr + 1}) {
        const BitVec row = host.readRowBits(0, v);
        for (size_t bit = 0; bit < row.size(); ++bit)
            flips[bit / chipBits] += row.get(bit) ? 0 : 1;
    }
    return flips;
}

TEST(DeviceDimm, RfmMitigatesOnEveryChip)
{
    // The in-DRAM refresh an RFM triggers runs on every chip of the
    // rank: the attack flips victims on every chip unprotected, and
    // on none of them through RFM.
    const uint64_t acts = 300000;
    for (const size_t f :
         rankVictimFlips(core::MitigationKind::None, acts))
        EXPECT_GT(f, 0u);
    for (const size_t f : rankVictimFlips(core::MitigationKind::Rfm, acts))
        EXPECT_EQ(f, 0u);
}

TEST(DeviceDimm, DrfmRunsRankWide)
{
    for (const size_t f :
         rankVictimFlips(core::MitigationKind::Drfm, 300000))
        EXPECT_EQ(f, 0u);
}

TEST(DeviceHbm, ChannelsAreIndependentSiliconThroughDevice)
{
    // Each HBM channel derives its own variation seed: the same
    // hammer workload, driven through the Device interface, must not
    // flip the identical cells on every channel.
    dram::HbmStack stack(testutil::tinyPlain(), 4);
    std::vector<BitVec> victims;
    for (uint32_t c = 0; c < stack.channelCount(); ++c) {
        dram::Device &dev = stack.channel(c);
        bender::Host host(dev);
        host.writeRowPattern(0, 99, ~0ULL);
        host.writeRowPattern(0, 101, ~0ULL);
        host.hammer(0, 100, 300000);
        victims.push_back(host.readRowBits(0, 99));
        EXPECT_EQ(dev.config().name,
                  "tiny-plain/ch" + std::to_string(c));
    }
    bool any_pair_differs = false;
    for (size_t a = 0; a < victims.size(); ++a) {
        for (size_t b = a + 1; b < victims.size(); ++b)
            any_pair_differs |= (victims[a] != victims[b]);
    }
    EXPECT_TRUE(any_pair_differs);
}

TEST(DeviceHbm, ConstChannelAccess)
{
    const dram::HbmStack stack(testutil::tinyPlain(), 2);
    EXPECT_EQ(stack.channel(1).config().name, "tiny-plain/ch1");
}

TEST(FastPathModeRegistry, KeywordsAreOffAndExact)
{
    using dram::FastPathMode;
    EXPECT_EQ(dram::fastPathModeFromString("off"), FastPathMode::Off);
    EXPECT_EQ(dram::fastPathModeFromString("exact"), FastPathMode::Exact);
    EXPECT_EQ(dram::fastPathModeKeywords(), "off|exact");
}

TEST(FastPathModeRegistry, RemovedAnalyticKeywordIsRejected)
{
    EXPECT_EQ(dram::fastPathModeFromString("analytic"), std::nullopt);
}

TEST(FastPathModeRegistryDeathTest, UnknownEnvValueWarnsOnceAndRunsExact)
{
    // A fresh process, so the once-per-process warning has not fired.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("DRAMSCOPE_FASTPATH", "analytic", 1);
            testing::internal::CaptureStderr();
            bool exact = true;
            for (int i = 0; i < 3; ++i) {
                exact = exact && dram::fastPathModeFromEnv() ==
                                     dram::FastPathMode::Exact;
            }
            const std::string err = testing::internal::GetCapturedStderr();
            size_t warnings = 0;
            for (size_t at = err.find("warn:"); at != std::string::npos;
                 at = err.find("warn:", at + 1))
                ++warnings;
            std::fprintf(stderr, "exact=%d warnings=%zu %s", int(exact),
                         warnings, err.c_str());
            std::exit(0);
        },
        testing::ExitedWithCode(0),
        "exact=1 warnings=1 warn: DRAMSCOPE_FASTPATH=analytic .*off[|]exact");
}

} // namespace
} // namespace dramscope
