/**
 * @file
 * Unit tests for device configuration presets (Table I / Table III
 * ground truth).
 */

#include <gtest/gtest.h>

#include "dram/config.h"

namespace dramscope {
namespace dram {
namespace {

TEST(Config, PresetTableMatchesPaperPopulation)
{
    // Table I: 376 DDR4 chips + 4 HBM2 stacks.
    int ddr4 = 0, hbm2 = 0;
    for (const auto &info : presetTable()) {
        if (info.id.rfind("HBM2", 0) == 0)
            hbm2 += info.chipCount;
        else
            ddr4 += info.chipCount;
    }
    EXPECT_EQ(ddr4, 376);
    EXPECT_EQ(hbm2, 4);
}

TEST(Config, AllPresetsValidate)
{
    for (const auto &id : presetIds()) {
        const DeviceConfig cfg = makePreset(id);
        EXPECT_EQ(cfg.name, id);
        // validate() fatals on inconsistency; reaching here means ok.
        EXPECT_GT(cfg.patternRows(), 0u);
    }
}

TEST(Config, SubarrayHeightsAreNotPowersOfTwo)
{
    // O4: heights are non-powers-of-two for every preset.
    for (const auto &id : presetIds()) {
        const DeviceConfig cfg = makePreset(id);
        for (const auto &entry : cfg.subarrayPattern) {
            const bool pow2 =
                (entry.height & (entry.height - 1)) == 0;
            EXPECT_FALSE(pow2) << id << " height " << entry.height;
        }
    }
}

TEST(Config, MultipleHeightsCoexist)
{
    // O4: every preset mixes at least two subarray heights.
    for (const auto &id : presetIds()) {
        const DeviceConfig cfg = makePreset(id);
        EXPECT_GE(cfg.subarrayPattern.size(), 2u) << id;
    }
}

TEST(Config, TableIIIStructures)
{
    // Spot-check the Table III ground truth.
    const DeviceConfig a16 = makePreset("A_x4_2016");
    EXPECT_EQ(a16.patternRows(), 8192u);
    EXPECT_EQ(a16.edgeSectionRows, 16384u);
    ASSERT_TRUE(a16.coupledRowDistance.has_value());
    EXPECT_EQ(*a16.coupledRowDistance, 65536u);
    EXPECT_EQ(a16.matWidth, 512u);

    const DeviceConfig a18 = makePreset("A_x4_2018");
    EXPECT_EQ(a18.patternRows(), 4096u);
    EXPECT_EQ(a18.edgeSectionRows, 32768u);
    EXPECT_FALSE(a18.coupledRowDistance.has_value());

    const DeviceConfig b19 = makePreset("B_x4_2019");
    EXPECT_EQ(b19.matWidth, 1024u);
    ASSERT_TRUE(b19.coupledRowDistance.has_value());

    const DeviceConfig c16 = makePreset("C_x8_2016");
    EXPECT_EQ(c16.edgeSectionRows, 4096u);
    EXPECT_EQ(c16.patternRows(), 2048u);

    const DeviceConfig hbm = makePreset("HBM2_A");
    EXPECT_EQ(hbm.edgeSectionRows, 8192u);
    ASSERT_TRUE(hbm.coupledRowDistance.has_value());
    EXPECT_EQ(*hbm.coupledRowDistance, 8192u);
    EXPECT_DOUBLE_EQ(hbm.timing.tCkNs, 1.67);
}

TEST(Config, VendorMappingPolicies)
{
    // SS III-B/III-C ground truth: who remaps, who interleaves cells.
    EXPECT_EQ(makePreset("A_x4_2016").rowRemap, RowRemapScheme::MfrA8Blk);
    EXPECT_EQ(makePreset("B_x4_2019").rowRemap, RowRemapScheme::None);
    EXPECT_EQ(makePreset("C_x4_2018").rowRemap, RowRemapScheme::None);
    EXPECT_EQ(makePreset("C_x4_2018").polarityPolicy,
              CellPolarityPolicy::InterleavedPerSubarray);
    EXPECT_EQ(makePreset("A_x4_2016").polarityPolicy,
              CellPolarityPolicy::AllTrue);
}

TEST(Config, GeometryDerivedQuantities)
{
    const DeviceConfig cfg = makePreset("A_x4_2016");
    EXPECT_EQ(cfg.matsPerRow(), 8u);
    EXPECT_EQ(cfg.groupBits(), 4u);
    EXPECT_EQ(cfg.columnsPerRow(), 128u);

    const DeviceConfig b = makePreset("B_x8_2017");
    EXPECT_EQ(b.matsPerRow(), 8u);
    EXPECT_EQ(b.groupBits(), 8u);
}

TEST(ConfigDeathTest, ThresholdRangeMustStartAboveZero)
{
    // Thresholds are uniform on [thresholdMin, thresholdMax]; the
    // bank's threshold-floor skip needs a non-empty, positive range.
    DeviceConfig inverted = makeTinyConfig();
    inverted.disturb.thresholdMax = inverted.disturb.thresholdMin / 2;
    EXPECT_DEATH(inverted.validate(), "thresholdMin");

    DeviceConfig zero = makeTinyConfig();
    zero.disturb.thresholdMin = 0.0;
    EXPECT_DEATH(zero.validate(), "thresholdMin");

    DeviceConfig point = makeTinyConfig();
    point.disturb.thresholdMax = point.disturb.thresholdMin;
    point.validate();  // A single threshold value is a valid range.
}

TEST(Config, TinyConfigIsStructurallyFaithful)
{
    const DeviceConfig cfg = makeTinyConfig();
    EXPECT_GE(cfg.subarrayPattern.size(), 2u);
    EXPECT_TRUE(cfg.coupledRowDistance.has_value());
    EXPECT_EQ(cfg.rowsPerBank % cfg.edgeSectionRows, 0u);
}

TEST(Config, CoupledDistanceIsHalfTheBank)
{
    for (const auto &id : presetIds()) {
        const DeviceConfig cfg = makePreset(id);
        if (cfg.coupledRowDistance) {
            EXPECT_EQ(*cfg.coupledRowDistance, cfg.rowsPerBank / 2) << id;
        }
    }
}

} // namespace
} // namespace dram
} // namespace dramscope
