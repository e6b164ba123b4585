/**
 * @file
 * Unified-mitigation-interface tests: the DRAMSCOPE_MITIGATIONS
 * registry, the factory, per-kind firing/cadence/indirection
 * semantics, sequence-program cleanliness, and the shared
 * hammerThroughMitigation path: chunking, and each kind's sequence
 * run where its hardware runs it.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "bender/lint.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "test_common.h"

namespace dramscope {
namespace {

using core::MitigationKind;
using core::MitigationOptions;
using core::MitigationSequence;
using dram::RowAddr;

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(MitigationRegistry, RoundTripsAndRejectsUnknownIds)
{
    EXPECT_EQ(core::mitigationTable().size(), 5u);
    for (const auto &info : core::mitigationTable()) {
        EXPECT_EQ(core::mitigationInfo(info.kind).id, info.id);
        const auto parsed = core::mitigationFromString(info.id);
        ASSERT_TRUE(parsed.has_value()) << info.id;
        EXPECT_EQ(*parsed, info.kind);
    }
    EXPECT_STREQ(core::mitigationId(MitigationKind::None), "none");
    EXPECT_STREQ(core::mitigationId(MitigationKind::Graphene),
                 "graphene");
    EXPECT_STREQ(core::mitigationId(MitigationKind::RowSwap), "rowswap");
    EXPECT_FALSE(core::mitigationFromString("para").has_value());
    // None leads the registry so its sweep block keeps shard index 0.
    EXPECT_EQ(core::mitigationTable()[0].kind, MitigationKind::None);
}

TEST(MitigationRegistry, FactoryBuildsEveryKindAndNoneIsNull)
{
    const auto cfg = testutil::tinyPlain();
    const MitigationOptions opts;
    EXPECT_EQ(core::makeMitigation(MitigationKind::None, cfg, opts),
              nullptr);
    for (const auto &info : core::mitigationTable()) {
        if (info.kind == MitigationKind::None)
            continue;
        const auto mit = core::makeMitigation(info.kind, cfg, opts);
        ASSERT_NE(mit, nullptr) << info.id;
        EXPECT_EQ(mit->kind(), info.kind) << info.id;
        EXPECT_GE(mit->accountingChunk(), 1u) << info.id;
        EXPECT_EQ(mit->fired(), 0u) << info.id;
        EXPECT_TRUE(mit->pendingCommands().empty()) << info.id;
    }
}

// ---------------------------------------------------------------------
// Victim-row geometry.
// ---------------------------------------------------------------------

TEST(MitigationVictims, EdgeRowsClampAndCoupledPartnerAppends)
{
    const auto plain = testutil::tinyPlain();
    EXPECT_EQ(core::victimRows(plain, 10, false),
              (std::vector<RowAddr>{9, 11}));
    EXPECT_EQ(core::victimRows(plain, 0, false),
              (std::vector<RowAddr>{1}));
    const RowAddr last = plain.rowsPerBank - 1;
    EXPECT_EQ(core::victimRows(plain, last, false),
              (std::vector<RowAddr>{last - 1}));

    // Device-aware on a coupled config: the partner's victims ride
    // along (deduplicated).
    auto coupled = dram::makeTinyConfig();
    coupled.rowRemap = dram::RowRemapScheme::None;
    const auto v = core::victimRows(coupled, 20, true);
    EXPECT_EQ(v, (std::vector<RowAddr>{19, 21, 531, 533}));
    // Not device-aware: the MC view has no partner.
    EXPECT_EQ(core::victimRows(coupled, 20, false),
              (std::vector<RowAddr>{19, 21}));
}

// ---------------------------------------------------------------------
// Sequence programs.
// ---------------------------------------------------------------------

TEST(MitigationSequences, ProgramsAreInSpecAndCostMatches)
{
    const auto cfg = testutil::tinyPlain();
    MitigationSequence seq;
    seq.kind = MitigationKind::Graphene;
    seq.bank = 1;
    seq.rows = core::victimRows(cfg, 40, false);
    seq.extraPs = 12345;

    const auto p = seq.program(cfg);
    EXPECT_TRUE(p.expectedViolations().empty());
    const auto report = bender::lint::lint(p, cfg);
    EXPECT_TRUE(report.diags.empty());

    // Cost = one ACT..PRE cycle per row plus the extra wait.
    const auto &t = cfg.timing;
    const auto cycle = 2 * int64_t(std::llround(t.tCkNs * 1000)) +
                       int64_t(std::llround(t.tRasNs * 1000)) +
                       int64_t(std::llround(t.tRpNs * 1000));
    EXPECT_EQ(seq.costPs(t), int64_t(seq.rows.size()) * cycle + 12345);
}

TEST(MitigationSequences, GrapheneProgramClampsAtTheBankEdges)
{
    // Victim refresh at row 0 has no row -1, and at the last row no
    // row +1: the program holds exactly one ACT..PRE cycle.
    const auto cfg = testutil::tinyPlain();
    const auto program = [&](RowAddr row) {
        MitigationSequence seq;
        seq.kind = MitigationKind::Graphene;
        seq.rows = core::victimRows(cfg, row, false);
        return seq.program(cfg);
    };
    const auto countActs = [](const bender::Program &p) {
        size_t acts = 0;
        for (const auto &in : p.instrs())
            acts += in.op == bender::Opcode::Act ? 1 : 0;
        return acts;
    };
    const auto lo = program(0);
    EXPECT_EQ(countActs(lo), 1u);
    ASSERT_GE(lo.size(), 1u);
    EXPECT_EQ(lo.instrs()[0].row, RowAddr(1));

    const RowAddr last = cfg.rowsPerBank - 1;
    const auto hi = program(last);
    EXPECT_EQ(countActs(hi), 1u);
    EXPECT_EQ(hi.instrs()[0].row, last - 1);

    EXPECT_EQ(countActs(program(9)), 2u);
}

// ---------------------------------------------------------------------
// Per-kind semantics.
// ---------------------------------------------------------------------

TEST(GrapheneMitigation, FiresAtThresholdAndRefreshWindowResets)
{
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.graphene.threshold = 10;
    const auto mit =
        core::makeMitigation(MitigationKind::Graphene, cfg, opts);

    for (int k = 0; k < 9; ++k)
        mit->onActivate(0, 40);
    EXPECT_TRUE(mit->pendingCommands().empty());
    mit->onActivate(0, 40);
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].bank, 0u);
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{39, 41}));
    EXPECT_EQ(fired[0].neutralized, (std::vector<RowAddr>{40}));
    EXPECT_EQ(mit->fired(), 1u);
    // Draining is destructive.
    EXPECT_TRUE(mit->pendingCommands().empty());

    // A refresh window clears the counters: 9 more ACTs stay silent.
    mit->onActivate(0, 40, 9);
    mit->onRefreshWindow();
    mit->onActivate(0, 40, 9);
    EXPECT_TRUE(mit->pendingCommands().empty());
}

TEST(GrapheneMitigation, BanksTrackIndependently)
{
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.graphene.threshold = 10;
    const auto mit =
        core::makeMitigation(MitigationKind::Graphene, cfg, opts);
    mit->onActivate(0, 7, 9);
    mit->onActivate(1, 7, 9);
    EXPECT_TRUE(mit->pendingCommands().empty());
    mit->onActivate(1, 7, 1);
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].bank, 1u);
}

TEST(RfmMitigation, RaaCadenceTargetsTheHottestRow)
{
    auto cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    MitigationOptions opts;
    opts.raaimt = 100;
    const auto mit = core::makeMitigation(MitigationKind::Rfm, cfg, opts);
    EXPECT_EQ(mit->accountingChunk(), 25u);

    // The space-saving table must pick the majority row when the
    // RAA counter reaches the management threshold.
    mit->onActivate(0, 200, 30);
    mit->onActivate(0, 20, 69);
    EXPECT_TRUE(mit->pendingCommands().empty());
    mit->onActivate(0, 20, 1);  // RAA hits 100: RFM fires.
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    // In-DRAM view: row 20's victims plus its coupled partner's.
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{19, 21, 531, 533}));
    EXPECT_EQ(fired[0].neutralized, (std::vector<RowAddr>{20, 532}));
}

TEST(DrfmMitigation, RefreshesTheSampledRowEveryInterval)
{
    auto cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    MitigationOptions opts;
    opts.drfmInterval = 50;
    const auto mit =
        core::makeMitigation(MitigationKind::Drfm, cfg, opts);

    mit->onActivate(0, 100, 49);
    mit->onActivate(0, 60, 1);  // Interval reached; sample is row 60.
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{59, 61, 571, 573}));
    EXPECT_EQ(mit->fired(), 1u);
}

TEST(DrfmMitigation, CadenceCarriesTheOvershoot)
{
    // 9000 ACTs at interval 3000 are three DRFMs however they are
    // batched: the count past each firing carries over.
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.drfmInterval = 3000;
    const auto mit =
        core::makeMitigation(MitigationKind::Drfm, cfg, opts);
    mit->onActivate(0, 60, 7500);
    EXPECT_EQ(mit->fired(), 2u);
    mit->onActivate(0, 60, 1500);
    EXPECT_EQ(mit->fired(), 3u);
    EXPECT_EQ(mit->pendingCommands().size(), 3u);
}

TEST(RowSwapMitigation, IndirectionMovesTheHotRowPerBank)
{
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.rowswap.threshold = 20;
    opts.rowswap.spareBase = 900;
    const auto mit =
        core::makeMitigation(MitigationKind::RowSwap, cfg, opts);

    EXPECT_EQ(mit->resolve(0, 5), 5u);
    mit->onActivate(0, 5, 20);
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{5, 900}));
    EXPECT_EQ(fired[0].neutralized, (std::vector<RowAddr>{5}));
    EXPECT_GT(fired[0].extraPs, 0);  // The data burst costs time.
    EXPECT_EQ(mit->resolve(0, 5), 900u);
    // The indirection is per bank.
    EXPECT_EQ(mit->resolve(1, 5), 5u);
}

// ---------------------------------------------------------------------
// The shared adversarial-hammer path.
// ---------------------------------------------------------------------

TEST(HammerThroughMitigation, ChunksAccountEverythingAndFiresInline)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    MitigationOptions opts;
    opts.graphene.threshold = 100;
    const auto mit =
        core::makeMitigation(MitigationKind::Graphene, cfg, opts);

    std::vector<MitigationSequence> seen;
    core::hammerThroughMitigation(
        host, *mit, 0, 30, 350,
        [&](const MitigationSequence &s) { seen.push_back(s); });

    // 350 activations at threshold 100: three firings, none skipped
    // by chunking (chunk = threshold / 4 <= trigger spacing).
    EXPECT_EQ(mit->fired(), 3u);
    ASSERT_EQ(seen.size(), 3u);
    for (const auto &s : seen)
        EXPECT_EQ(s.neutralized, (std::vector<RowAddr>{30}));
    // Nothing left pending after the loop.
    EXPECT_TRUE(mit->pendingCommands().empty());
}

TEST(HammerThroughMitigation, DefaultHandlerRunsTheProgramOnTheHost)
{
    // Victim refresh through the device: armed victims survive a
    // 100k-ACT hammer that flips bits without the mitigation.
    auto cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    const RowAddr aggr = 60;

    const auto flipsWith = [&](MitigationKind kind) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        for (const RowAddr v : {aggr - 1, aggr + 1})
            host.writeRowPattern(0, v, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        MitigationOptions opts;
        opts.graphene.threshold = 6000;
        if (kind == MitigationKind::None) {
            host.hammer(0, aggr, 100000);
        } else {
            const auto mit = core::makeMitigation(kind, cfg, opts);
            core::hammerThroughMitigation(host, *mit, 0, aggr, 100000);
            EXPECT_GT(mit->fired(), 0u);
        }
        size_t flips = 0;
        for (const RowAddr v : {aggr - 1, aggr + 1}) {
            const BitVec row = host.readRowBits(0, v);
            flips += row.size() - row.popcount();
        }
        return flips;
    };

    EXPECT_GT(flipsWith(MitigationKind::None), 0u);
    EXPECT_EQ(flipsWith(MitigationKind::Graphene), 0u);
}

TEST(HammerThroughMitigation, InDramRefreshReachesRemappedNeighbours)
{
    // On the remapped tiny chip, logical row 60's physical neighbours
    // are logical rows 61 and 64: the MC's +-1 view misses row 64.
    // RFM and DRFM refresh inside the DRAM, through its own remap, so
    // both victims keep every bit; unprotected, the hammer flips them.
    const auto cfg = dram::makeTinyConfig();
    ASSERT_NE(cfg.rowRemap, dram::RowRemapScheme::None);
    const RowAddr aggr = 60;
    const std::vector<RowAddr> victims = {61, 64};

    const auto flipsWith = [&](MitigationKind kind) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        for (const RowAddr v : victims)
            host.writeRowPattern(0, v, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        if (kind == MitigationKind::None) {
            host.hammer(0, aggr, 200000);
        } else {
            const auto mit = core::makeMitigation(kind, cfg, {});
            core::hammerThroughMitigation(host, *mit, 0, aggr, 200000);
            EXPECT_GT(mit->fired(), 0u);
        }
        size_t flips = 0;
        for (const RowAddr v : victims) {
            const BitVec row = host.readRowBits(0, v);
            flips += row.size() - row.popcount();
        }
        return flips;
    };

    EXPECT_GT(flipsWith(MitigationKind::None), 0u);
    EXPECT_EQ(flipsWith(MitigationKind::Rfm), 0u);
    EXPECT_EQ(flipsWith(MitigationKind::Drfm), 0u);
}

TEST(HammerThroughMitigation, RowSwapKeepsTheRowsData)
{
    // A swap migrates the row's data, so the data stays readable at
    // the row's new physical home.
    const auto cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    MitigationOptions opts;
    opts.rowswap.threshold = 100;
    const auto mit =
        core::makeMitigation(MitigationKind::RowSwap, cfg, opts);

    const RowAddr row = 5;
    host.writeRowPattern(0, row, 0xA5A5A5A5A5A5A5A5ULL);
    const BitVec written = host.readRowBits(0, row);
    core::hammerThroughMitigation(host, *mit, 0, row, 100);
    ASSERT_EQ(mit->fired(), 1u);
    ASSERT_NE(mit->resolve(0, row), row);
    EXPECT_EQ(host.readRowBits(0, mit->resolve(0, row)), written);
}

} // namespace
} // namespace dramscope
