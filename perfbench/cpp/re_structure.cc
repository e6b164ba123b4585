/**
 * @file
 * re_structure: the Table III reverse-engineering pipeline, run
 * serially on one host per preset, every verdict checked against the
 * hidden DeviceConfig.
 */

#include "workload.h"

#include <optional>
#include <vector>

#include "bender/host.h"
#include "core/re_adjacency.h"
#include "core/re_coupled.h"
#include "core/re_polarity.h"
#include "core/re_subarray.h"
#include "dram/chip.h"
#include "dram/geometry.h"
#include "util/rng.h"

namespace perfbench {

using namespace dramscope;

namespace {

/** One device under test and what the RE tools recovered from it. */
struct Target
{
    dram::DeviceConfig cfg;
    obs::MetricsRegistry metrics;
    std::unique_ptr<dram::Device> dev;
    std::unique_ptr<bender::Host> host;

    core::SubarrayDiscovery discovery;
    bool periodic = false;
    std::optional<uint32_t> coupled;
    dram::RowRemapScheme remap = dram::RowRemapScheme::None;
    core::PolarityResult polarity;
};

/** Subarray heights of the first edge section, from ground truth. */
std::vector<uint32_t>
truthHeights(const dram::DeviceConfig &cfg)
{
    std::vector<uint32_t> heights;
    const dram::SubarrayMap map(cfg);
    for (size_t k = 0; k < map.count(); ++k) {
        const auto &sub = map.subarray(k);
        if (sub.firstRow + sub.height > cfg.edgeSectionRows)
            break;
        heights.push_back(sub.height);
    }
    return heights;
}

class ReStructure final : public Workload
{
  public:
    ReStructure(Size size, uint64_t seed) : seed_(seed)
    {
        // DDR4 x4 and x8 and HBM2; every verdict takes both values:
        // coupled rows (A_x4_2016, HBM2_A), the Mfr. A row remap
        // (A_x4_2016, HBM2_A) and Mfr. C's mixed polarity (C_x8_2016).
        if (size == Size::Full)
            presets_ = {"A_x4_2016", "C_x8_2016", "HBM2_A"};
        else
            presets_ = {"C_x8_2016"};
    }

    void
    setup(Tracer *tracer) override
    {
        targets_.clear();
        for (const auto &id : presets_) {
            auto t = std::make_unique<Target>();
            t->cfg = dram::makePreset(id);
            std::unique_ptr<dram::Device> chip =
                std::make_unique<dram::Chip>(t->cfg);
            t->dev = tracer ? tracer->wrap(std::move(chip), false)
                            : std::move(chip);
            t->host = std::make_unique<bender::Host>(*t->dev);
            t->host->setMetrics(&t->metrics);
            targets_.push_back(std::move(t));
        }
    }

    PassOutput
    run(Tracer *tracer, Checks &checks) override
    {
        for (size_t i = 0; i < targets_.size(); ++i)
            recover(*targets_[i], tracer, hashCombine(seed_, i));

        PassOutput out;
        Digest digest;
        uint64_t wrong = 0;
        for (const auto &t : targets_) {
            wrong += verify(*t, checks);
            digest.bytes(t->discovery.heights.data(),
                         t->discovery.heights.size() * sizeof(uint32_t));
            digest.value(t->discovery.sectionRows);
            digest.value(t->periodic);
            digest.value(t->coupled.value_or(0));
            digest.value(t->remap);
            digest.value(t->polarity.mixed);
            digest.value(t->polarity.allTrue);
            countCommands(t->metrics, out);
        }
        out.digest = digest.get();
        out.extra["re.verdicts"] = double(kVerdicts * targets_.size());
        out.extra["re.verdicts_wrong"] = double(wrong);
        return out;
    }

    void teardown() override { targets_.clear(); }

  private:
    static constexpr size_t kVerdicts = 6;

    /** The Table III tool chain, in bench_table3_structure order. */
    static void
    recover(Target &t, Tracer *tracer, uint64_t rng_seed)
    {
        bender::Host &host = *t.host;
        const std::string &id = t.cfg.name;
        {
            SpanScope span(tracer, "re.subarray", Layer::Re, id);
            core::SubarrayMapper mapper(host);
            t.discovery = mapper.discoverFirstSection();
            Rng rng(rng_seed);
            t.periodic = mapper.verifyPeriodicity(t.discovery, 6, rng);
        }
        {
            SpanScope span(tracer, "re.coupled", Layer::Re, id);
            core::CoupledOptions copts;
            copts.probeRow = 1200;
            core::CoupledRowDetector coupled(host, copts);
            t.coupled = coupled.detect();
        }
        {
            SpanScope span(tracer, "re.adjacency", Layer::Re, id);
            core::AdjacencyMapper adjacency(host);
            t.remap = adjacency.detectRemapScheme(1024);
        }
        {
            SpanScope span(tracer, "re.polarity", Layer::Re, id);
            // One retention probe in each of the first three subarrays.
            std::vector<dram::RowAddr> probes;
            uint32_t row = 0;
            for (const auto h : t.discovery.heights) {
                probes.push_back(row + h / 2);
                row += h;
                if (probes.size() == 3)
                    break;
            }
            core::CellTypeClassifier polarity(host);
            t.polarity = polarity.classify(probes);
        }
    }

    /** Checks the kVerdicts verdicts; returns how many were wrong. */
    static uint64_t
    verify(const Target &t, Checks &checks)
    {
        const dram::DeviceConfig &cfg = t.cfg;
        const std::string id = cfg.name + ": ";
        const auto &d = t.discovery;
        const bool polarity_ok =
            cfg.polarityPolicy == dram::CellPolarityPolicy::AllTrue
                ? t.polarity.allTrue
                : t.polarity.mixed;
        const bool ok[kVerdicts] = {
            checks.expect(d.heights == truthHeights(cfg) && d.openBitline,
                          id + "subarray heights"),
            checks.expect(d.sectionRows == cfg.edgeSectionRows &&
                              d.edgePairConfirmed,
                          id + "edge section"),
            checks.expect(t.coupled == cfg.coupledRowDistance,
                          id + "coupled-row distance"),
            checks.expect(t.remap == cfg.rowRemap, id + "row remap"),
            checks.expect(polarity_ok, id + "cell polarity"),
            checks.expect(t.periodic, id + "subarray periodicity"),
        };
        uint64_t wrong = 0;
        for (const bool v : ok)
            wrong += v ? 0 : 1;
        return wrong;
    }

    uint64_t seed_;
    std::vector<std::string> presets_;
    std::vector<std::unique_ptr<Target>> targets_;
};

} // namespace

std::unique_ptr<Workload>
makeReStructure(Size size, uint64_t seed)
{
    return std::make_unique<ReStructure>(size, seed);
}

} // namespace perfbench
