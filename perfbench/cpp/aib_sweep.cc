/**
 * @file
 * aib_sweep: the Fig. 16 victim/aggressor pattern grid and the Fig. 12
 * RowHammer/RowPress bit-index panels, through the parallel sweep
 * path of core::Characterization at a pinned job count.
 */

#include "workload.h"

#include <cstring>
#include <vector>

#include "bender/host.h"
#include "core/charact.h"
#include "dram/chip.h"

namespace perfbench {

using namespace dramscope;

namespace {

/** Pinned sweep worker count, so the figures do not depend on the
 *  machine's core count.  Needs at least this many cores. */
constexpr unsigned kSweepJobs = 3;

struct Panel
{
    dram::AibMechanism mech;
    bool dataOne;
    bool upper;
};

class AibSweep final : public Workload
{
  public:
    AibSweep(Size size, uint64_t seed) : seed_(seed)
    {
        if (size == Size::Full) {
            nibbles_ = 16;
            // One victim group per shard: 6 shards keep 3 jobs busy.
            victimRows_ = 6;
            // Charged victims flip under both mechanisms; the upper and
            // lower aggressor panels reverse the bit-index phase.
            panels_ = {{dram::AibMechanism::RowHammer, true, true},
                       {dram::AibMechanism::RowHammer, true, false},
                       {dram::AibMechanism::RowPress, true, true},
                       {dram::AibMechanism::RowPress, true, false}};
        } else {
            nibbles_ = 4;
            victimRows_ = 8;
            panels_ = {{dram::AibMechanism::RowHammer, true, true}};
        }
    }

    void
    setup(Tracer *tracer) override
    {
        cfg_ = dram::makePreset("A_x4_2021");
        auto chip = std::make_unique<dram::Chip>(cfg_);
        const dram::Chip &bare = *chip;  // Owned by dev_ from here on.
        dev_ = tracer ? tracer->wrap(std::move(chip), false)
                      : std::unique_ptr<dram::Device>(std::move(chip));
        host_ = std::make_unique<bender::Host>(*dev_);
        host_->setMetrics(&metrics_);

        core::CharactOptions opts;
        opts.rowRemap = cfg_.rowRemap;
        opts.victimRows = victimRows_;
        opts.jobs = kSweepJobs;
        opts.sweepSeed = seed_;
        if (tracer) {
            opts.deviceFactory = [tracer](const dram::DeviceConfig &cfg) {
                return tracer->wrap(std::make_unique<dram::Chip>(cfg), true);
            };
        }
        charact_ = std::make_unique<core::Characterization>(
            *host_,
            core::PhysMap::fromSwizzle(bare.swizzle(), cfg_.columnsPerRow(),
                                       cfg_.rdDataBits),
            opts);
    }

    PassOutput
    run(Tracer *tracer, Checks &checks) override
    {
        std::vector<double> values;
        {
            SpanScope span(tracer, "sweep.patternBer", Layer::Sweep,
                           "baseline");
            values.push_back(charact_->patternBer(0xF, 0x0));
        }
        const double baseline = values.front();
        // Worst relative BER of the grid (first in row-major order).
        double worst = -1.0;
        unsigned worst_vic = 0, worst_aggr = 0;
        for (unsigned v = 0; v < nibbles_; ++v) {
            for (unsigned a = 0; a < nibbles_; ++a) {
                double ber = 0;
                {
                    SpanScope span(tracer, "sweep.patternBer", Layer::Sweep,
                                   std::to_string(v) + "/" +
                                       std::to_string(a));
                    ber = charact_->patternBer(uint8_t(v), uint8_t(a));
                }
                values.push_back(ber);
                if (ber / baseline > worst) {
                    worst = ber / baseline;
                    worst_vic = v;
                    worst_aggr = a;
                }
            }
        }
        for (const auto &p : panels_) {
            SpanScope span(tracer, "sweep.berVsPhysIndex", Layer::Sweep,
                           std::string(p.mech == dram::AibMechanism::RowHammer
                                           ? "hammer"
                                           : "press") +
                               (p.upper ? "/upper" : "/lower"));
            const auto ber = charact_->berVsPhysIndex(p.mech, p.dataOne,
                                                      p.upper);
            values.insert(values.end(), ber.begin(), ber.end());
        }

        PassOutput out;
        Digest digest;
        for (const double v : values) {
            uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            digest.value(bits);
        }
        out.digest = digest.get();
        if (nibbles_ == 16) {
            // O14: the worst pattern pair is complementary 2-bit runs.
            const unsigned pair = worst_vic << 4 | worst_aggr;
            checks.expect(pair == 0x3C || pair == 0xC3 || pair == 0x69 ||
                              pair == 0x96,
                          "O14 worst pattern is a complementary 2-bit "
                          "pair (got victim " +
                              std::to_string(worst_vic) + ", aggressor " +
                              std::to_string(worst_aggr) + ")");
        }
        countCommands(metrics_, out);
        return out;
    }

    void
    teardown() override
    {
        charact_.reset();
        host_.reset();
        dev_.reset();
        metrics_.reset();
    }

  private:
    uint64_t seed_;
    unsigned nibbles_ = 16;
    uint32_t victimRows_ = 6;
    std::vector<Panel> panels_;

    dram::DeviceConfig cfg_;
    obs::MetricsRegistry metrics_;
    std::unique_ptr<dram::Device> dev_;
    std::unique_ptr<bender::Host> host_;
    std::unique_ptr<core::Characterization> charact_;
};

} // namespace

std::unique_ptr<Workload>
makeAibSweep(Size size, uint64_t seed)
{
    return std::make_unique<AibSweep>(size, seed);
}

} // namespace perfbench
