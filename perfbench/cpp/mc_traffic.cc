/**
 * @file
 * mc_traffic: scheduled traffic.  The plan phase schedules three
 * request streams under every row policy x mitigation and certifies
 * each schedule; the exec phase runs one schedule per stream on a
 * fresh chip.
 */

#include "workload.h"

#include <vector>

#include "bender/host.h"
#include "bender/lint.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "mc/mc.h"
#include "mc/workload.h"
#include "util/rng.h"

namespace perfbench {

using namespace dramscope;

namespace {

struct Stream
{
    mc::WorkloadKind kind;
    double readFraction;
    /** The schedule the exec phase runs for this stream. */
    mc::RowPolicy execPolicy;
    core::MitigationKind execMitigation;
};

/** Streaming is read-mostly, Zipfian write-heavy on hot rows, chase
 *  reads only (the generator ignores the read fraction). */
const Stream kStreams[] = {
    {mc::WorkloadKind::Streaming, 0.75, mc::RowPolicy::Open,
     core::MitigationKind::None},
    {mc::WorkloadKind::Zipfian, 0.25, mc::RowPolicy::Closed,
     core::MitigationKind::Graphene},
    {mc::WorkloadKind::PointerChase, 1.0, mc::RowPolicy::Closed,
     core::MitigationKind::None},
};

/** One stream's exec-phase device and its planned program. */
struct Exec
{
    obs::MetricsRegistry metrics;
    std::unique_ptr<dram::Device> dev;
    std::unique_ptr<bender::Host> host;
    bender::Program program;
};

class McTraffic final : public Workload
{
  public:
    McTraffic(Size size, uint64_t seed)
        : seed_(seed), requests_(size == Size::Full ? 25000 : 2000)
    {
    }

    void
    setup(Tracer *tracer) override
    {
        cfg_ = dram::makePreset("A_x4_2016");
        streams_.clear();
        execs_.clear();
        for (size_t i = 0; i < std::size(kStreams); ++i) {
            mc::WorkloadOptions wopt;
            wopt.requests = requests_;
            wopt.seed = hashCombine(seed_, i);
            wopt.readFraction = kStreams[i].readFraction;
            streams_.push_back(mc::makeWorkload(kStreams[i].kind, cfg_, wopt));

            auto e = std::make_unique<Exec>();
            std::unique_ptr<dram::Device> chip =
                std::make_unique<dram::Chip>(cfg_);
            e->dev = tracer ? tracer->wrap(std::move(chip), false)
                            : std::move(chip);
            e->host = std::make_unique<bender::Host>(*e->dev);
            e->host->setMetrics(&e->metrics);
            execs_.push_back(std::move(e));
        }
    }

    PassOutput
    run(Tracer *tracer, Checks &checks) override
    {
        PassOutput out;
        Digest digest;
        const int64_t plan_start = nowNs();
        plan(tracer, checks, out, digest);
        const int64_t exec_start = nowNs();
        execute(tracer, checks, out, digest);
        const int64_t exec_end = nowNs();

        // Requests per host second of each phase: the plan phase
        // schedules every stream once per grid cell.
        const double reqs = double(std::size(kStreams) * requests_);
        const double cells = double(mc::policyTable().size() *
                                    core::mitigationTable().size());
        out.extra["mc_plan_req_per_s"] =
            cells * reqs / (double(exec_start - plan_start) * 1e-9);
        out.extra["mc_exec_req_per_s"] =
            reqs / (double(exec_end - exec_start) * 1e-9);
        out.digest = digest.get();
        return out;
    }

    void
    teardown() override
    {
        streams_.clear();
        execs_.clear();
    }

  private:
    /** Schedules and certifies every stream x policy x mitigation. */
    void
    plan(Tracer *tracer, Checks &checks, PassOutput &out, Digest &digest)
    {
        uint64_t hits = 0, served = 0, refs = 0, mit_cmds = 0, errors = 0;
        double mitigated_s = 0;
        for (size_t i = 0; i < std::size(kStreams); ++i) {
            const Stream &s = kStreams[i];
            for (const auto &pol : mc::policyTable()) {
                for (const auto &mit : core::mitigationTable()) {
                    const std::string cell =
                        std::string(mc::workloadId(s.kind)) + "/" + pol.id +
                        "/" + mit.id;
                    mc::SchedulerOptions sopt;
                    sopt.policy = pol.policy;
                    sopt.mitigation = mit.kind;
                    mc::ScheduleResult result;
                    {
                        SpanScope span(tracer, "mc.schedule", Layer::Mc,
                                       cell);
                        result = mc::schedule(streams_[i], cfg_, sopt);
                        const double d = span.close();
                        if (mit.kind != core::MitigationKind::None)
                            mitigated_s += d;
                    }
                    bool certified = false;
                    {
                        SpanScope span(tracer, "lint.certify", Layer::Lint,
                                       cell);
                        certified =
                            bender::lint::certify(result.program, cfg_)
                                .certified();
                    }
                    errors += certified ? 0 : 1;
                    checks.expect(certified, "certificate of " + cell);
                    const mc::ScheduleStats &st = result.stats;
                    digest.text(st.summary());
                    hits += st.rowHits;
                    served += st.served();
                    refs += st.refs;
                    mit_cmds += st.mitCmds;
                    if (pol.policy == s.execPolicy &&
                        mit.kind == s.execMitigation)
                        execs_[i]->program = std::move(result.program);
                }
            }
        }
        out.extra["mc.rowhit_rate"] =
            served ? double(hits) / double(served) : 0.0;
        out.extra["mc.refs"] = double(refs);
        out.extra["mc.mitigation.cmds"] = double(mit_cmds);
        out.extra["lint.certify_errors"] = double(errors);
        out.extra["mc.schedule.mitigated_s"] = mitigated_s;
    }

    /** Runs each stream's planned program on its fresh chip. */
    void
    execute(Tracer *tracer, Checks &checks, PassOutput &out, Digest &digest)
    {
        for (size_t i = 0; i < std::size(kStreams); ++i) {
            Exec &e = *execs_[i];
            bender::ExecResult result;
            {
                SpanScope span(tracer, "host.run", Layer::Host,
                               mc::workloadId(kStreams[i].kind));
                result = e.host->run(e.program);
            }
            checks.expect(e.dev->violationCount() == 0,
                          std::string("zero device violations executing ") +
                              mc::workloadId(kStreams[i].kind));
            digest.bytes(result.reads.data(),
                         result.reads.size() * sizeof(uint64_t));
            countCommands(e.metrics, out);
        }
    }

    uint64_t seed_;
    size_t requests_;
    dram::DeviceConfig cfg_;
    std::vector<std::vector<mc::Request>> streams_;
    std::vector<std::unique_ptr<Exec>> execs_;
};

} // namespace

std::unique_ptr<Workload>
makeMcTraffic(Size size, uint64_t seed)
{
    return std::make_unique<McTraffic>(size, seed);
}

} // namespace perfbench
