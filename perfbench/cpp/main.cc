/**
 * @file
 * The benchmark binary.  Runs one workload in repeated passes
 * for a fixed measuring time and prints, as its last stdout line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload re_structure|aib_sweep|mc_traffic --seed N
 *             --seconds S --trace 0|1 [--size full|tiny]
 *             [--golden HEX] [--trace-out FILE]
 *
 * --trace 0 reports the end-to-end metrics (every pass untraced).
 * --trace 1 alternates untraced and traced passes and reports the
 * per-layer metrics of the traced ones; its spans go to --trace-out
 * as JSONL.  --golden is the expected output digest of a pass.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    Size size = Size::Full;
    std::string golden;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] [--golden HEX] "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &s)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(s, &used, 10);
    } catch (const std::exception &) {
        usage("bad value for " + flag + ": " + s);
    }
    if (used != s.size() || s.front() == '-')
        usage("bad value for " + flag + ": " + s);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds = double(parseUnsigned(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            have_trace = true;
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny")
                usage("--size takes full or tiny");
            opt.size = value == "full" ? Size::Full : Size::Tiny;
        } else if (flag == "--golden") {
            opt.golden = value;
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return opt;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "re_structure")
        return makeReStructure(opt.size, opt.seed);
    if (opt.workload == "aib_sweep")
        return makeAibSweep(opt.size, opt.seed);
    if (opt.workload == "mc_traffic")
        return makeMcTraffic(opt.size, opt.seed);
    usage("unknown workload " + opt.workload);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[size_t(q * double(v.size() - 1) + 0.5)];
}

double
secondsSince(int64_t t0)
{
    return double(nowNs() - t0) * 1e-9;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** Metric names and units, in output order. */
using MetricList = std::vector<std::pair<const char *, const char *>>;

const MetricList kEndToEndMetrics = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_cmds_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const MetricList kLayerMetrics = {
    {"device.write_s", "s"},
    {"device.write_calls", "count"},
    {"device.write_us_p50", "us"},
    {"device.write_us_p99", "us"},
    {"device.read_s", "s"},
    {"device.read_calls", "count"},
    {"device.act_s", "s"},
    {"device.act_calls", "count"},
    {"device.act_us_p50", "us"},
    {"device.act_us_p99", "us"},
    {"device.pre_s", "s"},
    {"device.actmany_s", "s"},
    {"device.actmany_calls", "count"},
    {"device.actmany_acts_per_call", "count"},
    {"device.refresh_s", "s"},
    {"device.refresh_calls", "count"},
    {"device.refresh_ms_p50", "ms"},
    {"device.refresh_ms_p90", "ms"},
    {"device.busy_s", "s"},
    {"device.violations", "count"},
    {"host.self_s", "s"},
    {"host.cmds", "count"},
    {"host.acts", "count"},
    {"sweep.points", "count"},
    {"sweep.point_s_p50", "s"},
    {"sweep.point_s_p90", "s"},
    {"sweep.replicas", "count"},
    {"sweep.utilization", "ratio"},
    {"mc.schedule_s", "s"},
    {"mc.schedule_calls", "count"},
    {"mc.schedule.mitigated_s", "s"},
    {"mc.rowhit_rate", "ratio"},
    {"mc.refs", "count"},
    {"mc.mitigation.cmds", "count"},
    {"mc_plan_req_per_s", "1/s"},
    {"mc_exec_req_per_s", "1/s"},
    {"lint.certify_s", "s"},
    {"lint.certify_calls", "count"},
    {"lint.certify_errors", "count"},
    {"re.subarray_s", "s"},
    {"re.coupled_s", "s"},
    {"re.adjacency_s", "s"},
    {"re.polarity_s", "s"},
    {"re.verdicts", "count"},
    {"re.verdicts_wrong", "count"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

/**
 * Workload throughputs ("..._per_s" extras) are host-time rates, so
 * they are taken from the untraced passes only.
 */
bool
isRate(const std::string &name)
{
    return name.size() > 6 && name.compare(name.size() - 6, 6, "_per_s") == 0;
}

/** Per-pass per-layer values of one traced pass. */
std::map<std::string, double>
layerValues(const Tracer &tracer, const TraceSummary &sum,
            const PassOutput &out, double wall)
{
    std::map<std::string, double> m;
    auto op = [&](Op o) -> const OpStats & { return sum.ops[size_t(o)]; };
    for (const Op o : {Op::Write, Op::Read, Op::Act, Op::Pre, Op::ActMany,
                       Op::Refresh}) {
        const std::string stem = std::string("device.") + opName(o);
        m[stem + "_s"] = double(op(o).ns) * 1e-9;
        m[stem + "_calls"] = double(op(o).calls);
    }
    m["device.busy_s"] = sum.deviceAllS;
    m["device.violations"] = double(sum.violations);

    auto self = [&](Layer l) {
        const auto it = sum.selfS.find(l);
        return it == sum.selfS.end() ? 0.0 : it->second;
    };
    m["host.self_s"] = self(Layer::Re) + self(Layer::Host) + sum.replicaHostS;
    m["host.cmds"] = double(out.simCmds);
    m["host.acts"] = double(out.simActs);
    m["mc.schedule_s"] = self(Layer::Mc);
    m["lint.certify_s"] = self(Layer::Lint);
    for (const Span &s : tracer.spans()) {
        if (s.layer == Layer::Re)
            m[s.name + "_s"] += s.seconds();
        else if (s.layer == Layer::Sweep)
            m["sweep.points"] += 1;
        else if (s.layer == Layer::Mc)
            m["mc.schedule_calls"] += 1;
        else if (s.layer == Layer::Lint)
            m["lint.certify_calls"] += 1;
    }
    m["sweep.replicas"] = double(sum.replicas);
    // One replica per sweep worker.
    m["sweep.utilization"] =
        sum.replicas ? sum.replicaBusyS / (double(sum.replicas) * wall) : 0.0;
    m["trace.wall_s"] = wall;
    m["trace.unattributed_s"] = self(Layer::Bench);
    for (const auto &[name, value] : out.extra)
        if (!isRate(name))
            m[name] = value;
    return m;
}

void
printNumber(std::FILE *out, double v)
{
    std::fprintf(out, "%.12g", std::isfinite(v) ? v : 0.0);
}

/** Prints {name: {"value", "unit"}} for every metric of @p names. */
void
printMetrics(std::FILE *out, const MetricList &names,
             std::map<std::string, double> &values)
{
    std::fprintf(out, "{");
    const char *sep = "";
    for (const auto &[name, unit] : names) {
        std::fprintf(out, "%s\"%s\": {\"value\": ", sep, name);
        printNumber(out, values[name]);
        std::fprintf(out, ", \"unit\": \"%s\"}", unit);
        sep = ", ";
    }
    std::fprintf(out, "}");
}

int
run(const Options &opt)
{
    auto workload = makeWorkload(opt);
    const size_t min_passes = opt.trace ? 2 : 3;
    const size_t min_setups = 301;

    Checks checks;
    std::vector<double> setups, walls_untraced, walls_traced, cmd_rates;
    std::map<std::string, std::vector<double>> rates;
    std::vector<std::unique_ptr<Tracer>> tracers;
    std::vector<std::map<std::string, double>> layer_passes;
    std::array<OpStats, kOps> ops_all;
    std::vector<double> sweep_points;
    uint64_t first_digest = 0;

    // One set-up sample outside a pass.
    const auto sampleSetup = [&] {
        const int64_t t0 = nowNs();
        workload->setup(nullptr);
        setups.push_back(secondsSince(t0));
        workload->teardown();
    };

    const int64_t start = nowNs();
    for (uint32_t pass = 0;; ++pass) {
        const int64_t pass_start = nowNs();
        const bool traced = opt.trace && pass % 2 == 1;
        auto tracer = traced ? std::make_unique<Tracer>(pass) : nullptr;

        int64_t t0 = nowNs();
        workload->setup(tracer.get());
        setups.push_back(secondsSince(t0));

        if (tracer)
            tracer->restart();
        t0 = nowNs();
        const PassOutput out = workload->run(tracer.get(), checks);
        const double wall = secondsSince(t0);

        if (tracer)
            tracer->finish();
        workload->teardown();

        if (pass == 0)
            first_digest = out.digest;
        else
            checks.expect(out.digest == first_digest,
                          std::string(traced ? "traced" : "untraced") +
                              " pass " + std::to_string(pass) +
                              " reproduces the first pass's outputs");
        if (!opt.golden.empty())
            checks.expect(hex(out.digest) == opt.golden,
                          "output digest " + hex(out.digest) +
                              " matches golden " + opt.golden);

        if (traced) {
            walls_traced.push_back(wall);
            const TraceSummary sum = tracer->summarize();
            layer_passes.push_back(layerValues(*tracer, sum, out, wall));
            for (size_t o = 0; o < kOps; ++o)
                ops_all[o].merge(sum.ops[o]);
            for (const Span &s : tracer->spans())
                if (s.layer == Layer::Sweep)
                    sweep_points.push_back(s.seconds());
            tracers.push_back(std::move(tracer));
        } else {
            walls_untraced.push_back(wall);
            cmd_rates.push_back(double(out.simCmds) / wall);
            for (const auto &[name, value] : out.extra)
                if (isRate(name))
                    rates[name].push_back(value);
        }
        std::fprintf(stderr, "pass %u (%s): setup %.4f s, wall %.3f s",
                     pass, traced ? "traced" : "untraced", setups.back(),
                     wall);
        for (const auto &[name, value] : out.extra)
            if (isRate(name))
                std::fprintf(stderr, ", %s %.0f", name.c_str(), value);
        std::fprintf(stderr, ", digest %s\n", hex(out.digest).c_str());

        const double last = secondsSince(pass_start);
        // Set-up takes milliseconds, and the machine's speed drifts
        // over seconds: sample it between passes, spread evenly over
        // the run, so that its median does not hang on one moment.
        const double share = std::min(1.0, secondsSince(start) / opt.seconds);
        while (double(setups.size()) < share * double(min_setups))
            sampleSetup();
        if (pass + 1 >= min_passes && secondsSince(start) + last > opt.seconds)
            break;
    }
    while (setups.size() < min_setups)
        sampleSetup();

    std::printf("digest: %s\n", hex(first_digest).c_str());

    std::map<std::string, double> values;
    if (!opt.trace) {
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        values["setup_s"] = median(setups);
        values["wall_s"] = median(walls_untraced);
        values["sim_cmds_per_s"] = median(cmd_rates);
        values["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;
    } else {
        const double n = double(layer_passes.size());
        for (const auto &pass : layer_passes)
            for (const auto &[name, value] : pass)
                values[name] += value / n;
        const auto us = [&](Op o, double q) {
            return ops_all[size_t(o)].latency.quantileNs(q) / 1e3;
        };
        values["device.write_us_p50"] = us(Op::Write, 0.5);
        values["device.write_us_p99"] = us(Op::Write, 0.99);
        values["device.act_us_p50"] = us(Op::Act, 0.5);
        values["device.act_us_p99"] = us(Op::Act, 0.99);
        values["device.refresh_ms_p50"] = us(Op::Refresh, 0.5) / 1e3;
        values["device.refresh_ms_p90"] = us(Op::Refresh, 0.9) / 1e3;
        const OpStats &am = ops_all[size_t(Op::ActMany)];
        values["device.actmany_acts_per_call"] =
            am.calls ? double(am.acts) / double(am.calls) : 0.0;
        values["sweep.point_s_p50"] = quantile(sweep_points, 0.5);
        values["sweep.point_s_p90"] = quantile(sweep_points, 0.9);
        for (const auto &[name, samples] : rates)
            values[name] = median(samples);
        values["trace.overhead_s"] =
            median(walls_traced) - median(walls_untraced);

        if (!opt.traceOut.empty()) {
            std::FILE *f = std::fopen(opt.traceOut.c_str(), "w");
            if (!f) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opt.traceOut.c_str());
                return 1;
            }
            for (size_t i = 0; i < tracers.size(); ++i) {
                tracers[i]->writeJsonl(f);
                std::fprintf(f, "{\"run\":%" PRIu32 ",\"summary\":{",
                             tracers[i]->run());
                const char *sep = "";
                for (const auto &[name, value] : layer_passes[i]) {
                    std::fprintf(f, "%s\"%s\":", sep, name.c_str());
                    printNumber(f, value);
                    sep = ",";
                }
                std::fprintf(f, "}}\n");
            }
            const bool ok = std::fflush(f) == 0 && !std::ferror(f);
            if (std::fclose(f) != 0 || !ok) {
                std::fprintf(stderr, "perfbench: error writing %s\n",
                             opt.traceOut.c_str());
                return 1;
            }
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": ",
                checks.failed == 0 ? "true" : "false", checks.ops,
                checks.failed);
    printMetrics(stdout, opt.trace ? kLayerMetrics : kEndToEndMetrics,
                 values);
    std::printf("}\n");
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
