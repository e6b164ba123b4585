#include "trace.h"

#include <cinttypes>

namespace perfbench {

using namespace dramscope;

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Bench: return "bench";
    case Layer::Re: return "re";
    case Layer::Sweep: return "sweep";
    case Layer::Mc: return "mc";
    case Layer::Lint: return "lint";
    case Layer::Host: return "host";
    }
    return "?";
}

Tracer::Tracer(uint32_t run) : run_(run)
{
    spans_.push_back(Span{"pass", {}, Layer::Bench, 0, nowNs(), 0});
    stack_.push_back(0);
}

uint32_t
Tracer::begin(std::string name, Layer layer, std::string attr)
{
    const auto id = uint32_t(spans_.size());
    spans_.push_back(Span{std::move(name), std::move(attr), layer,
                          stack_.back(), nowNs(), 0});
    stack_.push_back(id);
    current_.store(id, std::memory_order_relaxed);
    return id;
}

void
Tracer::end(uint32_t id)
{
    spans_[id].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
    current_.store(stack_.empty() ? 0 : stack_.back(),
                   std::memory_order_relaxed);
}

std::unique_ptr<dram::Device>
Tracer::wrap(std::unique_ptr<dram::Device> dev, bool replica)
{
    DeviceStats *stats = nullptr;
    {
        std::lock_guard<std::mutex> lock(devices_mu_);
        devices_.push_back(std::make_unique<DeviceStats>());
        stats = devices_.back().get();
    }
    stats->replica = replica;
    return std::make_unique<TimingDevice>(std::move(dev), *stats, current_);
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t id = 0; id < spans_.size(); ++id)
        self[id] = spans_[id].seconds();
    for (size_t id = 1; id < spans_.size(); ++id)
        self[spans_[id].parent] -= spans_[id].seconds();
    for (const auto &dev : devices_) {
        if (dev->replica)
            continue;
        for (size_t s = 0; s < dev->bySpan.size() && s < self.size(); ++s)
            for (const auto &op : dev->bySpan[s])
                self[s] -= double(op.ns) * 1e-9;
    }
    return self;
}

TraceSummary
Tracer::summarize() const
{
    TraceSummary sum;
    const std::vector<double> self = selfSeconds();
    for (size_t id = 0; id < spans_.size(); ++id)
        sum.selfS[spans_[id].layer] += self[id];
    for (const auto &dev : devices_) {
        const double busy = double(dev->busyNs()) * 1e-9;
        sum.deviceAllS += busy;
        if (dev->replica) {
            ++sum.replicas;
            sum.replicaHostS += double(dev->gapNs) * 1e-9;
            sum.replicaBusyS += busy + double(dev->gapNs) * 1e-9;
        }
        sum.violations += dev->violations;
        for (size_t op = 0; op < kOps; ++op)
            sum.ops[op].merge(dev->ops[op]);
    }
    return sum;
}

namespace {

void
writeJsonString(std::FILE *out, const std::string &s)
{
    std::fputc('"', out);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', out);
        if (static_cast<unsigned char>(c) >= 0x20)
            std::fputc(c, out);
    }
    std::fputc('"', out);
}

} // namespace

void
Tracer::writeJsonl(std::FILE *out) const
{
    const std::vector<double> self = selfSeconds();
    // Device calls per span, summed over every device (replicas too).
    std::vector<SpanOps> ops(spans_.size());
    for (const auto &dev : devices_)
        for (size_t s = 0; s < dev->bySpan.size() && s < ops.size(); ++s)
            for (size_t op = 0; op < kOps; ++op) {
                ops[s][op].calls += dev->bySpan[s][op].calls;
                ops[s][op].ns += dev->bySpan[s][op].ns;
            }

    const int64_t t0 = spans_[0].startNs;
    for (size_t id = 0; id < spans_.size(); ++id) {
        const Span &s = spans_[id];
        std::fprintf(out, "{\"run\":%" PRIu32 ",\"id\":%zu,", run_, id);
        if (id == 0)
            std::fprintf(out, "\"parent\":null,");
        else
            std::fprintf(out, "\"parent\":%" PRIu32 ",", s.parent);
        std::fprintf(out, "\"name\":");
        writeJsonString(out, s.name);
        std::fprintf(out, ",\"attr\":");
        writeJsonString(out, s.attr);
        std::fprintf(out,
                     ",\"layer\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                     "\"self_s\":%.9f,\"device\":{",
                     layerName(s.layer), double(s.startNs - t0) * 1e-9,
                     double(s.endNs - t0) * 1e-9,
                     self[id]);
        bool first = true;
        for (size_t op = 0; op < kOps; ++op) {
            if (ops[id][op].calls == 0)
                continue;
            std::fprintf(out, "%s\"%s\":{\"calls\":%" PRIu64 ",\"s\":%.9f}",
                         first ? "" : ",", opName(Op(op)),
                         ops[id][op].calls, double(ops[id][op].ns) * 1e-9);
            first = false;
        }
        std::fprintf(out, "}}\n");
    }
}

} // namespace perfbench
