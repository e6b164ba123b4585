#include "timing_device.h"

#include <bit>

namespace perfbench {

using namespace dramscope;

const char *
opName(Op op)
{
    switch (op) {
    case Op::Act: return "act";
    case Op::Pre: return "pre";
    case Op::Read: return "read";
    case Op::Write: return "write";
    case Op::Refresh: return "refresh";
    case Op::ActMany: return "actmany";
    case Op::ActManyAnalytic: return "actmany_analytic";
    case Op::RefreshNeighbors: return "refresh_neighbors";
    case Op::Count: break;
    }
    return "?";
}

void
LatencyHistogram::add(uint64_t ns)
{
    size_t idx = 0;
    if (ns < kSub) {
        idx = size_t(ns);
    } else {
        const int e = 63 - std::countl_zero(ns);  // e >= 3
        const uint64_t sub = (ns >> (e - 3)) & (kSub - 1);
        idx = size_t(e) * kSub + size_t(sub);
    }
    ++buckets_[idx];
    ++samples_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    samples_ += other.samples_;
}

double
LatencyHistogram::quantileNs(double q) const
{
    if (samples_ == 0)
        return 0.0;
    const auto rank = uint64_t(q * double(samples_ - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > rank) {
            if (i < kSub)
                return double(i);
            const size_t e = i / kSub;
            const size_t sub = i % kSub;
            return double((kSub + sub) << (e - 3));
        }
    }
    return 0.0;
}

void
OpStats::merge(const OpStats &other)
{
    calls += other.calls;
    ns += other.ns;
    acts += other.acts;
    latency.merge(other.latency);
}

uint64_t
DeviceStats::busyNs() const
{
    uint64_t total = 0;
    for (const auto &op : ops)
        total += op.ns;
    return total;
}

TimingDevice::TimingDevice(std::unique_ptr<dram::Device> inner,
                           DeviceStats &stats,
                           const std::atomic<uint32_t> &span)
    : inner_(std::move(inner)), stats_(stats), span_(span)
{
}

TimingDevice::~TimingDevice()
{
    stats_.violations += inner_->violationCount();
}

int64_t
TimingDevice::begin()
{
    const int64_t t0 = nowNs();
    if (last_end_ns_ != 0 && t0 - last_end_ns_ < DeviceStats::kBusyGapNs)
        stats_.gapNs += uint64_t(t0 - last_end_ns_);
    return t0;
}

void
TimingDevice::finish(Op op, int64_t t0, uint64_t acts)
{
    const int64_t t1 = nowNs();
    const auto dt = uint64_t(t1 - t0);
    last_end_ns_ = t1;
    OpStats &s = stats_.ops[size_t(op)];
    ++s.calls;
    s.ns += dt;
    s.acts += acts;
    s.latency.add(dt);
    const uint32_t span = span_.load(std::memory_order_relaxed);
    if (span >= stats_.bySpan.size())
        stats_.bySpan.resize(size_t(span) + 1);
    SpanOp &so = stats_.bySpan[span][size_t(op)];
    ++so.calls;
    so.ns += dt;
}

const dram::DeviceConfig &
TimingDevice::config() const
{
    return inner_->config();
}

void
TimingDevice::act(dram::BankId b, dram::RowAddr row, dram::NanoTime now)
{
    const int64_t t0 = begin();
    inner_->act(b, row, now);
    finish(Op::Act, t0);
}

void
TimingDevice::pre(dram::BankId b, dram::NanoTime now)
{
    const int64_t t0 = begin();
    inner_->pre(b, now);
    finish(Op::Pre, t0);
}

uint64_t
TimingDevice::read(dram::BankId b, dram::ColAddr col, dram::NanoTime now)
{
    const int64_t t0 = begin();
    const uint64_t data = inner_->read(b, col, now);
    finish(Op::Read, t0);
    return data;
}

void
TimingDevice::write(dram::BankId b, dram::ColAddr col, uint64_t data,
                    dram::NanoTime now)
{
    const int64_t t0 = begin();
    inner_->write(b, col, data, now);
    finish(Op::Write, t0);
}

void
TimingDevice::refresh(dram::NanoTime now)
{
    const int64_t t0 = begin();
    inner_->refresh(now);
    finish(Op::Refresh, t0);
}

void
TimingDevice::actMany(const dram::ActTrain &train)
{
    const int64_t t0 = begin();
    inner_->actMany(train);
    finish(Op::ActMany, t0, train.count);
}

void
TimingDevice::actManyAnalytic(const dram::ActTrain &train)
{
    const int64_t t0 = begin();
    inner_->actManyAnalytic(train);
    finish(Op::ActManyAnalytic, t0, train.count);
}

uint64_t
TimingDevice::violationCount() const
{
    return inner_->violationCount();
}

std::vector<dram::TimingViolation>
TimingDevice::violationLog() const
{
    return inner_->violationLog();
}

uint32_t
TimingDevice::refreshAggressorNeighbors(dram::BankId b, dram::RowAddr row,
                                        dram::NanoTime now)
{
    const int64_t t0 = begin();
    const uint32_t restored = inner_->refreshAggressorNeighbors(b, row, now);
    finish(Op::RefreshNeighbors, t0);
    return restored;
}

} // namespace perfbench
