#include "host_speed.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "trace.h"

namespace perfbench {

namespace {

/** 4 MiB: past the 2 MiB L2 of the reference host, well inside its L3. */
constexpr size_t kBufferWords = size_t{1} << 20;
constexpr int kCoreSteps = 120000;
constexpr int kMemorySteps = 24000;
/**
 * Probe time (geometric mean of the two kernels) on the reference host:
 * about the median over the first runs of the three workloads on the
 * 4-vCPU Xeon VM the bounds in BENCHMARK.json were set on.
 */
constexpr double kReferenceProbeNs = 1.19e6;

volatile double gSink;

double
coreKernel()
{
    double x = 1.0;
    for (int i = 0; i < kCoreSteps; ++i)
        x = x * 1.0000001 + std::sqrt(x) * 1e-9;
    return x;
}

template <typename It>
double
medianFactor(It first, It last)
{
    if (first == last)
        return 1.0;
    std::vector<double> v(first, last);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2] / kReferenceProbeNs;
}

} // namespace

HostSpeed::HostSpeed() : buffer_(kBufferWords, 1u) {}

double
HostSpeed::memoryKernel()
{
    // The same addresses and allocations on every sample.
    uint64_t s = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    std::map<uint32_t, double> tree;
    for (int i = 0; i < kMemorySteps; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        uint32_t &word = buffer_[s & (kBufferWords - 1)];
        word += static_cast<uint32_t>(i);
        acc += word;
        if ((i & 7) == 0)
            tree[static_cast<uint32_t>(s >> 40)] = acc;
        if ((i & 63) == 0) {
            std::vector<double> v(32 + (s & 63), acc);
            acc += v.back();
        }
    }
    return acc + static_cast<double>(tree.size());
}

void
HostSpeed::sample()
{
    const int64_t t0 = nowNs();
    gSink = coreKernel();
    const int64_t t1 = nowNs();
    gSink = memoryKernel();
    const int64_t t2 = nowNs();
    const double probe = std::sqrt(static_cast<double>(t1 - t0) *
                                   static_cast<double>(t2 - t1));
    std::lock_guard<std::mutex> lock(mu_);
    atNs_.push_back(t2);
    probeNs_.push_back(probe);
    lastNs_ = t2;
    overheadNs_ += t2 - t0;
}

void
HostSpeed::sampleEvery(int64_t intervalNs)
{
    int64_t last;
    {
        std::lock_guard<std::mutex> lock(mu_);
        last = lastNs_;
    }
    if (nowNs() - last >= intervalNs)
        sample();
}

double
HostSpeed::factor() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return medianFactor(probeNs_.begin(), probeNs_.end());
}

double
HostSpeed::factorAt(int64_t tNs) const
{
    constexpr int64_t kWindowNs = 1'000'000'000;
    std::lock_guard<std::mutex> lock(mu_);
    if (atNs_.empty())
        return 1.0;
    const auto lo = std::lower_bound(atNs_.begin(), atNs_.end(),
                                     tNs - kWindowNs) - atNs_.begin();
    const auto hi = std::upper_bound(atNs_.begin(), atNs_.end(),
                                     tNs + kWindowNs) - atNs_.begin();
    if (lo < hi)
        return medianFactor(probeNs_.begin() + lo, probeNs_.begin() + hi);
    const auto near = lo == static_cast<long>(atNs_.size()) ? lo - 1 : lo;
    return probeNs_[static_cast<size_t>(near)] / kReferenceProbeNs;
}

double
HostSpeed::normalizedSeconds(int64_t fromNs, int64_t toNs) const
{
    constexpr int64_t kStepNs = 100'000'000;
    double seconds = 0.0;
    for (int64_t t = fromNs; t < toNs; t += kStepNs) {
        const int64_t step = std::min(kStepNs, toNs - t);
        seconds += static_cast<double>(step) * 1e-9 / factorAt(t + step / 2);
    }
    return seconds;
}

int
HostSpeed::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(probeNs_.size());
}

double
HostSpeed::overheadSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(overheadNs_) * 1e-9;
}

} // namespace perfbench
