/**
 * @file
 * Host-speed probe: a fixed piece of work, independent of the library,
 * timed now and then during a run so the run's wall times can be put on
 * a common scale.
 *
 * The benchmark runs on a few vCPUs of a shared host whose speed drifts
 * by 15-25% over minutes as other tenants load its caches and memory.
 * That drift moves every wall-clock metric of a run together. A probe
 * sample times two fixed kernels back to back: a dependent floating-point
 * chain (core speed) and random read-modify-writes over a buffer larger
 * than L2 with small allocations (cache and memory speed). The tuners'
 * code lies between the two, so the probe's time is the geometric mean of
 * the kernels' times. `factor()` is the median probe time over the run
 * divided by its time on the reference host state. The benchmark divides
 * each latency by `factorAt()` around the request, and measures rates over
 * `normalizedSeconds()`, so the scaling follows the host's drift within a
 * run too.
 *
 * The probe shares no code with the library, so a change to the library
 * moves the normalized metrics as it moves the raw ones.
 */
#ifndef PERFBENCH_HOST_SPEED_H
#define PERFBENCH_HOST_SPEED_H

#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

class HostSpeed
{
  public:
    HostSpeed();

    /** Time one probe sample (about 2 ms) on the calling thread. */
    void sample();

    /** sample() if at least `intervalNs` passed since the last one. */
    void sampleEvery(int64_t intervalNs);

    /** Median probe time over all samples / the reference probe time;
     *  above 1 the host ran slower than the reference. */
    double factor() const;

    /** The same over the samples within 1 s of `tNs` (the nearest
     *  sample if none is): the host's speed around one request. */
    double factorAt(int64_t tNs) const;

    /** Seconds from `fromNs` to `toNs`, each 100 ms divided by the
     *  factor around it: a stretch of wall time on the reference scale. */
    double normalizedSeconds(int64_t fromNs, int64_t toNs) const;

    int samples() const;
    /** Wall time spent in sample(), in seconds. */
    double overheadSeconds() const;

  private:
    double memoryKernel();

    std::vector<uint32_t> buffer_;
    mutable std::mutex mu_;
    std::vector<int64_t> atNs_; ///< sample end times, ascending
    std::vector<double> probeNs_;
    int64_t lastNs_ = 0;
    int64_t overheadNs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_H
