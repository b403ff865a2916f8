/**
 * @file
 * Seeded request streams of the repository benchmark.
 *
 * A stream is a pure function of (workload, seed): request i is the same
 * on every run, every host and every thread count. Requests are plain
 * descriptors (indices into fixed catalogs); the workloads materialize
 * them into library inputs during set-up.
 *
 * Streams are built in rounds that each hold a fixed mix of request
 * kinds, so the share of every kind is the same in any long enough window
 * whatever the seed; the seed picks the order, the draws inside each
 * kind, the tuning method split and the explorers' seeds.
 */
#ifndef PERFBENCH_STREAM_H
#define PERFBENCH_STREAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { OpSearch, LearnedSearch, NetworkServe };

/** Parse "op_search" / "learned_search" / "network_serve"; false if unknown. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** The tuning methods a request may ask for (mirrors ft::Method). */
enum class Tuner { QMethod, PMethod, AutoTvm };

enum class Kind {
    Op,     ///< tune one operator (ft::tuneOp or TuningService::tune)
    Dag,    ///< TuningService::tuneDag on a whole network
    Family, ///< TuningService::serveShape on a conv2d batch family
};

/** Device catalog index: 0 = V100, 1 = Xeon E5-2699 v4, 2 = VU9P. */
constexpr int kNumDevices = 3;

struct Request
{
    Kind kind = Kind::Op;
    int device = 0;
    Tuner tuner = Tuner::QMethod;
    uint64_t exploreSeed = 0;
    /** Op: index into opCatalog(workload). */
    int op = 0;
    /** Dag: 0 = YOLO-v1, 1 = OverFeat; batch size. */
    int net = 0;
    int batch = 1;
    /** Family: YOLO layer index, name variant, and served batch. */
    int layer = 0;
    int variant = 0;
    int shape = 1;
    /**
     * What answers the request: the explorer run (op, DAG) or the
     * dispatch slot (family). The service answers a repeated identity
     * from its caches.
     */
    std::string identity;
    /** First occurrence of `identity` in the stream. */
    bool fresh = true;
};

/** One schedulable operator of a workload's catalog. */
struct OpEntry
{
    std::string kind; ///< Table 3 abbreviation (GMV, GMM, ..., C2D)
    std::string id;   ///< case name within the kind (G1, C8, ...)
    int caseIndex = 0;
};

/** Operators a workload draws from (fixed; independent of the seed). */
const std::vector<OpEntry> &opCatalog(Workload w);

/**
 * Requests whose answers feed the modeled metrics. The timed loop always
 * completes at least this many, so the modeled metrics cover the same
 * requests on every run of a seed.
 */
int modeledPrefix(Workload w);

/** The first `n` requests of the stream for (workload, seed). */
std::vector<Request> makeStream(Workload w, uint64_t seed, int n);

/** One line per request (freshness and identity), for the generator test. */
std::string describe(const Request &r);

/** SplitMix64 step: the benchmark's own seed mixer. */
uint64_t mix64(uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_STREAM_H
