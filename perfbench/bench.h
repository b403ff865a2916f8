/**
 * @file
 * One benchmark run of one workload: set-up, the timed loop, the traced
 * run and the correctness gate.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "stream.h"

namespace perfbench {

struct Options
{
    Workload workload = Workload::OpSearch;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for scratch files, spans and the determinism record. */
    std::string outDir = ".bench_build/perfbench-out";
    /** Identifies the build; determinism records are compared per key. */
    std::string stateKey = "dev";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
};

/** Run one workload; prints the human-readable report to stdout. */
Result runBenchmark(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
