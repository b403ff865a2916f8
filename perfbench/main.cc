/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <op_search|learned_search|network_serve>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir, default .bench_build/perfbench-out>]
 *             [--state-key <build id>]
 *
 * Prints a human-readable report and, as the last line of stdout, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "support/logging.h"

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg);
    return 2;
}

void
printJson(const perfbench::Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload") {
            if (!perfbench::parseWorkload(val, opt.workload))
                return usage("unknown workload");
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(val);
        } else if (arg == "--trace") {
            opt.trace = std::atoi(val) != 0;
        } else if (arg == "--out-dir") {
            opt.outDir = val;
        } else if (arg == "--state-key") {
            opt.stateKey = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");

    ft::setLogLevel(ft::LogLevel::Warning);
    const perfbench::Result result = perfbench::runBenchmark(opt);
    std::fflush(stdout);
    printJson(result);
    return 0;
}
