#include "dnn/e2e.h"

#include "graph/dag.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"

namespace ft {

const char *
fuseModeName(FuseMode mode)
{
    switch (mode) {
      case FuseMode::None:
        return "none";
      case FuseMode::Epilogue:
        return "epilogue";
      case FuseMode::Graph:
        return "graph";
    }
    return "epilogue";
}

NetworkReport
scheduleNetwork(const Network &net, const Target &target,
                const E2eOptions &options)
{
    NetworkReport report;
    report.network = net.name;
    report.device = target.deviceName();
    report.fuseMode = options.fuse;

    // The epilogue-only partition is the traffic baseline every mode is
    // compared against.
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    graph::Partition baseline = graph::epiloguePartition(dag, target);
    report.baselineTrafficBytes = baseline.totalTrafficBytes;

    TuneOptions tune_options;
    tune_options.method = options.method;
    tune_options.explore = options.explore;
    tune_options.cache = options.cache;
    const graph::DagTuneReport tuned = [&] {
        switch (options.fuse) {
          case FuseMode::None:
            return graph::tuneDag(dag, graph::nonePartition(dag, target),
                                  target, tune_options);
          case FuseMode::Epilogue:
            return graph::tuneDag(dag, std::move(baseline), target,
                                  tune_options);
          case FuseMode::Graph:
            break;
        }
        return graph::tuneDag(dag, target, tune_options);
    }();

    report.totalSeconds = tuned.totalSeconds;
    report.simExploreSeconds = tuned.simExploreSeconds;
    report.modeledTrafficBytes = tuned.trafficBytes;
    report.ephemeralBytes = tuned.ephemeralBytes;
    report.trafficSavedBytes =
        report.baselineTrafficBytes - report.modeledTrafficBytes;
    for (const auto &sub : tuned.groups) {
        LayerReport layer;
        layer.name = sub.name;
        layer.seconds = sub.seconds;
        layer.gflops = sub.tuned ? sub.report.gflops : 0.0;
        layer.tuned = sub.tuned;
        report.layers.push_back(std::move(layer));
    }
    return report;
}

} // namespace ft
