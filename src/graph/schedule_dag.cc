#include "graph/schedule_dag.h"

#include <algorithm>
#include <utility>

#include "graph/lower.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace ft {
namespace graph {

namespace {

/**
 * The one graph-tuning loop behind both `tuneDag` overloads:
 * `makePartition` runs inside the `graph.partition` span, then every
 * group is tuned and stitched.
 */
template <typename MakePartition>
DagTuneReport
tunePartitioned(const ComputeDag &dag, const Target &target,
                const TuneOptions &options, MakePartition &&makePartition)
{
    const ObsContext &obs = options.explore.obs;
    DagTuneReport rep;
    rep.dagName = dag.name;
    rep.device = target.deviceName();
    rep.fingerprint = dag.fingerprint();

    if (obs.trace) {
        obs.trace->meta(
            "graph_run",
            {tstr("dag", dag.name), tstr("device", rep.device),
             tstr("method", methodName(options.method)),
             tint("nodes", dag.numComputeNodes()),
             tint("fingerprint", static_cast<int64_t>(rep.fingerprint))});
        obs.trace->begin("graph.partition", 0.0);
    }
    rep.partition = makePartition();
    rep.trafficBytes = rep.partition.totalTrafficBytes;
    rep.ephemeralBytes = rep.partition.ephemeralBytes;
    if (obs.trace) {
        obs.trace->end(
            "graph.partition", 0.0,
            {tint("groups",
                  static_cast<int64_t>(rep.partition.groups.size())),
             tint("traffic_bytes", rep.trafficBytes),
             tint("ephemeral_bytes", rep.ephemeralBytes)});
    }
    if (options.certify) {
        auto cert = std::make_shared<verify::PartitionCertificate>(
            verify::certifyPartition(dag, rep.partition, target));
        if (obs.trace) {
            obs.trace->point(
                "certificate", 0.0,
                {tstr("op", dag.name),
                 tstr("verdict", verify::verdictName(cert->verdict)),
                 tint("obligations",
                      static_cast<int64_t>(cert->groups.size())),
                 tint("refuted",
                      cert->groupCount(verify::Verdict::Refuted)),
                 tint("unknown",
                      cert->groupCount(verify::Verdict::Unknown))});
        }
        rep.certificate = std::move(cert);
    }
    if (obs.metrics)
        obs.metrics->counter("graph.runs").add();

    double sim = 0.0;
    for (const FusionGroup &group : rep.partition.groups) {
        SubgraphReport sub;
        sub.members = group.members;
        sub.anchor = group.anchor(dag);
        sub.cost = group.cost;
        sub.name = dag.nodes[sub.anchor >= 0 ? sub.anchor
                                             : group.members.front()]
                       .name;
        if (obs.trace) {
            obs.trace->begin(
                "graph.subgraph", sim,
                {tstr("group", sub.name),
                 tint("members",
                      static_cast<int64_t>(group.members.size()))});
        }

        if (sub.anchor >= 0) {
            LoweredAnchor lowered = lowerAnchor(dag, sub.anchor);
            sub.report = tune(lowered.output, target, options);
            sub.tuned = true;
            // The explorers model the anchor's compute; the roofline
            // owns the group's memory side. Charge the binding one.
            sub.seconds = std::max(sub.report.kernelSeconds,
                                   sub.cost.memSeconds);
            rep.simExploreSeconds += sub.report.simExploreSeconds;
            sim += sub.report.simExploreSeconds;
        } else {
            sub.seconds = sub.cost.seconds;
        }
        rep.totalSeconds += sub.seconds;

        if (obs.trace) {
            obs.trace->end(
                "graph.subgraph", sim,
                {tbool("tuned", sub.tuned),
                 treal("seconds", sub.seconds),
                 tint("traffic_bytes",
                      sub.cost.memInBytes + sub.cost.memOutBytes),
                 tint("ephemeral_bytes", sub.cost.ephemeralBytes)});
        }
        rep.groups.push_back(std::move(sub));
    }

    inform("graph-tuned ", dag.name, " on ", rep.device, ": ",
           rep.partition.groups.size(), " groups, ",
           rep.ephemeralBytes, " ephemeral bytes");
    return rep;
}

} // namespace

DagTuneReport
tuneDag(const ComputeDag &dag, const Target &target,
        const TuneOptions &options, const PartitionOptions &partitionOptions)
{
    return tunePartitioned(dag, target, options, [&] {
        return partitionDag(dag, target, partitionOptions);
    });
}

DagTuneReport
tuneDag(const ComputeDag &dag, Partition partition, const Target &target,
        const TuneOptions &options)
{
    return tunePartitioned(dag, target, options,
                           [&] { return std::move(partition); });
}

} // namespace graph
} // namespace ft
