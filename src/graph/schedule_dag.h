/**
 * @file
 * Graph-level tuning: partition the DAG, tune each subgraph's anchor
 * through the existing explorers, and stitch the results.
 *
 * `tuneDag` is Algorithm 1 lifted one level: it partitions the DAG
 * (the roofline-guided beam search, or a partition the caller already
 * chose, e.g. `epiloguePartition`/`nonePartition`), then lowers each
 * group's heavy anchor to IR (graph/lower.h) — one space, one set of
 * explorers, one tuning-cache key per anchor shape — and charges each
 * group max(tuned compute, roofline memory). Anchor-free groups
 * (standalone pooling, unfused bias/ReLU) are bandwidth-bound and take
 * their roofline seconds, launch cost included, directly.
 *
 * Tracing: a `graph_run` meta line, one `graph.partition` span around
 * the search (or around adopting the given partition), and one
 * `graph.subgraph` span per group (the per-anchor `run`/`space_build`/
 * `report` events nest inside as usual), so `trace-report` can fold
 * graph runs like any other.
 */
#ifndef FLEXTENSOR_GRAPH_SCHEDULE_DAG_H
#define FLEXTENSOR_GRAPH_SCHEDULE_DAG_H

#include <memory>

#include "analysis/verify/certificate.h"
#include "explore/tuner.h"
#include "graph/partition.h"

namespace ft {
namespace graph {

/** Outcome of tuning one fusion group. */
struct SubgraphReport
{
    std::string name;         ///< anchor name, or first member's name
    std::vector<int> members; ///< DAG node ids in the group
    int anchor = -1;          ///< heavy node id, -1 if bandwidth-only
    bool tuned = false;       ///< anchor went through an explorer
    TuneReport report;        ///< valid when tuned
    GroupCost cost;           ///< roofline score of the group
    double seconds = 0.0;     ///< charged group time
};

/** Outcome of tuning a whole DAG. */
struct DagTuneReport
{
    std::string dagName;
    std::string device;
    uint64_t fingerprint = 0; ///< ComputeDag::fingerprint()
    Partition partition;
    std::vector<SubgraphReport> groups;
    double totalSeconds = 0.0;
    double simExploreSeconds = 0.0;
    /** Modeled DRAM traffic of the chosen partition. */
    int64_t trafficBytes = 0;
    /** Intermediate bytes that never touch DRAM. */
    int64_t ephemeralBytes = 0;
    /**
     * Fusion-legality certificate of the chosen partition (null unless
     * TuneOptions::certify). Per-anchor schedule certificates ride on
     * each group's TuneReport.
     */
    std::shared_ptr<const verify::PartitionCertificate> certificate;
};

/** Partition `dag` and tune every subgraph for `target`. */
DagTuneReport tuneDag(const ComputeDag &dag, const Target &target,
                      const TuneOptions &options = {},
                      const PartitionOptions &partitionOptions = {});

/** Tune every group of the given `partition` of `dag` for `target`. */
DagTuneReport tuneDag(const ComputeDag &dag, Partition partition,
                      const Target &target, const TuneOptions &options = {});

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_SCHEDULE_DAG_H
