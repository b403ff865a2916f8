/**
 * @file
 * Fusion partitioner: group the compute DAG so intermediates die on chip.
 *
 * A partition assigns every compute node (non-Input) to exactly one
 * fusion group. Legal groups have at most one heavy anchor (conv/dense),
 * and the anchor, when present, is the group's first member — the
 * explorers tune the anchor's schedule space and the rest of the group
 * streams through it. A member whose consumers all live in the same
 * group becomes *ephemeral*: its tensor never round-trips DRAM, which is
 * the entire point of fusing.
 *
 * Search is a beam over nodes in topological order. Each step either
 * opens a new group for the node or sinks it into a group that already
 * contains one of its producers, subject to legality: heavy nodes always
 * open groups, sinking must keep the group quotient acyclic, and the
 * group's streaming working set must stay within the device's tier-2
 * capacity (graph/roofline.h). States are ranked by the deterministic
 * tuple (modeled seconds, DRAM traffic, lexicographic assignment), so
 * compute-bound ties break toward less traffic and the search never
 * depends on container iteration order.
 *
 * `epiloguePartition` is the paper's bias/ReLU-into-anchor grouping (one
 * group per network layer) and `nonePartition` the fully unfused one;
 * all three run through the same `finalizePartition` accounting and are
 * tuned by the same `tuneDag`, so comparisons between modes compare
 * like with like.
 */
#ifndef FLEXTENSOR_GRAPH_PARTITION_H
#define FLEXTENSOR_GRAPH_PARTITION_H

#include <string>
#include <vector>

#include "graph/dag.h"
#include "graph/roofline.h"

namespace ft {
namespace graph {

/** One fusion group of a partition. */
struct FusionGroup
{
    /** Member node ids, ascending; the heavy anchor (if any) is first. */
    std::vector<int> members;
    /** Parallel to members: output stays on chip (all consumers in-group). */
    std::vector<bool> ephemeral;
    /** Roofline score of the group. */
    GroupCost cost;

    /** Id of the heavy anchor, or -1 for an anchor-free group. */
    int anchor(const ComputeDag &dag) const;
};

/** A full partition of a DAG's compute nodes. */
struct Partition
{
    std::vector<FusionGroup> groups;
    /** Sum of per-group modeled seconds. */
    double totalSeconds = 0.0;
    /** Sum of per-group DRAM traffic (memIn + memOut). */
    int64_t totalTrafficBytes = 0;
    /** Bytes of intermediates kept off DRAM across all groups. */
    int64_t ephemeralBytes = 0;

    /** Group index of node `id`, or -1 (Input nodes live in no group). */
    int groupOf(int id) const;

  private:
    friend Partition finalizePartition(const ComputeDag &,
                                       const std::vector<int> &,
                                       const Target &);
    std::vector<int> assignment_; ///< node id -> group index (-1 for Input)
};

/** Knobs of the beam search. */
struct PartitionOptions
{
    int beamWidth = 8;
    /** Largest member count of one group. */
    int maxGroupSize = 8;
};

/**
 * Build a Partition from a node->group assignment (-1 for Input nodes):
 * orders groups by first member, recomputes exact ephemeral flags,
 * scores every group, and fills the totals. The single accounting
 * function behind every partition mode.
 */
Partition finalizePartition(const ComputeDag &dag,
                            const std::vector<int> &assignment,
                            const Target &target);

/** Beam-search the fusion partition of `dag` for `target`. */
Partition partitionDag(const ComputeDag &dag, const Target &target,
                       const PartitionOptions &options = {});

/** Epilogue grouping: bias/ReLU sink into their anchor, nothing else. */
Partition epiloguePartition(const ComputeDag &dag, const Target &target);

/** Fully unfused: every compute node is its own group. */
Partition nonePartition(const ComputeDag &dag, const Target &target);

/**
 * Verify the partition invariants the fuzz tests rely on: every compute
 * node in exactly one group (Inputs in none), members ascending, at most
 * one heavy anchor per group and listed first, group quotient acyclic,
 * ephemeral tensors never consumed outside their group, and every
 * group's working set within the device's tier-2 capacity. On failure
 * fills `why` with the violation followed by `dag.spec()` for replay.
 */
bool checkPartition(const ComputeDag &dag, const Partition &partition,
                    const Target &target, std::string *why = nullptr);

} // namespace graph
} // namespace ft

#endif // FLEXTENSOR_GRAPH_PARTITION_H
