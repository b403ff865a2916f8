/**
 * @file
 * End-to-end network scheduling (Section 6.6 and Algorithm 1).
 *
 * `scheduleNetwork` is a thin adapter over graph-level tuning: it builds
 * the network's ComputeDag (`graph::dagFromNetwork`), picks the
 * partition the FuseMode names, and runs `graph::tuneDag`. Every group's
 * anchor is tuned bottom-up with the chosen exploration method;
 * anchor-free groups (pooling, and bias/ReLU when unfused) are charged
 * their roofline cost, so fused epilogues are free while the unfused
 * ablation pays a memory round trip and a launch per epilogue op.
 */
#ifndef FLEXTENSOR_DNN_E2E_H
#define FLEXTENSOR_DNN_E2E_H

#include "dnn/models.h"
#include "explore/tuner.h"

namespace ft {

/** Per-group outcome of end-to-end scheduling. */
struct LayerReport
{
    std::string name; ///< anchor (layer) name, or the group's first node
    double seconds = 0.0;
    double gflops = 0.0;
    bool tuned = false; ///< false for bandwidth-bound (anchor-free) groups
};

/** How aggressively the network is partitioned before tuning. */
enum class FuseMode
{
    None,     ///< every DAG node is its own group (epilogues round-trip)
    Epilogue, ///< bias/ReLU sink into their anchor: one group per layer
    Graph,    ///< graph-level: roofline-guided beam partition (src/graph)
};

/** Stable lowercase name of a fuse mode (CLI/JSON spelling). */
const char *fuseModeName(FuseMode mode);

/** Whole-network outcome. */
struct NetworkReport
{
    std::string network;
    std::string device;
    FuseMode fuseMode = FuseMode::Epilogue;
    double totalSeconds = 0.0;
    double simExploreSeconds = 0.0;
    /** Modeled tier-3 traffic of the chosen partition. */
    int64_t modeledTrafficBytes = 0;
    /** Traffic of the epilogue-only partition (the comparison baseline). */
    int64_t baselineTrafficBytes = 0;
    /** baseline - modeled; positive when graph fusion saves DRAM trips. */
    int64_t trafficSavedBytes = 0;
    /** Intermediate bytes kept on chip by the chosen partition. */
    int64_t ephemeralBytes = 0;
    std::vector<LayerReport> layers;
};

/** Options for end-to-end scheduling. */
struct E2eOptions
{
    Method method = Method::QMethod;
    ExploreOptions explore;
    FuseMode fuse = FuseMode::Epilogue;
    /**
     * Optional tuning cache shared across layers. Networks repeat layer
     * shapes (YOLO-v1's block 4 contains four identical conv pairs), so
     * repeated layers are served without re-exploration.
     */
    TuningCache *cache = nullptr;
};

/** Tune every fusion group of a network and sum the predicted runtime. */
NetworkReport scheduleNetwork(const Network &net, const Target &target,
                              const E2eOptions &options = {});

} // namespace ft

#endif // FLEXTENSOR_DNN_E2E_H
