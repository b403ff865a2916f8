/**
 * @file
 * Persistent learned cost model: a service-wide rank-loss GBT trained
 * continuously from completed-trial records.
 *
 * Every committed measurement — any explorer, any request — lands here
 * as (feature vector, GFLOPS, workload group). GFLOPS magnitudes are
 * incomparable across workloads, so the model trains with the pairwise
 * rank objective grouped by workload: it learns which schedule *of two*
 * is faster, which is exactly what pruning and warm-starting need.
 *
 * Concurrency contract: predict() reads an immutable snapshot through
 * one shared_ptr copy under a mutex, then evaluates lock-free, so
 * inference never blocks on training. Refits run either inline
 * (syncRefit, deterministic — the explorers' pinned-digest mode) or on
 * a background thread that clones the trial window, fits outside the
 * lock, and swaps the snapshot in.
 *
 * Durability: with persistPath set, each trial appends one CRC32
 * journal frame and each refit appends the serialized model, so a
 * crash loses at most the in-flight frame; load() replays the journal
 * (tolerating a torn tail) and restores the newest model snapshot
 * bit-identically via the hexfloat GBT serialization. The model
 * validates its journal once (on the first append or in load()) and
 * then keeps it open, so recording a trial costs one frame write, not
 * a re-read of the file. A model owns its persistPath: one writer per
 * path, no two live models on the same file.
 */
#ifndef FLEXTENSOR_ML_COSTMODEL_H
#define FLEXTENSOR_ML_COSTMODEL_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ml/gbt.h"
#include "obs/obs.h"
#include "support/journal.h"
#include "support/thread_annotations.h"

namespace ft {

struct CostModelOptions
{
    GbtOptions gbt;
    /** Refit after this many newly recorded trials. */
    int refitEvery = 64;
    /** Sliding window of retained trials (oldest dropped beyond it). */
    size_t maxTrials = 4096;
    /**
     * Refit inline inside recordTrial() instead of on the background
     * thread. Deterministic (fixed refit seed derived from the trial
     * count) — the mode the explorers' pinned digests rely on.
     */
    bool syncRefit = false;
    /** Journal path for trials + model snapshots; empty = in-memory. */
    std::string persistPath;
};

/** One completed-trial record. */
struct CostTrial
{
    std::vector<double> features;
    double gflops = 0.0;
    uint64_t group = 0; ///< workload fingerprint (rank-pair scope)
};

class CostModel
{
  public:
    explicit CostModel(CostModelOptions options);
    ~CostModel();

    CostModel(const CostModel &) = delete;
    CostModel &operator=(const CostModel &) = delete;

    /**
     * Replay the persistence journal: re-ingest every trial record and
     * restore the newest model snapshot. Torn tails are tolerated (the
     * intact prefix loads; the file is repaired in place). False when
     * persistPath is empty or the file is missing/not a journal.
     */
    bool load();

    /**
     * Record one completed trial. Appends a journal frame when
     * persisting, then either refits inline (syncRefit) or kicks the
     * background trainer once refitEvery new trials have accumulated.
     * `obs` (nullable) receives the costmodel.train span and counters.
     */
    void recordTrial(const std::vector<double> &features, double gflops,
                     uint64_t group, const ObsContext *obs = nullptr,
                     double sim = 0.0);

    /** True once a trained snapshot is available for predict(). */
    bool ready() const;

    /** Ranking score of a candidate (higher = predicted faster). */
    double predict(const std::vector<double> &features) const;

    /** Force a synchronous refit on the current trial window. */
    void refitNow(const ObsContext *obs = nullptr, double sim = 0.0);

    /** Start/stop the background refit thread (service lifecycle). */
    void startBackgroundRefit();
    void stopBackgroundRefit();

    size_t numTrials() const;
    uint64_t refits() const;

  private:
    /** One pending refit: the cloned trial window plus its seed. */
    struct RefitJob
    {
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        std::vector<uint64_t> groups;
        uint64_t seed = 0;
    };

    void appendTrialFrame(const CostTrial &trial) FT_EXCLUDES(fileMu_);
    void appendModelFrame(const GbtModel &model) FT_EXCLUDES(fileMu_);
    /**
     * Clone the trial window for fitting and reset the refit counter.
     * False (and no job) when the window is empty.
     */
    bool snapshotWindowLocked(RefitJob &job) FT_REQUIRES(mu_);
    /** Fit `job` outside the lock, then swap the snapshot in. */
    void fitAndPublish(const RefitJob &job, const ObsContext *obs,
                       double sim) FT_EXCLUDES(mu_);
    void trainerLoop();

    CostModelOptions options_;

    /** Serializes journal appends (requests may record concurrently). */
    Mutex fileMu_;
    /** Opened lazily on the first append; unused when not persisting. */
    JournalAppender journal_ FT_GUARDED_BY(fileMu_);
    mutable Mutex mu_;
    std::vector<CostTrial> trials_ FT_GUARDED_BY(mu_);
    /** Immutable once published. */
    std::shared_ptr<const GbtModel> snapshot_ FT_GUARDED_BY(mu_);
    /** Trials ever recorded (refit seed basis). */
    uint64_t recorded_ FT_GUARDED_BY(mu_) = 0;
    uint64_t refits_ FT_GUARDED_BY(mu_) = 0;
    int sinceRefit_ FT_GUARDED_BY(mu_) = 0;

    /** Start/stop happen under mu_; join() runs with mu_ released. */
    std::thread trainer_;
    std::condition_variable cv_;
    bool stop_ FT_GUARDED_BY(mu_) = false;
    bool kick_ FT_GUARDED_BY(mu_) = false;
};

/**
 * The journal kind tag of cost-model files ("ftcost"), exposed for the
 * durability tests.
 */
extern const char kCostModelJournalKind[];

} // namespace ft

#endif // FLEXTENSOR_ML_COSTMODEL_H
