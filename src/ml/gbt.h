/**
 * @file
 * Gradient-boosted regression trees.
 *
 * A compact reimplementation of the XGBoost-style cost model the AutoTVM
 * baseline uses (Section 6.5): least-squares boosting over depth-limited
 * regression trees with greedy threshold splits. The same ensemble also
 * carries the persistent cost model's pairwise rank objective (fitRank)
 * and a hexfloat text serialization whose round-trip reproduces
 * bit-identical predictions.
 */
#ifndef FLEXTENSOR_ML_GBT_H
#define FLEXTENSOR_ML_GBT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ft {

class Rng;

/** GBT hyperparameters. */
struct GbtOptions
{
    int trees = 40;
    int maxDepth = 4;
    double learningRate = 0.3;
    int minSamplesLeaf = 2;
    int thresholdsPerFeature = 8;
};

/** A boosted ensemble of regression trees over dense double features. */
class GbtModel
{
  public:
    /** Fit from scratch on the given dataset (replaces any prior fit). */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y, const GbtOptions &options,
             Rng &rng);

    /**
     * Fit with a pairwise rank objective (replaces any prior fit): each
     * boosting round fits a tree to the lambda gradients of the pairwise
     * logistic loss over all (better, worse) pairs *within one group*.
     * Groups separate incomparable label scales (different workloads in
     * the persistent cost model); samples in different groups never form
     * a pair. Predictions are ranking scores, not label estimates.
     */
    void fitRank(const std::vector<std::vector<double>> &x,
                 const std::vector<double> &y,
                 const std::vector<uint64_t> &group,
                 const GbtOptions &options, Rng &rng);

    /** Predicted value; returns the training mean before any boosting. */
    double predict(const std::vector<double> &x) const;

    /** True once fit() has been called with at least one sample. */
    bool trained() const { return trained_; }

    /**
     * Text serialization of the whole ensemble. Every real number is
     * written as a hexfloat, so deserialize() reconstructs a model whose
     * predict() is bit-identical to the original on every input.
     */
    std::string serialize() const;

    /**
     * Rebuild from serialize() output; false on malformed input (the
     * model is left untrained). Input is untrusted: every split must
     * name a feature below `featureDim` and point its children forward
     * (nodes are written in pre-order), so predict() on a
     * `featureDim`-wide input stays in bounds and terminates.
     */
    bool deserialize(std::string_view bytes, int featureDim);

  private:
    struct Node
    {
        int feature = -1;   ///< -1 for leaves
        double threshold = 0.0;
        double value = 0.0; ///< leaf prediction
        int left = -1, right = -1;
    };
    struct Tree
    {
        std::vector<Node> nodes;
        double eval(const std::vector<double> &x) const;
    };

    struct SplitScratch; ///< column-major features + per-node buffers

    /** Shared boosting loop over a caller-supplied residual function. */
    void boost(const std::vector<std::vector<double>> &x,
               const std::vector<double> &y,
               const std::vector<uint64_t> *group,
               const GbtOptions &options, Rng &rng);

    /** Grow the subtree over rows [begin, end) of `scratch.rows`. */
    int buildNode(Tree &tree, SplitScratch &scratch,
                  const std::vector<double> &residual, int begin, int end,
                  int depth, const GbtOptions &options, Rng &rng) const;

    double bias_ = 0.0;
    double learningRate_ = 0.3;
    std::vector<Tree> trees_;
    bool trained_ = false;
};

} // namespace ft

#endif // FLEXTENSOR_ML_GBT_H
