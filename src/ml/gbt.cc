#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "support/logging.h"
#include "support/rng.h"

namespace ft {

double
GbtModel::Tree::eval(const std::vector<double> &x) const
{
    int n = 0;
    while (nodes[n].feature >= 0) {
        n = x[nodes[n].feature] <= nodes[n].threshold ? nodes[n].left
                                                      : nodes[n].right;
    }
    return nodes[n].value;
}

/**
 * One fit's features in column-major order, plus the per-node buffers
 * the split search reuses across every node of every tree. A node owns
 * the contiguous range [begin, end) of `rows`; splitting it stably
 * partitions that range in place, left rows first, so the children own
 * the two halves in the original row order.
 */
struct GbtModel::SplitScratch
{
    explicit SplitScratch(const std::vector<std::vector<double>> &x)
        : n(static_cast<int>(x.size())),
          dims(static_cast<int>(x[0].size())),
          columns(x.size() * x[0].size()), rows(x.size()), spill(x.size()),
          res(x.size()), vals(x.size())
    {
        for (int i = 0; i < n; ++i) {
            FT_ASSERT(static_cast<int>(x[i].size()) == dims,
                      "GBT row ", i, " has ", x[i].size(),
                      " features, row 0 has ", dims);
            for (int f = 0; f < dims; ++f)
                columns[static_cast<size_t>(f) * n + i] = x[i][f];
        }
    }

    int n, dims;
    std::vector<double> columns; ///< columns[f * n + i] == x[i][f]
    std::vector<int> rows;       ///< node row ranges (see above)
    std::vector<int> spill;      ///< right-hand rows while partitioning
    std::vector<double> res;     ///< the node's residuals, gathered
    std::vector<double> vals;    ///< one feature's node values, gathered
    std::vector<double> thresholds; ///< one feature's distinct pivots
};

namespace {

double
meanOf(const double *v, int n)
{
    double s = 0.0;
    for (int i = 0; i < n; ++i)
        s += v[i];
    return n == 0 ? 0.0 : s / static_cast<double>(n);
}

/**
 * Post-split squared error of splitting a node's gathered rows at
 * `threshold`, or a negative value if a side would keep fewer than
 * `minLeaf` rows. Both passes add in row order, as the row-at-a-time
 * scan did, so the result has its bits. Plain branches on purpose:
 * branch-free and vector forms of these loops fit 1.5-2.2x faster, but
 * on a shared 4-vCPU Xeon their time followed the host's load, and
 * benchmark runs of them spread 1.6-4.2x wider than this form's.
 */
double
splitSse(const double *vals, const double *res, int m, double threshold,
         int minLeaf)
{
    double sl = 0.0, sr = 0.0;
    int nl = 0;
    for (int j = 0; j < m; ++j) {
        if (vals[j] <= threshold) {
            sl += res[j];
            ++nl;
        } else {
            sr += res[j];
        }
    }
    const int nr = m - nl;
    if (nl < minLeaf || nr < minLeaf)
        return -1.0;
    const double ml = sl / nl, mr = sr / nr;
    double sse = 0.0;
    for (int j = 0; j < m; ++j) {
        const double d = res[j] - (vals[j] <= threshold ? ml : mr);
        sse += d * d;
    }
    return sse;
}

} // namespace

int
GbtModel::buildNode(Tree &tree, SplitScratch &s,
                    const std::vector<double> &residual, int begin, int end,
                    int depth, const GbtOptions &options, Rng &rng) const
{
    const int id = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    const int m = end - begin;
    const int *rows = s.rows.data() + begin;
    double *res = s.res.data();
    for (int j = 0; j < m; ++j)
        res[j] = residual[rows[j]];
    const double value = meanOf(res, m);
    tree.nodes[id].value = value;

    if (depth >= options.maxDepth || m < 2 * options.minSamplesLeaf)
        return id;

    double base_sse = 0.0;
    for (int j = 0; j < m; ++j) {
        double d = res[j] - value;
        base_sse += d * d;
    }

    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    double *vals = s.vals.data();
    std::vector<double> &t = s.thresholds;
    for (int f = 0; f < s.dims; ++f) {
        const double *col = s.columns.data() + static_cast<size_t>(f) * s.n;
        double lo = col[rows[0]], hi = lo;
        for (int j = 0; j < m; ++j) {
            vals[j] = col[rows[j]];
            lo = std::min(lo, vals[j]);
            hi = std::max(hi, vals[j]);
        }
        // Thresholds are random rows' values, all drawn up front, one
        // draw per probe. A repeated threshold splits the rows the same
        // way, so its gain ties and can never beat the first draw under
        // the strict `gain > best_gain`: keep only the first. A constant
        // feature can never split (every row goes left), so it probes
        // nothing, but it still draws: the RNG stream (and with it every
        // recorded determinism digest) is that of probing every draw.
        t.clear();
        for (int k = 0; k < options.thresholdsPerFeature; ++k) {
            const double v = vals[rng.index(m)];
            if (lo != hi && std::find(t.begin(), t.end(), v) == t.end())
                t.push_back(v);
        }
        for (const double threshold : t) {
            const double sse = splitSse(vals, res, m, threshold,
                                        options.minSamplesLeaf);
            if (sse < 0.0)
                continue;
            const double gain = base_sse - sse;
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = f;
                best_threshold = threshold;
            }
        }
    }
    if (best_feature < 0)
        return id;

    // Stable in-place partition: left rows compact to the front of the
    // range, right rows go through `spill`.
    const double *col =
        s.columns.data() + static_cast<size_t>(best_feature) * s.n;
    int *out = s.rows.data() + begin;
    int nl = 0, nr = 0;
    for (int j = 0; j < m; ++j) {
        const int r = out[j];
        if (col[r] <= best_threshold)
            out[nl++] = r;
        else
            s.spill[nr++] = r;
    }
    std::copy(s.spill.begin(), s.spill.begin() + nr, out + nl);

    tree.nodes[id].feature = best_feature;
    tree.nodes[id].threshold = best_threshold;
    const int mid = begin + nl;
    int l = buildNode(tree, s, residual, begin, mid, depth + 1, options, rng);
    int r = buildNode(tree, s, residual, mid, end, depth + 1, options, rng);
    tree.nodes[id].left = l;
    tree.nodes[id].right = r;
    return id;
}

void
GbtModel::boost(const std::vector<std::vector<double>> &x,
                const std::vector<double> &y,
                const std::vector<uint64_t> *group,
                const GbtOptions &options, Rng &rng)
{
    learningRate_ = options.learningRate;
    SplitScratch scratch(x);

    // Regression boosts from the label mean; ranking scores are relative,
    // so the rank objective boosts from zero.
    bias_ = group ? 0.0 : meanOf(y.data(), static_cast<int>(y.size()));

    // Pair ranges for the rank objective: samples of one group occupy a
    // contiguous index range of the recording order? They need not — so
    // gather per-group row lists once up front.
    std::vector<std::vector<int>> group_rows;
    if (group) {
        std::vector<std::pair<uint64_t, int>> tagged;
        tagged.reserve(x.size());
        for (size_t i = 0; i < x.size(); ++i)
            tagged.emplace_back((*group)[i], static_cast<int>(i));
        std::stable_sort(tagged.begin(), tagged.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (size_t i = 0; i < tagged.size();) {
            size_t j = i;
            group_rows.emplace_back();
            while (j < tagged.size() &&
                   tagged[j].first == tagged[i].first) {
                group_rows.back().push_back(tagged[j].second);
                ++j;
            }
            i = j;
        }
    }

    std::vector<double> pred(x.size(), bias_);
    std::vector<double> residual(x.size());
    for (int t = 0; t < options.trees; ++t) {
        if (!group) {
            for (size_t i = 0; i < x.size(); ++i)
                residual[i] = y[i] - pred[i];
        } else {
            // Lambda gradients of the pairwise logistic loss: for every
            // within-group pair where y[i] > y[j], a force rho pushes
            // score(i) up and score(j) down, with rho shrinking as the
            // model already orders the pair correctly.
            std::fill(residual.begin(), residual.end(), 0.0);
            for (const std::vector<int> &g : group_rows) {
                for (size_t a = 0; a < g.size(); ++a) {
                    for (size_t b = a + 1; b < g.size(); ++b) {
                        int i = g[a], j = g[b];
                        if (y[i] == y[j])
                            continue;
                        if (y[i] < y[j])
                            std::swap(i, j);
                        double rho =
                            1.0 / (1.0 + std::exp(pred[i] - pred[j]));
                        residual[i] += rho;
                        residual[j] -= rho;
                    }
                }
            }
        }
        std::iota(scratch.rows.begin(), scratch.rows.end(), 0);
        Tree tree;
        buildNode(tree, scratch, residual, 0, scratch.n, 0, options, rng);
        for (size_t i = 0; i < x.size(); ++i)
            pred[i] += learningRate_ * tree.eval(x[i]);
        trees_.push_back(std::move(tree));
    }
    trained_ = true;
}

void
GbtModel::fit(const std::vector<std::vector<double>> &x,
              const std::vector<double> &y, const GbtOptions &options,
              Rng &rng)
{
    FT_ASSERT(x.size() == y.size(), "GBT feature/label size mismatch");
    trees_.clear();
    trained_ = false;
    if (x.empty())
        return;
    boost(x, y, nullptr, options, rng);
}

void
GbtModel::fitRank(const std::vector<std::vector<double>> &x,
                  const std::vector<double> &y,
                  const std::vector<uint64_t> &group,
                  const GbtOptions &options, Rng &rng)
{
    FT_ASSERT(x.size() == y.size() && x.size() == group.size(),
              "GBT rank feature/label/group size mismatch");
    trees_.clear();
    trained_ = false;
    if (x.empty())
        return;
    boost(x, y, &group, options, rng);
}

double
GbtModel::predict(const std::vector<double> &x) const
{
    double p = bias_;
    for (const auto &tree : trees_)
        p += learningRate_ * tree.eval(x);
    return p;
}

namespace {

/** Hexfloat rendering: round-trips every finite double bit-exactly. */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/**
 * Read one double token through strtod: istream double extraction does
 * not accept hexfloats, strtod does.
 */
bool
readDouble(std::istream &is, double &out)
{
    std::string tok;
    if (!(is >> tok))
        return false;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end != tok.c_str() && *end == '\0';
}

} // namespace

std::string
GbtModel::serialize() const
{
    std::ostringstream oss;
    oss << "gbt v1 " << (trained_ ? 1 : 0) << ' ' << hexDouble(bias_)
        << ' ' << hexDouble(learningRate_) << ' ' << trees_.size() << '\n';
    for (const Tree &tree : trees_) {
        oss << "tree " << tree.nodes.size() << '\n';
        for (const Node &n : tree.nodes) {
            oss << n.feature << ' ' << hexDouble(n.threshold) << ' '
                << hexDouble(n.value) << ' ' << n.left << ' ' << n.right
                << '\n';
        }
    }
    return oss.str();
}

bool
GbtModel::deserialize(std::string_view bytes, int featureDim)
{
    trees_.clear();
    trained_ = false;
    bias_ = 0.0;
    learningRate_ = 0.3;

    std::istringstream iss{std::string(bytes)};
    std::string magic, version;
    int trained_flag = 0;
    double bias = 0.0, rate = 0.0;
    size_t num_trees = 0;
    if (!(iss >> magic >> version >> trained_flag) || magic != "gbt" ||
        version != "v1" || !readDouble(iss, bias) ||
        !readDouble(iss, rate) || !(iss >> num_trees)) {
        return false;
    }
    // Nothing is reserved from the untrusted counts: a corrupt count
    // fails on the records it lacks, not in the allocator.
    std::vector<Tree> trees;
    for (size_t t = 0; t < num_trees; ++t) {
        std::string tag;
        size_t num_nodes = 0;
        if (!(iss >> tag >> num_nodes) || tag != "tree" || num_nodes == 0)
            return false;
        Tree tree;
        for (size_t n = 0; n < num_nodes; ++n) {
            Node node;
            if (!(iss >> node.feature) ||
                !readDouble(iss, node.threshold) ||
                !readDouble(iss, node.value) ||
                !(iss >> node.left >> node.right)) {
                return false;
            }
            // eval() walks from node 0 to a leaf. A split must read a
            // feature inside the caller's width and, as in pre-order,
            // point both children forward inside this tree: every walk
            // then stays in bounds and ends.
            const long long id = static_cast<long long>(n);
            const long long limit = static_cast<long long>(num_nodes);
            if (node.feature >= 0 &&
                (node.feature >= featureDim || node.left <= id ||
                 node.left >= limit || node.right <= id ||
                 node.right >= limit)) {
                return false;
            }
            tree.nodes.push_back(node);
        }
        trees.push_back(std::move(tree));
    }
    bias_ = bias;
    learningRate_ = rate;
    trees_ = std::move(trees);
    trained_ = trained_flag != 0;
    return true;
}

} // namespace ft
