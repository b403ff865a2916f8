#include "stream.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "ops/shapes.h"

namespace perfbench {

namespace {

/** Small deterministic generator over mix64 (independent of ft::Rng). */
class SeqRng
{
  public:
    explicit SeqRng(uint64_t seed) : state_(mix64(seed)) {}

    uint64_t next()
    {
        state_ += 0x9e3779b97f4a7c15ULL;
        return mix64(state_);
    }

    /** Uniform integer in [0, n). */
    int below(int n)
    {
        return static_cast<int>(next() % static_cast<uint64_t>(n));
    }

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[static_cast<size_t>(below(
                                    static_cast<int>(i)))]);
    }

  private:
    uint64_t state_;
};

uint64_t
seedFor(uint64_t seed, std::initializer_list<uint64_t> parts)
{
    uint64_t h = mix64(seed ^ 0x5eedbe4c4ULL);
    for (uint64_t p : parts)
        h = mix64(h ^ (p + 0x632be59bd9b4e019ULL));
    return h;
}

const char *
tunerName(Tuner t)
{
    switch (t) {
      case Tuner::QMethod: return "Q";
      case Tuner::PMethod: return "P";
      case Tuner::AutoTvm: return "AutoTVM";
    }
    return "?";
}

std::string
opIdentity(Workload w, const Request &r)
{
    const OpEntry &e = opCatalog(w)[static_cast<size_t>(r.op)];
    char buf[128];
    std::snprintf(buf, sizeof buf, "op:%s/%s@%d#%s/%llx", e.kind.c_str(),
                  e.id.c_str(), r.device, tunerName(r.tuner),
                  static_cast<unsigned long long>(r.exploreSeed));
    return buf;
}

// network_serve catalogs.
constexpr int kDagNets = 2;
constexpr int kDagBatches[] = {1, 2, 4, 8};
constexpr int kDagCombos = kDagNets * 4 * kNumDevices; // 24
constexpr int kServeOpDevices = 2;                     // V100, Xeon
constexpr int kFamilyLayers[] = {2, 4, 6, 8};          // C3, C5, C7, C9
constexpr int kFamilyCombos = 4 * kNumDevices;         // 12
constexpr int kFamilyMaxBatch = 16;
// Per round: fresh/repeat DAGs, fresh/repeat single ops, fresh/repeat
// family serves. No recorded serving traffic exists to fit these to, so
// the mix is an assumption (README, "network_serve traffic"): with
// nothing to favour one entry point, each gets the same share, and each
// identity comes back three times on average (3 of 4 requests repeat).
constexpr int kFreshDag = 2, kRepeatDag = 6;
constexpr int kFreshOp = 2, kRepeatOp = 6;
constexpr int kFreshFamily = 2, kRepeatFamily = 6;
constexpr int kServeRound = kFreshDag + kRepeatDag + kFreshOp + kRepeatOp +
                            kFreshFamily + kRepeatFamily; // 24

/** The devices a workload's operator requests use. */
std::vector<int>
opDevices(Workload w)
{
    if (w == Workload::OpSearch)
        return {0, 1, 2};
    return {0, 1};
}

/** Requests per round of the stream. */
int
roundSize(Workload w)
{
    if (w == Workload::NetworkServe)
        return kServeRound;
    return static_cast<int>(opCatalog(w).size() * opDevices(w).size());
}

/** Operator requests: every (operator, device) pair once per round. */
std::vector<Request>
opRound(Workload w, uint64_t seed, int round)
{
    const auto &catalog = opCatalog(w);
    const std::vector<int> devices = opDevices(w);
    std::vector<std::pair<int, int>> items;
    for (int op = 0; op < static_cast<int>(catalog.size()); ++op)
        for (int d : devices)
            items.emplace_back(op, d);
    // learned_search keeps one fixed order for every round and seed: the
    // shared cost model makes each answer depend on what ran before, and
    // a fixed order keeps that history the same. Its seed varies only the
    // explorers' seeds.
    SeqRng rng(w == Workload::LearnedSearch
                   ? seedFor(0, {1})
                   : seedFor(seed, {1, static_cast<uint64_t>(round)}));
    rng.shuffle(items);

    // learned_search: each (operator, device) keeps one method for the
    // whole stream, and the order alternates AutoTVM and Q-method.
    // op_search: an exact 50/50 Q/P split placed by the seed, and every
    // odd round gives each (operator, device) the method it did not get
    // in the round before, so two rounds cover every pair with both.
    std::vector<Tuner> tuners(items.size());
    if (w == Workload::LearnedSearch) {
        std::vector<std::pair<int, int>> autotvm, qmethod;
        for (const auto &item : items)
            ((item.first + item.second) % 2 == 0 ? autotvm : qmethod)
                .push_back(item);
        items.clear();
        for (size_t i = 0; i < std::max(autotvm.size(), qmethod.size());
             ++i) {
            if (i < autotvm.size()) {
                items.push_back(autotvm[i]);
                tuners[items.size() - 1] = Tuner::AutoTvm;
            }
            if (i < qmethod.size()) {
                items.push_back(qmethod[i]);
                tuners[items.size() - 1] = Tuner::QMethod;
            }
        }
    } else {
        const int pair = round / 2;
        std::vector<int> usesQ(items.size());
        for (size_t i = 0; i < usesQ.size(); ++i)
            usesQ[i] = i % 2 == 0;
        SeqRng split(seedFor(seed, {11, static_cast<uint64_t>(pair)}));
        split.shuffle(usesQ); // indexed by (operator, device) slot
        const int perOp = static_cast<int>(devices.size());
        for (size_t i = 0; i < items.size(); ++i) {
            const size_t slot = static_cast<size_t>(items[i].first * perOp +
                                                    items[i].second);
            const bool q = (usesQ[slot] != 0) != (round % 2 == 1);
            tuners[i] = q ? Tuner::QMethod : Tuner::PMethod;
        }
    }

    std::vector<Request> out;
    out.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
        Request r;
        r.kind = Kind::Op;
        r.op = items[i].first;
        r.device = items[i].second;
        r.tuner = tuners[i];
        // Seeded per (operator, device, method), not per round: a later
        // round that draws the same method repeats the request exactly.
        r.exploreSeed = seedFor(seed, {2, static_cast<uint64_t>(r.op),
                                       static_cast<uint64_t>(r.device),
                                       static_cast<uint64_t>(r.tuner)});
        r.identity = opIdentity(w, r);
        out.push_back(std::move(r));
    }
    return out;
}

/**
 * The k-th member of a cycling seeded permutation of `n` combos: every
 * run of n consecutive k covers each combo once. Returns (combo, cycle).
 */
std::pair<int, int>
cycled(uint64_t seed, uint64_t tag, int n, int k)
{
    const int cycle = k / n;
    std::vector<int> perm(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        perm[static_cast<size_t>(i)] = i;
    SeqRng rng(seedFor(seed, {tag, static_cast<uint64_t>(cycle)}));
    rng.shuffle(perm);
    return {perm[static_cast<size_t>(k % n)], cycle};
}


Request
dagRequest(uint64_t seed, int k)
{
    auto [combo, cycle] = cycled(seed, 3, kDagCombos, k);
    Request r;
    r.kind = Kind::Dag;
    r.net = combo % kDagNets;
    r.batch = kDagBatches[(combo / kDagNets) % 4];
    r.device = combo / (kDagNets * 4);
    r.exploreSeed = seedFor(seed, {4, static_cast<uint64_t>(combo),
                                   static_cast<uint64_t>(cycle)});
    char buf[96];
    std::snprintf(buf, sizeof buf, "dag:%s/b%d@%d/%llx",
                  r.net == 0 ? "yolo" : "overfeat", r.batch, r.device,
                  static_cast<unsigned long long>(r.exploreSeed));
    r.identity = buf;
    return r;
}

Request
serveOpRequest(uint64_t seed, int k)
{
    const int pool = static_cast<int>(opCatalog(Workload::NetworkServe)
                                          .size()) *
                     kServeOpDevices;
    auto [item, cycle] = cycled(seed, 5, pool, k);
    Request r;
    r.kind = Kind::Op;
    r.op = item / kServeOpDevices;
    r.device = item % kServeOpDevices;
    r.tuner = Tuner::QMethod;
    r.exploreSeed = seedFor(seed, {6, static_cast<uint64_t>(item),
                                   static_cast<uint64_t>(cycle)});
    r.identity = opIdentity(Workload::NetworkServe, r);
    return r;
}

Request
familyRequest(uint64_t seed, int k)
{
    auto [combo, cycle] = cycled(seed, 7, kFamilyCombos, k);
    Request r;
    r.kind = Kind::Family;
    r.layer = kFamilyLayers[combo % 4];
    r.device = combo / 4;
    r.variant = cycle;
    r.exploreSeed = seedFor(seed, {8, static_cast<uint64_t>(combo),
                                   static_cast<uint64_t>(cycle)});
    char buf[64];
    std::snprintf(buf, sizeof buf, "family:C%d@%d/v%d", r.layer + 1,
                  r.device, r.variant);
    r.identity = buf;
    return r;
}

/**
 * A repeat re-issues a request of the same kind from `d` rounds back.
 * Reuse distance is heavy-tailed: `d` is log-uniform, drawn as a uniform
 * power-of-two class in [2, 2^kRepeatHorizonLog2) and then uniformly
 * inside the class, truncated to the rounds issued so far. So recent
 * requests recur most, yet any request up to 255 rounds (6120 requests,
 * more than a run issues) old may come back, whatever a cache can hold.
 * Integer-only, so the stream is the same on every libm. The first two
 * rounds, with nothing two rounds old, repeat what has been issued.
 */
constexpr int kRepeatHorizonLog2 = 8;

Request
pickRepeat(const std::vector<Request> &issued, int perRound, int round,
           SeqRng &rng)
{
    const int oldest = std::min(round, (1 << kRepeatHorizonLog2) - 1);
    if (oldest < 2)
        return issued[static_cast<size_t>(
            rng.below(static_cast<int>(issued.size())))];
    int log2 = 1;
    while ((2 << log2) <= oldest)
        ++log2;
    const int cls = 1 + rng.below(log2); // [1, floor(log2(oldest))]
    const int lo = 1 << cls;
    const int hi = std::min((2 << cls) - 1, oldest);
    const int d = lo + rng.below(hi - lo + 1);
    const int index = (round - d) * perRound + rng.below(perRound);
    return issued[static_cast<size_t>(index)];
}

std::vector<Request>
serveStream(uint64_t seed, int n)
{
    std::vector<Request> out;
    std::vector<Request> dags, ops, families;
    for (int round = 0; static_cast<int>(out.size()) < n; ++round) {
        SeqRng rng(seedFor(seed, {9, static_cast<uint64_t>(round)}));
        std::vector<Request> batch;
        for (int i = 0; i < kFreshDag; ++i) {
            Request r = dagRequest(seed, round * kFreshDag + i);
            dags.push_back(r);
            batch.push_back(std::move(r));
        }
        for (int i = 0; i < kFreshOp; ++i) {
            Request r = serveOpRequest(seed, round * kFreshOp + i);
            ops.push_back(r);
            batch.push_back(std::move(r));
        }
        for (int i = 0; i < kFreshFamily; ++i) {
            Request r = familyRequest(seed, round * kFreshFamily + i);
            r.shape = 1 + rng.below(kFamilyMaxBatch);
            families.push_back(r);
            batch.push_back(std::move(r));
        }
        for (int i = 0; i < kRepeatDag; ++i)
            batch.push_back(pickRepeat(dags, kFreshDag, round, rng));
        for (int i = 0; i < kRepeatOp; ++i)
            batch.push_back(pickRepeat(ops, kFreshOp, round, rng));
        for (int i = 0; i < kRepeatFamily; ++i) {
            Request r = pickRepeat(families, kFreshFamily, round, rng);
            r.shape = 1 + rng.below(kFamilyMaxBatch);
            batch.push_back(std::move(r));
        }
        rng.shuffle(batch);
        for (Request &r : batch)
            out.push_back(std::move(r));
    }
    out.resize(static_cast<size_t>(n));
    return out;
}

} // namespace

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::OpSearch, Workload::LearnedSearch,
                       Workload::NetworkServe}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::OpSearch: return "op_search";
      case Workload::LearnedSearch: return "learned_search";
      case Workload::NetworkServe: return "network_serve";
    }
    return "?";
}

const std::vector<OpEntry> &
opCatalog(Workload w)
{
    static const std::vector<OpEntry> table3 = [] {
        // Every case of the twelve Table 3 operator kinds.
        std::vector<OpEntry> out;
        for (const std::string &kind : ft::ops::table3Operators()) {
            const auto cases = ft::ops::table3Cases(kind);
            for (size_t i = 0; i < cases.size(); ++i)
                out.push_back({kind, cases[i].id, static_cast<int>(i)});
        }
        return out;
    }();
    static const std::vector<OpEntry> learned = [] {
        // YOLO-v1 C1-C15 and the GEMM shapes from 64^3 up.
        std::vector<OpEntry> out;
        const auto convs = ft::ops::table3Cases("C2D");
        for (size_t i = 0; i < convs.size(); ++i)
            out.push_back({"C2D", convs[i].id, static_cast<int>(i)});
        const auto gemms = ft::ops::table3Cases("GMM");
        for (size_t i = 1; i < gemms.size(); ++i)
            out.push_back({"GMM", gemms[i].id, static_cast<int>(i)});
        return out;
    }();
    static const std::vector<OpEntry> serve = [] {
        // The first (smallest) case of each Table 3 kind.
        std::vector<OpEntry> out;
        for (const std::string &kind : ft::ops::table3Operators())
            out.push_back({kind, ft::ops::table3Cases(kind)[0].id, 0});
        return out;
    }();
    switch (w) {
      case Workload::OpSearch: return table3;
      case Workload::LearnedSearch: return learned;
      case Workload::NetworkServe: return serve;
    }
    return table3;
}

int
modeledPrefix(Workload w)
{
    // op_search: two rounds, every (operator, device) with both methods;
    // learned_search: one round; network_serve: the 24 rounds that issue
    // every DAG combo and pooled operator twice, every family combo four
    // times.
    if (w == Workload::NetworkServe)
        return 24 * kServeRound;
    if (w == Workload::OpSearch)
        return 2 * roundSize(w);
    return roundSize(w);
}

std::vector<Request>
makeStream(Workload w, uint64_t seed, int n)
{
    std::vector<Request> out;
    if (w == Workload::NetworkServe) {
        out = serveStream(seed, n);
    } else {
        for (int round = 0; static_cast<int>(out.size()) < n; ++round) {
            for (Request &r : opRound(w, seed, round))
                out.push_back(std::move(r));
        }
        out.resize(static_cast<size_t>(n));
    }
    std::unordered_set<std::string> seen(out.size());
    for (Request &r : out)
        r.fresh = seen.insert(r.identity).second;
    return out;
}

std::string
describe(const Request &r)
{
    std::ostringstream oss;
    oss << (r.fresh ? "fresh  " : "repeat ") << r.identity;
    if (r.kind == Kind::Family)
        oss << " shape=" << r.shape;
    return oss.str();
}

} // namespace perfbench
