#include "schedule/serialize.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/static_analyzer.h"
#include "support/journal.h"
#include "support/logging.h"

namespace ft {

namespace {

/** Journal kind tag for tuning-cache files (format v3). */
constexpr char kCacheKind[] = "tcache";

void
appendSplits(std::ostringstream &oss,
             const std::vector<std::vector<int64_t>> &splits)
{
    for (size_t i = 0; i < splits.size(); ++i) {
        if (i)
            oss << ";";
        for (size_t j = 0; j < splits[i].size(); ++j) {
            if (j)
                oss << ",";
            oss << splits[i][j];
        }
    }
}

std::optional<std::vector<std::vector<int64_t>>>
parseSplits(const std::string &text)
{
    std::vector<std::vector<int64_t>> out;
    if (text.empty())
        return out;
    std::istringstream rows(text);
    std::string row;
    while (std::getline(rows, row, ';')) {
        std::vector<int64_t> factors;
        std::istringstream cells(row);
        std::string cell;
        while (std::getline(cells, cell, ',')) {
            try {
                factors.push_back(std::stoll(cell));
            } catch (...) {
                return std::nullopt;
            }
        }
        if (factors.empty())
            return std::nullopt;
        out.push_back(std::move(factors));
    }
    return out;
}

/** Split "key=value" fields separated by '|'. */
std::map<std::string, std::string>
parseFields(const std::string &line)
{
    std::map<std::string, std::string> out;
    std::istringstream fields(line);
    std::string field;
    while (std::getline(fields, field, '|')) {
        auto eq = field.find('=');
        if (eq == std::string::npos) {
            out[field] = "";
        } else {
            out[field.substr(0, eq)] = field.substr(eq + 1);
        }
    }
    return out;
}

} // namespace

std::string
serializeConfig(const OpConfig &config)
{
    std::ostringstream oss;
    oss << "v1|s=";
    appendSplits(oss, config.spatialSplits);
    oss << "|r=";
    appendSplits(oss, config.reduceSplits);
    oss << "|reorder=" << config.reorderChoice
        << "|fuse=" << config.fuseCount
        << "|unroll=" << config.unrollDepth
        << "|vec=" << config.vectorizeLen
        << "|cacheat=" << config.cacheAtReduceLevel
        << "|rows=" << config.fpgaBufferRows
        << "|part=" << config.fpgaPartition;
    return oss.str();
}

std::optional<OpConfig>
parseConfig(const std::string &line)
{
    auto fields = parseFields(line);
    if (!fields.count("v1"))
        return std::nullopt;
    OpConfig config;
    auto spatial = parseSplits(fields["s"]);
    auto reduce = parseSplits(fields["r"]);
    if (!spatial || !reduce)
        return std::nullopt;
    config.spatialSplits = std::move(*spatial);
    config.reduceSplits = std::move(*reduce);
    try {
        auto get_int = [&](const char *key, int fallback) {
            auto it = fields.find(key);
            return it == fields.end() ? fallback : std::stoi(it->second);
        };
        config.reorderChoice = get_int("reorder", 0);
        config.fuseCount = get_int("fuse", 1);
        config.unrollDepth = get_int("unroll", 0);
        config.vectorizeLen = get_int("vec", 8);
        config.cacheAtReduceLevel = get_int("cacheat", 0);
        config.fpgaBufferRows = get_int("rows", 1);
        config.fpgaPartition = get_int("part", 1);
    } catch (...) {
        return std::nullopt;
    }
    return config;
}

std::string
tuningKeyFor(const Operation &anchor, const std::string &device)
{
    FT_ASSERT(!anchor->isPlaceholder(), "tuning key of placeholder");
    const auto *c = static_cast<const ComputeOp *>(anchor.get());
    // Built by appending: every service request computes this key.
    std::string key = anchor->name();
    auto extent = [&key](int64_t v) {
        char buf[24];
        key.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        key += ',';
    };
    key += ':';
    for (const auto &iv : c->axis())
        extent(iv->extent);
    key += "r:";
    for (const auto &iv : c->reduceAxis())
        extent(iv->extent);
    key += '@';
    key += device;
    return key;
}

std::string
tuningKey(const Tensor &output, const std::string &device)
{
    MiniGraph graph(output);
    return tuningKeyFor(anchorOp(graph), device);
}

void
TuningCache::putLocked(TuningRecord record)
{
    auto it = records_.find(record.key);
    if (it == records_.end() || it->second.gflops < record.gflops)
        records_[record.key] = std::move(record);
}

void
TuningCache::put(const TuningRecord &record)
{
    std::lock_guard<std::mutex> lock(mu_);
    putLocked(record);
}

std::optional<TuningRecord>
TuningCache::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(key);
    if (it == records_.end())
        return std::nullopt;
    return it->second;
}

size_t
TuningCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
}

namespace {

/** One cache record as a frame payload: "key\tgflops\tconfig". */
std::optional<TuningRecord>
parseCacheRecord(const std::string &line)
{
    auto tab1 = line.find('\t');
    auto tab2 = line.find('\t', tab1 + 1);
    if (tab1 == std::string::npos || tab2 == std::string::npos)
        return std::nullopt;
    TuningRecord record;
    record.key = line.substr(0, tab1);
    try {
        record.gflops = std::stod(line.substr(tab1 + 1, tab2 - tab1 - 1));
    } catch (...) {
        return std::nullopt;
    }
    auto config = parseConfig(line.substr(tab2 + 1));
    if (!config)
        return std::nullopt;
    record.config = std::move(*config);
    return record;
}

} // namespace

bool
TuningCache::save(const std::string &path) const
{
    // A CRC32-framed journal, one record per frame, committed atomically
    // (temp file + rename) so readers never observe a partial file;
    // per-frame checksums let load() recover every record before a torn
    // tail.
    JournalWriter writer(kCacheKind);
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[key, record] : records_) {
            std::ostringstream oss;
            oss << key << "\t" << record.gflops << "\t"
                << serializeConfig(record.config);
            writer.append(oss.str());
        }
    }
    return writer.commit(path);
}

bool
TuningCache::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    in.close();

    JournalContents journal = parseJournal(bytes);
    if (!journal.valid || journal.kind != kCacheKind) {
        warn("tuning cache ", path, " is not a usable journal (",
             journal.diag.empty() ? "wrong journal kind" : journal.diag,
             "); starting with an empty cache");
        return true;
    }
    if (journal.torn) {
        // Torn tail: every intact frame before the tear is real data —
        // keep it. Repair the file so future appends and readers see a
        // clean journal.
        warn("tuning cache ", path, " has a torn tail (", journal.diag,
             "); recovered ", journal.records.size(),
             " records before the tear");
        if (!truncateToValid(path, journal))
            warn("could not repair torn tuning cache ", path);
    }
    for (const std::string &payload : journal.records) {
        auto record = parseCacheRecord(payload);
        if (!record) {
            warn("skipping unparseable tuning record frame: ", payload);
            continue;
        }
        put(*record);
    }
    return true;
}

} // namespace ft
