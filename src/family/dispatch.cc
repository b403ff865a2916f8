#include "family/dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "schedule/serialize.h"
#include "support/journal.h"
#include "support/logging.h"

namespace ft {

namespace {

/** Journal kind tag for persisted dispatch tables. */
constexpr char kDispatchKind[] = "dispatch";

/** Bit-exact double rendering (round-trips through strtod). */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

const char *kBucketingNames[] = {"pow2", "fixed"};

Bucketing
bucketingOf(const std::string &name, bool &ok)
{
    if (name == kBucketingNames[0])
        return Bucketing::Pow2;
    if (name == kBucketingNames[1])
        return Bucketing::FixedWidth;
    ok = false;
    return Bucketing::Pow2;
}

} // namespace

void
DispatchTable::addEntry(DispatchEntry entry)
{
    const int64_t expected_lo =
        entries_.empty() ? var_.lo : entries_.back().hi + 1;
    FT_ASSERT(entry.lo == expected_lo, "dispatch entry [", entry.lo, ", ",
              entry.hi, "] breaks the contiguous bucket partition "
              "(expected lo ", expected_lo, ")");
    FT_ASSERT(entry.hi >= entry.lo && entry.hi <= var_.hi,
              "dispatch entry [", entry.lo, ", ", entry.hi,
              "] exceeds the declared range of '", var_.name, "'");
    entries_.push_back(std::move(entry));
}

bool
DispatchTable::total() const
{
    return !entries_.empty() && entries_.front().lo == var_.lo &&
           entries_.back().hi == var_.hi;
}

const DispatchEntry &
DispatchTable::lookup(int64_t shape) const
{
    if (!var_.contains(shape)) {
        throw std::out_of_range(
            "dispatch lookup for '" + familyName_ + "': shape " +
            std::to_string(shape) + " outside the declared range of '" +
            var_.name + "' [" + std::to_string(var_.lo) + ", " +
            std::to_string(var_.hi) + "]");
    }
    // Binary search over the contiguous ascending partition.
    size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (entries_[mid].hi < shape)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo >= entries_.size() || !entries_[lo].contains(shape)) {
        throw std::out_of_range(
            "dispatch lookup for '" + familyName_ + "': shape " +
            std::to_string(shape) +
            " has no bucket entry (table is not total)");
    }
    return entries_[lo];
}

std::string
DispatchTable::serialize() const
{
    std::ostringstream oss;
    oss << "dispatch v1\n";
    oss << "family " << familyName_ << "\n";
    oss << "device " << device_ << "\n";
    oss << "var " << var_.name << " " << var_.lo << " " << var_.hi << " "
        << kBucketingNames[var_.bucketing == Bucketing::Pow2 ? 0 : 1] << " "
        << var_.bucketWidth << "\n";
    for (const DispatchEntry &e : entries_) {
        oss << "entry " << e.lo << " " << e.hi << " " << hexDouble(e.gflops)
            << " " << e.trials << " " << serializeConfig(e.config) << "\n";
    }
    return oss.str();
}

std::optional<DispatchTable>
DispatchTable::deserialize(const std::string &text)
{
    std::istringstream lines(text);
    std::string line;
    if (!std::getline(lines, line) || line != "dispatch v1")
        return std::nullopt;

    DispatchTable out;
    bool sawVar = false;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag == "family") {
            fields >> out.familyName_;
        } else if (tag == "device") {
            fields >> out.device_;
        } else if (tag == "var") {
            std::string bucketing;
            fields >> out.var_.name >> out.var_.lo >> out.var_.hi >>
                bucketing >> out.var_.bucketWidth;
            if (fields.fail())
                return std::nullopt;
            bool ok = true;
            out.var_.bucketing = bucketingOf(bucketing, ok);
            if (!ok)
                return std::nullopt;
            sawVar = true;
        } else if (tag == "entry") {
            if (!sawVar)
                return std::nullopt;
            DispatchEntry e;
            std::string gflops, configLine;
            fields >> e.lo >> e.hi >> gflops >> e.trials >> configLine;
            if (fields.fail())
                return std::nullopt;
            char *end = nullptr;
            e.gflops = std::strtod(gflops.c_str(), &end);
            if (end == gflops.c_str())
                return std::nullopt;
            auto config = parseConfig(configLine);
            if (!config)
                return std::nullopt;
            e.config = std::move(*config);
            const int64_t expected_lo =
                out.entries_.empty() ? out.var_.lo
                                     : out.entries_.back().hi + 1;
            if (e.lo != expected_lo || e.hi < e.lo || e.hi > out.var_.hi)
                return std::nullopt;
            out.entries_.push_back(std::move(e));
        } else {
            return std::nullopt;
        }
    }
    if (!sawVar)
        return std::nullopt;
    return out;
}

bool
DispatchTable::saveToFile(const std::string &path) const
{
    JournalWriter writer(kDispatchKind);
    writer.append(serialize());
    return writer.commit(path);
}

std::optional<DispatchTable>
DispatchTable::loadFromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    in.close();

    JournalContents journal = parseJournal(bytes);
    if (!journal.valid || journal.kind != kDispatchKind) {
        warn("ignoring dispatch table ", path, " (",
             journal.diag.empty() ? "wrong journal kind" : journal.diag,
             ")");
        return std::nullopt;
    }
    if (journal.torn)
        warn("dispatch table ", path, " has a torn tail (", journal.diag,
             "); using last intact frame");
    if (journal.records.empty()) {
        warn("ignoring dispatch table ", path, " with no intact frames");
        return std::nullopt;
    }
    // Newest frame wins (saveToFile writes exactly one, but a partial
    // upgrade or future append-style writer stays readable).
    auto table = deserialize(journal.records.back());
    if (!table)
        warn("ignoring dispatch table ", path,
             " whose frame body fails to parse");
    return table;
}

} // namespace ft
