/**
 * @file
 * The request stream is a pure function of the seed: the same seed gives
 * the same list, a different seed a different one, on every workload.
 * Also checks the stratification the metrics rely on: the modeled prefix
 * issues every operator/DAG/family combination of a kind equally often.
 */
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stream.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what.c_str());
        ++failures;
    }
}

std::vector<std::string>
lines(Workload w, uint64_t seed, int n)
{
    std::vector<std::string> out;
    for (const Request &r : makeStream(w, seed, n))
        out.push_back(describe(r));
    return out;
}

} // namespace

int
main()
{
    for (Workload w : {Workload::OpSearch, Workload::LearnedSearch,
                       Workload::NetworkServe}) {
        const std::string name = workloadName(w);
        const int n = 3 * modeledPrefix(w);
        expect(lines(w, 7, n) == lines(w, 7, n), name + ": same seed");
        expect(lines(w, 7, n) != lines(w, 8, n), name + ": other seed");
        // A longer stream extends a shorter one.
        auto longer = lines(w, 7, n + 50);
        longer.resize(static_cast<size_t>(n));
        expect(longer == lines(w, 7, n), name + ": prefix stable");

        // The modeled prefix is stratified: every combination (identity
        // without the seeded explorer seed) is issued fresh equally often.
        std::map<std::string, int> combos;
        int fresh = 0;
        for (const Request &r : makeStream(w, 7, modeledPrefix(w))) {
            if (!r.fresh)
                continue;
            ++fresh;
            std::string id = r.identity.substr(0, r.identity.rfind('/'));
            if (r.kind == Kind::Family)
                id = r.identity.substr(0, r.identity.find('/'));
            ++combos[id];
        }
        // Compared within each request kind (the "op:"/"dag:"/"family:"
        // prefix): the kinds may have different counts.
        std::map<std::string, int> perKind;
        for (const auto &[id, count] : combos) {
            const std::string kind = id.substr(0, id.find(':'));
            const int first = perKind.emplace(kind, count).first->second;
            expect(count == first,
                   name + ": " + id + " issued unevenly in the prefix");
        }
        expect(fresh == modeledPrefix(w) || w == Workload::NetworkServe,
               name + ": the operator prefixes are all fresh");
    }
    std::printf(failures ? "stream test FAILED\n" : "stream test ok\n");
    return failures ? 1 : 0;
}
