#include "checks.hh"

#include <cmath>
#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "sim/runner/run_cache.hh"

namespace perfbench {

using nurapid::RunMetrics;
using nurapid::RunRequest;

namespace {

std::string
runLabel(const RunMetrics &m)
{
    return m.workload + " / " + m.organization;
}

bool
positiveFinite(double v)
{
    return std::isfinite(v) && v > 0;
}

} // namespace

void
checkBatch(const std::vector<RunRequest> &requests,
           const std::vector<RunMetrics> &results, std::vector<char> &bad,
           std::vector<std::string> &why)
{
    // Reference run per workload stream: the profile's name and seed
    // identify it.
    std::map<std::pair<std::string, std::uint64_t>, const RunMetrics *>
        first;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunMetrics &m = results[i];
        std::vector<std::string> fails;
        if (m.l2_hits + m.l2_misses != m.l2_demand) {
            fails.push_back(nurapid::strprintf(
                "l2_hits %llu + l2_misses %llu != l2_demand %llu",
                static_cast<unsigned long long>(m.l2_hits),
                static_cast<unsigned long long>(m.l2_misses),
                static_cast<unsigned long long>(m.l2_demand)));
        }
        double share = m.miss_frac;
        for (double f : m.region_frac)
            share += f;
        if (!(std::fabs(share - 1.0) <= 1e-9))
            fails.push_back(nurapid::strprintf(
                "region shares + miss share = %.12f", share));
        const nurapid::EnergyReport &e = m.energy;
        if (!positiveFinite(e.core_nj) || !positiveFinite(e.l1_nj) ||
            !positiveFinite(e.l2_cache_nj) ||
            !positiveFinite(e.memory_nj) || !positiveFinite(e.total_nj) ||
            !positiveFinite(e.edp)) {
            fails.push_back("an energy figure is non-finite or <= 0");
        }
        const auto key = std::make_pair(requests[i].profile.name,
                                        requests[i].profile.seed);
        auto [it, inserted] = first.emplace(key, &m);
        if (!inserted && (it->second->instructions != m.instructions ||
                          it->second->energy.l1_nj != e.l1_nj)) {
            fails.push_back(nurapid::strprintf(
                "instructions/L1 energy %llu/%.17g differ from %s "
                "(%llu/%.17g)",
                static_cast<unsigned long long>(m.instructions), e.l1_nj,
                it->second->organization.c_str(),
                static_cast<unsigned long long>(
                    it->second->instructions),
                it->second->energy.l1_nj));
        }
        if (!fails.empty()) {
            bad[i] = 1;
            for (const std::string &f : fails)
                why.push_back(runLabel(m) + ": " + f);
        }
    }
}

void
markDifferent(const std::vector<RunMetrics> &first,
              const std::vector<RunMetrics> &again, const std::string &what,
              std::vector<char> &bad, std::vector<std::string> &why)
{
    for (std::size_t i = 0; i < again.size(); ++i) {
        if (i >= first.size() ||
            !nurapid::identicalMetrics(first[i], again[i])) {
            bad[i] = 1;
            why.push_back(runLabel(again[i]) + ": " + what);
        }
    }
}

std::string
digest(const std::vector<RunMetrics> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (RunMetrics m : results) {
        m.wall_seconds = 0;
        m.from_cache = false;
        m.metrics_file.clear();
        for (unsigned char c : nurapid::runMetricsToJson(m).dump()) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
