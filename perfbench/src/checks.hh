/**
 * @file
 * Output checks behind the benchmark's failure count, and a digest of
 * every simulated field so two builds can be compared at a glance.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner/run_engine.hh"

namespace perfbench {

/**
 * Checks one batch of results, in request order, setting @p bad[i]
 * for every run i that fails. A run fails when
 *  - l2_hits + l2_misses != l2_demand;
 *  - the region hit shares plus the miss share differ from 1 by more
 *    than 1e-9;
 *  - any energy figure is non-finite or not positive;
 *  - its instructions or L1 energy differ from the first run of the
 *    same workload in the batch. Both follow from the trace alone (the
 *    L1 energy counts L1 accesses), so no organization may change
 *    them. l2_demand is not compared: the core merges an L1 miss into
 *    an MSHR already fetching its block, and how long a fetch stays
 *    in flight depends on the organization's latency.
 * Each failure is described in one line appended to @p why.
 */
void checkBatch(const std::vector<nurapid::RunRequest> &requests,
                const std::vector<nurapid::RunMetrics> &results,
                std::vector<char> &bad, std::vector<std::string> &why);

/** Sets @p bad[i] for every run of @p again that is not
 *  identicalMetrics to @p first[i]; @p what names the comparison in
 *  the failure lines. */
void markDifferent(const std::vector<nurapid::RunMetrics> &first,
                   const std::vector<nurapid::RunMetrics> &again,
                   const std::string &what, std::vector<char> &bad,
                   std::vector<std::string> &why);

/** FNV-1a digest over every simulated field of @p results, in order
 *  (wall time and result provenance excluded), as 16 hex digits. */
std::string digest(const std::vector<nurapid::RunMetrics> &results);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
