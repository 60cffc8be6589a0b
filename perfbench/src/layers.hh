/**
 * @file
 * Per-layer measurements for the traced run. Each probe times the
 * benchmark's own calls into one module of the simulator and appends
 * named metrics; simulated results it produces are handed back so the
 * caller can check them like any batch result.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "sim/runner/run_engine.hh"
#include "spans.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Segment cuts a System of @p length replays to (warmup, total). */
std::vector<std::uint64_t> segmentCuts(const nurapid::SimLength &length);

/** The distillation parameters @p sys's registry streams are keyed by. */
nurapid::DistillParams distillParamsOf(nurapid::System &sys);

/**
 * Times the simulation and organization layers on one workload
 * profile, on the calling thread with a warm trace registry: for each
 * of the five paper organizations plus NuRAPID at 2/4/8 d-groups, one
 * System is constructed, warmed up and measured, and the distilled
 * stream's L1 misses and writebacks are replayed through a bare
 * makeOrganization() to time LowerMemory::access alone. Appends the
 * sim.*, cpu.*, mem.*, nuca.* and nurapid.* metrics; @p runs receives
 * each System's metrics, in config order.
 */
void probeSimLayers(const nurapid::WorkloadProfile &profile,
                    const nurapid::SimLength &length, SpanLog &log,
                    std::vector<Metric> &out,
                    std::vector<nurapid::RunMetrics> &runs,
                    double &base_construct_ms);

/**
 * Times the run cache on one finished batch: storing and saving every
 * result to @p path, loading it into a fresh RunCache, looking every
 * key up, and replaying @p requests through a RunEngine that loads the
 * file. Appends the runner.cache_* and runner.warm_batch_ms metrics;
 * @p warm receives the replayed results, in request order.
 */
void probeRunCache(const std::vector<nurapid::RunRequest> &requests,
                   const std::vector<nurapid::RunMetrics> &results,
                   unsigned jobs, const std::string &path, SpanLog &log,
                   std::vector<Metric> &out,
                   std::vector<nurapid::RunMetrics> &warm);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
