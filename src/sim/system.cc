#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "sim/obs/export.hh"
#include "sim/org_dispatch.hh"
#include "sim/profile/profile.hh"
#include "sim/runner/run_engine.hh"
#include "sim/runner/span_trace.hh"
#include "timing/geometry.hh"
#include "trace/profiles.hh"

namespace nurapid {

namespace {

const SramMacroModel &
sharedModel()
{
    static const SramMacroModel model(TechParams::the70nm());
    return model;
}

} // namespace

std::unique_ptr<LowerMemory>
makeOrganization(const OrgSpec &spec)
{
    const SramMacroModel &model = sharedModel();
    switch (spec.kind) {
      case OrgKind::BaseL2L3:
        return std::make_unique<ConventionalL2L3>(model, spec.base);
      case OrgKind::DNuca:
        return std::make_unique<DNucaCache>(model, spec.dnuca);
      case OrgKind::SNuca:
        return std::make_unique<SNucaCache>(model, spec.snuca);
      case OrgKind::NuRapid:
        return std::make_unique<NuRapidCache>(model, spec.nurapid);
      case OrgKind::CoupledSA:
        return std::make_unique<CoupledNucaCache>(model, spec.coupled);
    }
    panic("unknown organization kind");
}

namespace {

CoreParams
withWorkloadCpi(CoreParams params, const WorkloadProfile &profile)
{
    params.dispatch_cpi = std::max(params.dispatch_cpi,
                                   profile.base_cpi);
    return params;
}

} // namespace

System::System(const OrgSpec &org, const WorkloadProfile &profile,
               const SimLength &len, const CoreParams &core_params)
    : spec(org), prof(profile), length(len),
      lowerMem(makeOrganization(org)),
      l1iCache(l1iOrg()), l1dCache(l1dOrg()),
      coreModel(std::make_unique<OooCore>(
          withWorkloadCpi(core_params, profile), l1iCache, l1dCache,
          *lowerMem))
{
    const std::uint64_t total =
        length.warmup_records + length.measure_records;
    if (total == 0)
        return;
    // The cuts are the segment boundaries runAll()'s phases stop at;
    // folded counters are exact there, so resetStats() between warmup
    // and measure sees the same state as the reference loop.
    std::vector<std::uint64_t> cuts;
    if (length.warmup_records > 0 && length.warmup_records < total)
        cuts.push_back(length.warmup_records);
    cuts.push_back(total);

    DistillParams dp;
    dp.l1i = l1iCache.org();
    dp.l1d = l1dCache.org();
    dp.bp_entries = coreModel->branchPredictor().entries();
    dp.bp_history_bits = coreModel->branchPredictor().historyBits();
    dp.mshr_block_bytes = coreModel->params().mshr_block_bytes;
    // The distilled stream is the only one requested: a registry or
    // .dtc hit generates nothing, and a miss runs its one
    // generate-and-distill pass inside this span.
    EngineSpan span("distill-decode", "distill " + profile.name);
    distilled = sharedDistilledTrace(profile, total, cuts, dp);
    dcur = distilled->cursor();
}

void
System::runRecords(std::uint64_t records)
{
    if (records == 0)
        return;
    const std::uint64_t end = dcur.pos + records;
    panic_if(end > distilled->size() || !distilled->isCut(end),
             "segment end %llu is not a distillation cut",
             static_cast<unsigned long long>(end));
    NURAPID_PROFILE_SCOPE(Core);
    withConcreteOrg(*lowerMem, spec.kind, [&](auto &org) {
        coreModel->runDistilled(org, dcur, records);
    });
}

void
System::endWarmup()
{
    coreModel->resetStats();
    lowerMem->resetStats();
}

void
System::warmup()
{
    runRecords(length.warmup_records);
    endWarmup();
}

void
System::enableObservability(const ObsConfig &cfg)
{
    obsCfg = cfg;
    if (!cfg.enabled())
        return;
    // The sink exists whenever anything is observed: even a
    // metrics-only run needs its epoch-local latency aggregates.
    obsSink = std::make_unique<EventSink>(cfg.record_events,
                                          cfg.resolvedEventCap());
    if (cfg.record_metrics) {
        IntervalSources src;
        src.org_counters = &lowerMem->stats();
        src.region_hits = &lowerMem->regionHits();
        src.cycles = [this] { return coreModel->cycles(); };
        src.instructions = [this] { return coreModel->instructions(); };
        src.occupancy = [this](std::vector<std::uint64_t> &out) {
            lowerMem->regionOccupancy(out);
        };
        src.energy = lowerMem->energyBreakdown();
        // Off-chip share, same expression as EnergyReport::memory_nj
        // so the timeline reconciles bitwise with computeEnergy().
        src.lower_energy = [this] {
            return lowerMem->dynamicEnergyNJ() - lowerMem->cacheEnergyNJ();
        };
        obsRec = std::make_unique<IntervalRecorder>(
            cfg.resolvedInterval(), std::move(src), obsSink.get());
    }
}

void
System::beginMeasure()
{
    if (obsSink && !obsAttached) {
        lowerMem->attachObserver(obsSink.get());
        coreModel->attachObservability(obsSink.get(), obsRec.get());
        if (obsRec)
            obsRec->begin();
        obsAttached = true;
    }
}

void
System::measure()
{
    beginMeasure();
    runRecords(length.measure_records);
}

RunMetrics
System::metrics() const
{
    NURAPID_PROFILE_SCOPE(Stats);
    RunMetrics m;
    m.workload = prof.name;
    m.organization = spec.description();
    m.ipc = coreModel->ipc();
    m.cycles = coreModel->cycles();
    m.instructions = coreModel->instructions();

    const StatGroup &ls = lowerMem->stats();
    auto counter = [&](const char *name) -> std::uint64_t {
        return ls.hasCounter(name) ? ls.counterValue(name) : 0;
    };
    m.l2_demand = counter("demand_accesses") + counter("accesses");
    m.l2_hits = counter("hits") +
        counter("l2_hits") + counter("l3_hits");
    m.l2_misses = counter("misses") + counter("memory_fills");
    m.l2_apki = m.instructions
        ? 1000.0 * m.l2_demand / m.instructions
        : 0.0;

    const Histogram &h = lowerMem->regionHits();
    m.region_frac.resize(h.buckets());
    const double denom = static_cast<double>(m.l2_demand);
    for (std::size_t b = 0; b < h.buckets(); ++b) {
        m.region_frac[b] =
            denom > 0 ? h.count(b) / denom : 0.0;
    }
    m.miss_frac = denom > 0 ? m.l2_misses / denom : 0.0;

    m.promotions = counter("promotions");
    m.demotions = counter("demotions");
    m.block_moves = counter("block_moves");
    m.data_array_accesses =
        counter("dgroup_accesses") + counter("bank_data_accesses");

    m.energy = computeEnergy(energyParams, *coreModel, *lowerMem);
    m.wall_seconds = wallSeconds;
    return m;
}

void
System::exportObservability(RunMetrics &m)
{
    if (!obsSink)
        return;
    if (obsRec)
        obsRec->finish();
    const ObsExportMeta meta{prof.name, spec.description(),
                             obsCfg.run_cache_bypassed};
    if (!obsCfg.events_path.empty() &&
        !writeEventsJsonl(obsCfg.events_path, meta, *obsSink)) {
        warn("failed to write event trace %s",
             obsCfg.events_path.c_str());
    }
    if (obsRec) {
        if (!obsCfg.metrics_path.empty()) {
            if (writeMetricsJsonl(obsCfg.metrics_path, meta, *obsRec))
                m.metrics_file = obsCfg.metrics_path;
            else
                warn("failed to write metrics timeline %s",
                     obsCfg.metrics_path.c_str());
        }
        if (!obsCfg.perfetto_path.empty() &&
            !writePerfettoTrace(obsCfg.perfetto_path, meta, *obsRec)) {
            warn("failed to write perfetto trace %s",
                 obsCfg.perfetto_path.c_str());
        }
    }
}

RunMetrics
System::runPhases(const std::function<void(std::uint64_t)> &feed)
{
    const auto start = std::chrono::steady_clock::now();
    feed(length.warmup_records);
    endWarmup();
    beginMeasure();
    feed(length.measure_records);
    wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    RunMetrics m = metrics();
    exportObservability(m);
    return m;
}

RunMetrics
System::runAll()
{
    EngineSpan span("simulate", prof.name + " / " + spec.description());
    return runPhases([this](std::uint64_t n) { runRecords(n); });
}

RunMetrics
System::runAllReference()
{
    SyntheticTrace trace(prof);
    return runPhases([&](std::uint64_t n) { coreModel->run(trace, n); });
}

RunMetrics
runOne(const OrgSpec &org, const WorkloadProfile &profile,
       const SimLength &length)
{
    return globalRunEngine().runOne(org, profile, length);
}

std::vector<RunMetrics>
runSuite(const OrgSpec &org, const std::vector<WorkloadProfile> &suite,
         const SimLength &length)
{
    return globalRunEngine().runSuite(org, suite, length);
}

std::vector<std::vector<RunMetrics>>
runSuites(const std::vector<OrgSpec> &specs,
          const std::vector<WorkloadProfile> &suite,
          const SimLength &length)
{
    return globalRunEngine().runSuites(specs, suite, length);
}

void
touchSharedSimulationState()
{
    (void)sharedModel();
    (void)TechParams::the70nm();
    (void)workloadSuite();
}

double
meanRelativePerformance(const std::vector<RunMetrics> &runs,
                        const std::vector<RunMetrics> &base)
{
    panic_if(runs.size() != base.size(),
             "relative performance over mismatched suites");
    if (runs.empty())
        return 1.0;
    double log_sum = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        panic_if(base[i].ipc <= 0, "base run with zero IPC");
        log_sum += std::log(runs[i].ipc / base[i].ipc);
    }
    return std::exp(log_sum / runs.size());
}

} // namespace nurapid
