#include "layers.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "sim/runner/run_cache.hh"
#include "trace/distilled_trace.hh"
#include "trace/packed_trace.hh"

namespace perfbench {

using namespace nurapid;

namespace {

double
msSince(Clock::time_point t0)
{
    return 1e3 * secondsBetween(t0, Clock::now());
}

struct ProbeConfig
{
    const char *label;       //!< metric suffix
    const char *module;      //!< source module of the organization
    const char *access_key;  //!< access_ns metric name, or null
    OrgSpec spec;
};

std::vector<ProbeConfig>
probeConfigs()
{
    return {
        {"base", "mem", "mem.base.access_ns", OrgSpec::baseline()},
        {"snuca", "nuca", "nuca.snuca.access_ns", OrgSpec::snucaDefault()},
        {"dnuca", "nuca", "nuca.dnuca.access_ns",
         OrgSpec::dnucaSsPerformance()},
        {"saplace", "nurapid", "nurapid.saplace.access_ns",
         OrgSpec::coupledSA()},
        {"nurapid.dg2", "nurapid", nullptr, OrgSpec::nurapidDefault(2)},
        {"nurapid.dg4", "nurapid", "nurapid.nurapid.access_ns",
         OrgSpec::nurapidDefault(4)},
        {"nurapid.dg8", "nurapid", nullptr, OrgSpec::nurapidDefault(8)},
    };
}

/**
 * Feeds the L1 misses (and the dirty L1 victims written back ahead of
 * them) of events [@p begin, @p end) into @p org, in stream order, the
 * way the core's miss path issues them. The access clock advances by
 * @p cycles_per_record per trace record. Returns the access count.
 */
std::uint64_t
replayEvents(LowerMemory &org, const DistilledTrace::Event *begin,
             const DistilledTrace::Event *end, double cycles_per_record,
             Addr block_mask)
{
    using DT = DistilledTrace;
    std::uint64_t calls = 0;
    for (const DT::Event *e = begin; e != end; ++e) {
        if (!(e->flags & DT::kL1Miss))
            continue;
        const auto now =
            static_cast<Cycle>(e->rec * cycles_per_record);
        if (e->flags & DT::kWriteback) {
            org.access(e->evicted_addr, AccessType::Writeback, now);
            ++calls;
        }
        const AccessType type = (e->flags & DT::kStore)
            ? AccessType::Write : AccessType::Read;
        org.access(e->addr & block_mask, type, now);
        ++calls;
    }
    return calls;
}

double
perAccess(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

std::vector<std::uint64_t>
segmentCuts(const SimLength &length)
{
    // Mirrors System's constructor: the warmup boundary (when it
    // splits the run) and the end of the run.
    const std::uint64_t total =
        length.warmup_records + length.measure_records;
    std::vector<std::uint64_t> cuts;
    if (length.warmup_records > 0 && length.warmup_records < total)
        cuts.push_back(length.warmup_records);
    cuts.push_back(total);
    return cuts;
}

DistillParams
distillParamsOf(System &sys)
{
    DistillParams dp;
    dp.l1i = sys.l1i().org();
    dp.l1d = sys.l1d().org();
    dp.bp_entries = sys.core().branchPredictor().entries();
    dp.bp_history_bits = sys.core().branchPredictor().historyBits();
    dp.mshr_block_bytes = sys.core().params().mshr_block_bytes;
    return dp;
}

void
probeSimLayers(const WorkloadProfile &profile, const SimLength &length,
               SpanLog &log, std::vector<Metric> &out,
               std::vector<RunMetrics> &runs, double &base_construct_ms)
{
    const std::uint64_t total =
        length.warmup_records + length.measure_records;
    Span probe(log, "bench sim-probe " + profile.name);

    // Warm the registries for this profile and keep them pinned, so
    // every timed construction below finds its streams resident.
    std::shared_ptr<const PackedTrace> packed;
    std::shared_ptr<const DistilledTrace> distilled;
    Addr block_mask = 0;
    {
        Span s(log, "trace warm " + profile.name);
        packed = sharedPackedTrace(profile, total);
        System sys(OrgSpec::baseline(), profile, length);
        const DistillParams dp = distillParamsOf(sys);
        distilled = sharedDistilledTrace(profile, total,
                                         segmentCuts(length), dp);
        block_mask = ~static_cast<Addr>(dp.mshr_block_bytes - 1);
    }
    const DistilledTrace::Event *ev = distilled->eventData();
    const DistilledTrace::Event *ev_end = ev + distilled->eventCount();
    const DistilledTrace::Event *ev_measure = std::partition_point(
        ev, ev_end, [&](const DistilledTrace::Event &e) {
            return e.rec < length.warmup_records;
        });
    const auto measure_events =
        static_cast<std::uint64_t>(ev_end - ev_measure);

    double self_ns_per_ref_sum = 0;
    int self_ns_per_ref_n = 0;
    const std::vector<ProbeConfig> configs = probeConfigs();
    for (std::size_t id = 0; id < configs.size(); ++id) {
        const ProbeConfig &cfg = configs[id];
        const auto cid = static_cast<std::int64_t>(id);
        Span cspan(log, std::string("sim config ") + cfg.label, cid);

        auto t = Clock::now();
        std::unique_ptr<System> sys;
        {
            Span s(log, std::string("sim construct ") + cfg.label, cid);
            sys = std::make_unique<System>(cfg.spec, profile, length);
        }
        const double construct_ms = msSince(t);
        t = Clock::now();
        {
            Span s(log, std::string("sim warmup ") + cfg.label, cid);
            sys->warmup();
        }
        const double warmup_ms = msSince(t);
        t = Clock::now();
        {
            Span s(log, std::string("sim measure ") + cfg.label, cid);
            sys->measure();
        }
        const double measure_ms = msSince(t);
        RunMetrics m;
        {
            Span s(log, std::string("sim metrics ") + cfg.label, cid);
            m = sys->metrics();
        }
        sys.reset();

        // The same events through the organization alone: what is
        // left of measure_ms is the core's own replay work.
        const double cpr = length.measure_records
            ? static_cast<double>(m.cycles) / length.measure_records
            : 1.0;
        std::unique_ptr<LowerMemory> org = makeOrganization(cfg.spec);
        {
            Span s(log, std::string(cfg.module) + " replay-warmup " +
                         cfg.label, cid);
            replayEvents(*org, ev, ev_measure, cpr, block_mask);
            org->resetStats();
        }
        t = Clock::now();
        std::uint64_t calls = 0;
        {
            Span s(log, std::string(cfg.module) + " access " + cfg.label,
                   cid);
            calls = replayEvents(*org, ev_measure, ev_end, cpr,
                                 block_mask);
        }
        const double replay_ms = msSince(t);

        const std::string sfx = cfg.label;
        out.push_back({"sim.construct_ms." + sfx, construct_ms, "ms"});
        out.push_back({"sim.warmup_ms." + sfx, warmup_ms, "ms"});
        out.push_back({"sim.measure_ms." + sfx, measure_ms, "ms"});
        out.push_back({"sim.ns_per_event." + sfx,
                       1e6 * measure_ms / std::max<std::uint64_t>(
                           measure_events, 1),
                       "ns"});
        out.push_back({"cpu.self_ms." + sfx, measure_ms - replay_ms,
                       "ms"});
        if (cfg.access_key) {
            out.push_back({cfg.access_key,
                           1e6 * replay_ms / std::max<std::uint64_t>(
                               calls, 1),
                           "ns"});
            self_ns_per_ref_sum += 1e6 * (measure_ms - replay_ms) /
                std::max<std::uint64_t>(length.measure_records, 1);
            ++self_ns_per_ref_n;
        }
        if (sfx == "base")
            base_construct_ms = construct_ms;
        if (sfx == "dnuca") {
            out.push_back({"nuca.dnuca.moves_per_access",
                           perAccess(m.block_moves, m.l2_demand),
                           "ratio"});
        }
        if (sfx == "nurapid.dg4") {
            out.push_back({"nurapid.moves_per_access",
                           perAccess(m.block_moves, m.l2_demand),
                           "ratio"});
            out.push_back({"nurapid.region0_frac",
                           m.region_frac.empty() ? 0.0 : m.region_frac[0],
                           "ratio"});
        }
        runs.push_back(std::move(m));
    }
    out.push_back({"cpu.ns_per_ref",
                   self_ns_per_ref_sum / std::max(self_ns_per_ref_n, 1),
                   "ns"});
}

void
probeRunCache(const std::vector<RunRequest> &requests,
              const std::vector<RunMetrics> &results, unsigned jobs,
              const std::string &path, SpanLog &log,
              std::vector<Metric> &out, std::vector<RunMetrics> &warm)
{
    Span probe(log, "sim/runner cache-probe");
    std::vector<RunKey> keys;
    keys.reserve(requests.size());
    for (const RunRequest &r : requests)
        keys.push_back(fingerprintRun(r.spec, r.profile, r.length));

    {
        RunCache cache;
        {
            Span s(log, "sim/runner cache-store");
            for (std::size_t i = 0; i < keys.size(); ++i)
                cache.store(keys[i], results[i]);
        }
        const auto t = Clock::now();
        bool saved = false;
        {
            Span s(log, "sim/runner cache-save");
            saved = cache.saveFile(path);
        }
        out.push_back({"runner.cache_save_ms", msSince(t), "ms"});
        if (!saved)
            warn("perfbench: could not save run cache %s", path.c_str());
    }

    RunCache loaded;
    auto t = Clock::now();
    {
        Span s(log, "sim/runner cache-load");
        loaded.loadFile(path);
    }
    out.push_back({"runner.cache_load_ms", msSince(t), "ms"});

    std::size_t found = 0;
    t = Clock::now();
    {
        Span s(log, "sim/runner cache-lookup");
        RunMetrics m;
        for (const RunKey &k : keys)
            found += loaded.lookup(k, m) ? 1 : 0;
    }
    out.push_back({"runner.cache_lookup_us",
                   1e3 * msSince(t) / std::max<std::size_t>(keys.size(), 1),
                   "us"});
    if (found != keys.size())
        warn("perfbench: %zu of %zu keys missing after reload",
             keys.size() - found, keys.size());

    RunEngineOptions opts;
    opts.jobs = jobs;
    opts.use_cache = true;
    opts.cache_file = path;
    RunEngine engine(opts);
    t = Clock::now();
    {
        Span s(log, "sim/runner warm-batch");
        warm = engine.runMany(requests);
    }
    out.push_back({"runner.warm_batch_ms", msSince(t), "ms"});
    out.push_back({"runner.cache_hit_frac",
                   perAccess(engine.cacheHits(), requests.size()),
                   "ratio"});
}

} // namespace perfbench
