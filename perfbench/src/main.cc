/**
 * @file
 * perfbench: host-time benchmark of the NuRAPID simulator.
 *
 *   nurapid_perfbench --workload NAME [--seed N] [--seconds S]
 *                     [--trace 0|1] [--work-dir DIR] [--out-dir DIR]
 *                     [--commit SHA] [--expect-digest HEX]
 *                     [--smoke] [--corrupt]
 *
 * Runs one named workload through the simulator's public entry points,
 * checks every simulated result, and prints the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1); the last line of
 * standard output is one JSON object. README.md beside this program
 * describes the workloads and metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "common/json.hh"
#include "layers.hh"
#include "sim/runner/run_engine.hh"
#include "spans.hh"
#include "trace/distilled_trace.hh"
#include "trace/packed_trace.hh"
#include "trace/profiles.hh"

extern char **environ;

namespace perfbench {

namespace {

using namespace nurapid;
namespace fs = std::filesystem;

/** Set-up passes per untraced run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Environment variable through which the simulator's trace registries
 *  persist streams to disk (set by base_serial_disk only). */
constexpr const char *kTraceDirVar = "NURAPID_TRACE_CACHE_DIR";

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool corrupt = false;
    std::string work_dir = ".bench_build/perfbench-work";
    std::string out_dir = ".bench_build/perfbench-out";
    std::string commit = "unknown";
    std::string expect_digest;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
        "perfbench: %s\n"
        "usage: nurapid_perfbench --workload paper_orgs|nurapid_dse|"
        "base_serial_disk\n"
        "         [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]\n"
        "         [--out-dir DIR] [--commit SHA] [--expect-digest HEX]\n"
        "         [--smoke] [--corrupt]\n",
        msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        auto number = [&](const std::string &v) {
            char *end = nullptr;
            const double d = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(d >= 0))
                usage("bad value '" + v + "' for " + arg);
            return d;
        };
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("bad seed '" + v + "'");
        } else if (arg == "--seconds") {
            a.seconds = number(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--work-dir") {
            a.work_dir = value();
        } else if (arg == "--out-dir") {
            a.out_dir = value();
        } else if (arg == "--commit") {
            a.commit = value();
        } else if (arg == "--expect-digest") {
            a.expect_digest = value();
        } else if (arg == "--smoke") {
            a.smoke = true;
        } else if (arg == "--corrupt") {
            a.corrupt = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** The benchmark measures the program's defaults: no NURAPID_* knob
 *  may steer it. Returns the offending variable names. */
std::vector<std::string>
simulatorKnobsSet()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "NURAPID_", 8) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? eq - *e : std::strlen(*e));
        }
    }
    return names;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** @p p with the workload seed mixed into its stream seed; seed 0
 *  leaves the paper's stream untouched. */
WorkloadProfile
seeded(const WorkloadProfile &p, std::uint64_t seed)
{
    WorkloadProfile q = p;
    if (seed != 0)
        q.seed = p.seed ^ splitmix64(seed);
    return q;
}

unsigned
availableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
loadAverage1()
{
    double l[1] = {-1};
    return getloadavg(l, 1) == 1 ? l[0] : -1;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
dropRegistries()
{
    dropUnusedPackedTraces();
    dropUnusedDistilledTraces();
}

/** Points the trace registries' disk cache at @p dir (empty = off). */
void
useTraceDir(const std::string &dir)
{
    if (dir.empty())
        ::unsetenv(kTraceDirVar);
    else
        ::setenv(kTraceDirVar, dir.c_str(), 1);
}

struct Workload
{
    std::string name;
    std::vector<WorkloadProfile> profiles;  //!< seed-mixed
    std::vector<RunRequest> requests;
    unsigned jobs = 1;   //!< timed-phase worker threads
    bool disk = false;   //!< base_serial_disk's trace/run-cache files
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const SimLength &length, unsigned parallel_jobs)
{
    Workload w;
    w.name = name;
    std::vector<OrgSpec> specs;
    std::vector<std::string> profile_names;
    if (name == "paper_orgs") {
        specs = {OrgSpec::baseline(), OrgSpec::snucaDefault(),
                 OrgSpec::dnucaSsPerformance(), OrgSpec::coupledSA(),
                 OrgSpec::nurapidDefault(4)};
        for (const auto &p : workloadSuite())
            profile_names.push_back(p.name);
        w.jobs = parallel_jobs;
    } else if (name == "nurapid_dse") {
        for (std::uint32_t dg : {2u, 4u, 8u}) {
            for (PromotionPolicy pp : {PromotionPolicy::DemotionOnly,
                                       PromotionPolicy::NextFastest,
                                       PromotionPolicy::Fastest}) {
                for (DistanceRepl dr : {DistanceRepl::Random,
                                        DistanceRepl::LRU})
                    specs.push_back(OrgSpec::nurapidDefault(dg, pp, dr));
            }
        }
        profile_names = {"mcf", "applu", "equake", "art", "swim",
                         "mgrid"};
        w.jobs = parallel_jobs;
    } else if (name == "base_serial_disk") {
        specs = {OrgSpec::baseline()};
        for (const auto &p : workloadSuite())
            profile_names.push_back(p.name);
        w.jobs = 1;
        w.disk = true;
    } else {
        usage("unknown workload '" + name + "'");
    }
    for (const auto &n : profile_names)
        w.profiles.push_back(seeded(findProfile(n), seed));
    for (const auto &spec : specs) {
        for (const auto &p : w.profiles)
            w.requests.push_back(RunRequest{spec, p, length});
    }
    return w;
}

/** Busy host time of one set-up pass, summed over its profiles. */
struct SetupBusy
{
    double generate_s = 0;    //!< sharedPackedTrace calls
    double distill_s = 0;     //!< first System construction per profile
    double model_init_s = 0;  //!< touchSharedSimulationState
};

/**
 * One set-up pass: the timing model's shared state, then every
 * profile's packed stream (generated, or loaded/written through the
 * disk cache when one is set) and its distilled stream, built by
 * constructing one base System per profile. Profiles fan out over
 * @p threads; the registries keep the streams for the timed phase.
 */
SetupBusy
setupOnce(const Workload &w, const SimLength &length, unsigned threads,
          SpanLog &log)
{
    Span pass(log, "bench setup-pass");
    SetupBusy busy;
    const std::uint64_t total =
        length.warmup_records + length.measure_records;
    {
        Span s(log, "timing model-init");
        const auto t = Clock::now();
        touchSharedSimulationState();
        busy.model_init_s = secondsBetween(t, Clock::now());
    }
    std::vector<double> gen(w.profiles.size()), dist(w.profiles.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= w.profiles.size())
                return;
            const WorkloadProfile &p = w.profiles[k];
            const auto t0 = Clock::now();
            {
                Span s(log, "trace generate " + p.name, -1, pass.id());
                (void)sharedPackedTrace(p, total);
            }
            const auto t1 = Clock::now();
            {
                Span s(log, "trace distill " + p.name, -1, pass.id());
                System sys(OrgSpec::baseline(), p, length);
            }
            gen[k] = secondsBetween(t0, t1);
            dist[k] = secondsBetween(t1, Clock::now());
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &th : pool)
        th.join();
    for (std::size_t k = 0; k < gen.size(); ++k) {
        busy.generate_s += gen[k];
        busy.distill_s += dist[k];
    }
    return busy;
}

/** One pass of the timed phase. */
struct BatchRep
{
    double wall_s = 0;
    double cpu_s = 0;
    double busy_s = 0;  //!< wall_seconds summed over simulated runs
    std::vector<RunMetrics> results;
    std::vector<RunMetrics> warm;  //!< base_serial_disk cache replay
};

BatchRep
runBatch(const Workload &w, const std::string &cache_path, SpanLog &log)
{
    BatchRep rep;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    {
        Span batch(log, "sim/runner batch " + w.name);
        if (!w.disk) {
            RunEngineOptions opts;
            opts.jobs = w.jobs;
            opts.use_cache = false;
            RunEngine engine(opts);
            Span s(log, "sim/runner runMany");
            rep.results = engine.runMany(w.requests);
        } else {
            {
                Span s(log, "trace drop-registries");
                dropRegistries();
            }
            std::error_code ec;
            fs::remove(cache_path, ec);
            RunEngineOptions opts;
            opts.jobs = w.jobs;
            opts.use_cache = true;
            opts.cache_file = cache_path;
            {
                RunEngine cold(opts);
                Span s(log, "sim/runner cold-batch (trace load, simulate, "
                            "cache store+save)");
                rep.results = cold.runMany(w.requests);
            }
            std::unique_ptr<RunEngine> warm;
            {
                Span s(log, "sim/runner cache-load (engine construct)");
                warm = std::make_unique<RunEngine>(opts);
            }
            Span s(log, "sim/runner warm-batch");
            rep.warm = warm->runMany(w.requests);
        }
    }
    rep.wall_s = secondsBetween(t0, Clock::now());
    rep.cpu_s = cpuSeconds() - cpu0;
    for (const RunMetrics &m : rep.results) {
        if (!m.from_cache)
            rep.busy_s += m.wall_seconds;
    }
    return rep;
}

/** Tallies checked runs and failures across the whole benchmark. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> why;

    void
    add(const std::vector<char> &bad)
    {
        attempted += bad.size();
        failed += static_cast<std::uint64_t>(
            std::count(bad.begin(), bad.end(), 1));
    }
};

/** Checks one timed-phase pass; @p first is pass 0's results. */
void
checkRep(const Workload &w, const BatchRep &rep,
         const std::vector<RunMetrics> *first, Tally &tally)
{
    std::vector<char> bad(rep.results.size(), 0);
    checkBatch(w.requests, rep.results, bad, tally.why);
    if (first)
        markDifferent(*first, rep.results, "differs from the first pass",
                      bad, tally.why);
    tally.add(bad);
    if (w.disk) {
        std::vector<char> warm_bad(rep.warm.size(), 0);
        markDifferent(rep.results, rep.warm,
                      "cache replay is not identical to the simulated "
                      "result", warm_bad, tally.why);
        for (std::size_t i = 0; i < rep.warm.size(); ++i) {
            if (!rep.warm[i].from_cache) {
                warm_bad[i] = 1;
                tally.why.push_back(rep.warm[i].workload + " / " +
                                    rep.warm[i].organization +
                                    ": cache replay missed the run cache");
            }
        }
        tally.add(warm_bad);
    }
}

/** Runs timed passes until @p budget seconds have elapsed (at least
 *  one); pass 0's results are kept in @p first. */
std::vector<BatchRep>
timedPasses(const Workload &w, double budget, const std::string &cache_path,
            bool corrupt, SpanLog &log, std::vector<RunMetrics> &first,
            Tally &tally)
{
    std::vector<BatchRep> reps;
    const auto t0 = Clock::now();
    do {
        BatchRep rep = runBatch(w, cache_path, log);
        const bool first_pass = first.empty();
        if (first_pass)
            first = rep.results;
        if (corrupt && first_pass && !rep.results.empty())
            rep.results.front().l2_hits += 1;  // smoke test's planted bug
        checkRep(w, rep, first_pass ? nullptr : &first, tally);
        rep.results.clear();
        rep.warm.clear();
        reps.push_back(std::move(rep));
    } while (secondsBetween(t0, Clock::now()) < budget);
    return reps;
}

template <class F>
std::vector<double>
collect(const std::vector<BatchRep> &reps, F f)
{
    std::vector<double> v;
    for (const BatchRep &r : reps)
        v.push_back(f(r));
    return v;
}

void
printIpcTable(const Workload &w, const std::vector<RunMetrics> &results)
{
    const std::size_t nprof = w.profiles.size();
    const std::size_t norgs = w.requests.size() / nprof;
    std::printf("IPC per organization (seed-mixed streams):\n");
    for (std::size_t i = 0; i < norgs; ++i)
        std::printf("  column %zu: %s\n", i + 1,
                    w.requests[i * nprof].spec.description().c_str());
    std::printf("%-10s", "workload");
    for (std::size_t i = 0; i < norgs; ++i)
        std::printf(" %8zu", i + 1);
    std::printf("\n");
    for (std::size_t j = 0; j < nprof; ++j) {
        std::printf("%-10s", w.profiles[j].name.c_str());
        for (std::size_t i = 0; i < norgs; ++i)
            std::printf(" %8.3f", results[i * nprof + j].ipc);
        std::printf("\n");
    }
}

/** Traced run: per-layer metrics of the trace, timing, sim, cpu, mem,
 *  nuca, nurapid and sim/runner modules for workload @p w. */
void
tracedRun(const Args &a, const Workload &w, const SimLength &length,
          unsigned setup_threads, const std::string &work,
          std::vector<Metric> &out, Tally &tally,
          std::vector<RunMetrics> &first)
{
    SpanLog log(true);
    SpanLog off(false);
    const std::uint64_t total =
        length.warmup_records + length.measure_records;
    const double nrefs = static_cast<double>(total) * w.profiles.size();

    // Set-up four ways. The process's first pass also pays first-touch
    // page faults for the stream buffers, so it only warms the
    // allocator (and times the timing model's first init). Then the
    // streams are generated in memory, generated and written to a
    // fresh disk cache, and loaded back from it; the pass the timed
    // phase uses (memory, or disk for base_serial_disk) runs last.
    const std::string trace_dir = work + "/traces";
    auto memPass = [&] {
        dropRegistries();
        useTraceDir("");
        return setupOnce(w, length, setup_threads, log);
    };
    auto diskPass = [&](bool fresh) {
        dropRegistries();
        if (fresh) {
            fs::remove_all(trace_dir);
            fs::create_directories(trace_dir);
        }
        useTraceDir(trace_dir);
        return setupOnce(w, length, setup_threads, log);
    };
    const double model_init_s = memPass().model_init_s;
    SetupBusy in_mem, written, loaded;
    if (w.disk) {
        in_mem = memPass();
        written = diskPass(true);
        loaded = diskPass(false);
    } else {
        written = diskPass(true);
        loaded = diskPass(false);
        in_mem = memPass();
        fs::remove_all(trace_dir);
    }

    // Registry footprint and event density of the workload's streams.
    {
        Span s(log, "trace registry-scan");
        System probe(OrgSpec::baseline(), w.profiles.front(), length);
        const DistillParams dp = distillParamsOf(probe);
        double bytes = 0, events = 0;
        for (const WorkloadProfile &p : w.profiles) {
            const auto pk = sharedPackedTrace(p, total);
            const auto dt = sharedDistilledTrace(p, total,
                                                 segmentCuts(length), dp);
            bytes += pk->size() * sizeof(PackedTrace::PackedRecord) +
                dt->size() * sizeof(std::uint16_t) +
                dt->eventCount() * sizeof(DistilledTrace::Event);
            events += static_cast<double>(dt->eventCount());
        }
        out.push_back({"trace.resident_mb", bytes / (1024.0 * 1024.0),
                       "MB"});
        out.push_back({"trace.events_per_kref", 1e3 * events / nrefs,
                       "count"});
    }

    // Timed phase, half the budget untraced and half traced.
    const std::string cache_path = work + "/run-cache.json";
    const auto plain = timedPasses(w, a.seconds / 2, cache_path, false,
                                   off, first, tally);
    std::vector<BatchRep> traced;
    {
        Span s(log, "bench timed-phase");
        traced = timedPasses(w, a.seconds / 2, cache_path, false, log,
                             first, tally);
    }
    const double run_plain =
        median(collect(plain, [](const BatchRep &r) { return r.wall_s; }));
    const double run_traced =
        median(collect(traced, [](const BatchRep &r) { return r.wall_s; }));
    out.push_back({"runner.busy_s",
                   median(collect(traced, [](const BatchRep &r) {
                       return r.busy_s;
                   })),
                   "s"});
    out.push_back({"runner.parallel_eff",
                   median(collect(traced, [&](const BatchRep &r) {
                       return r.busy_s / (r.wall_s * w.jobs);
                   })),
                   "ratio"});
    out.push_back({"bench.trace_overhead_s", run_traced - run_plain, "s"});

    // Run-cache I/O on this workload's batch.
    {
        std::vector<RunMetrics> warm;
        probeRunCache(w.requests, first, w.jobs, work + "/probe-cache.json",
                      log, out, warm);
        std::vector<char> bad(warm.size(), 0);
        markDifferent(first, warm, "run-cache probe replay differs", bad,
                      tally.why);
        tally.add(bad);
    }

    // Simulation and organization layers on the workload's first
    // profile, each System checked against the batch's own result.
    double base_construct_ms = 0;
    {
        const WorkloadProfile &p = w.profiles.front();
        std::vector<RunMetrics> runs;
        probeSimLayers(p, length, log, out, runs, base_construct_ms);
        // checkBatch groups runs by the request's profile.
        const std::vector<RunRequest> reqs(
            runs.size(), RunRequest{OrgSpec::baseline(), p, length});
        std::vector<char> bad(runs.size(), 0);
        checkBatch(reqs, runs, bad, tally.why);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            for (const RunMetrics &b : first) {
                if (b.workload == runs[i].workload &&
                    b.organization == runs[i].organization &&
                    !identicalMetrics(b, runs[i])) {
                    bad[i] = 1;
                    tally.why.push_back(runs[i].workload + " / " +
                                        runs[i].organization +
                                        ": direct System run differs "
                                        "from the engine batch");
                }
            }
        }
        tally.add(bad);
    }

    // Set-up layers. System construction in set-up distills and builds
    // a base organization; the latter is subtracted (derived).
    const double n = static_cast<double>(w.profiles.size());
    const double construct_s = n * base_construct_ms / 1e3;
    out.push_back({"trace.generate_ms", 1e3 * in_mem.generate_s, "ms"});
    out.push_back({"trace.generate_ns_per_ref",
                   1e9 * in_mem.generate_s / nrefs, "ns"});
    const double distill_s = std::max(0.0, in_mem.distill_s - construct_s);
    out.push_back({"trace.distill_ms", 1e3 * distill_s, "ms"});
    out.push_back({"trace.distill_ns_per_ref", 1e9 * distill_s / nrefs,
                   "ns"});
    out.push_back({"trace.write_ms",
                   1e3 * (written.generate_s + written.distill_s -
                          in_mem.generate_s - in_mem.distill_s),
                   "ms"});
    out.push_back({"trace.load_ms",
                   1e3 * (loaded.generate_s + loaded.distill_s -
                          construct_s),
                   "ms"});
    out.push_back({"timing.model_init_ms", 1e3 * model_init_s, "ms"});

    std::printf("energy: charged inside LowerMemory::access, so it cannot "
                "be timed from outside the program; energy attribution "
                "is left to in-program tracing\n");
    std::printf("derived: cpu.self_ms.* = sim.measure_ms - org-only "
                "replay; trace.distill_ms, trace.load_ms subtract base "
                "System construction; trace.write_ms = disk pass - "
                "memory pass\n");
    std::printf("tracing overhead: traced run_s %.4f - untraced run_s "
                "%.4f = %.4f s\n",
                run_traced, run_plain, run_traced - run_plain);

    std::error_code ec;
    fs::create_directories(a.out_dir, ec);
    const std::string spans = a.out_dir + "/" + w.name + "-seed" +
        std::to_string(a.seed) + ".trace.json";
    if (log.writeChromeJson(spans))
        std::printf("spans: %s (Chrome JSON; opens in ui.perfetto.dev)\n",
                    spans.c_str());
    else
        std::printf("spans: could not write %s\n", spans.c_str());
}

/** Untraced run: set-up passes, then the timed phase. */
void
plainRun(const Args &a, const Workload &w, const SimLength &length,
         unsigned setup_threads, const std::string &work,
         Clock::time_point process_start, std::vector<Metric> &out,
         Tally &tally, std::vector<RunMetrics> &first)
{
    SpanLog off(false);
    std::vector<double> setup_s;
    const int reps = a.smoke ? 1 : kSetupReps;
    std::string prev_dir;
    for (int r = 0; r < reps; ++r) {
        dropRegistries();
        if (w.disk) {
            // A fresh trace-cache directory per pass, so every pass
            // generates and writes rather than loads.
            const std::string dir = work + "/traces-" + std::to_string(r);
            fs::create_directories(dir);
            useTraceDir(dir);
            if (!prev_dir.empty())
                fs::remove_all(prev_dir);
            prev_dir = dir;
        }
        // The first pass counts from process start.
        const auto t0 = r == 0 ? process_start : Clock::now();
        setupOnce(w, length, setup_threads, off);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    const auto reps_run = timedPasses(w, a.seconds, work + "/run-cache.json",
                                      a.corrupt, off, first, tally);
    const double run_s = median(
        collect(reps_run, [](const BatchRep &r) { return r.wall_s; }));
    const double cpu_s = median(
        collect(reps_run, [](const BatchRep &r) { return r.cpu_s; }));
    const double refs = static_cast<double>(
        length.warmup_records + length.measure_records) *
        w.requests.size();
    out.push_back({"setup_s", median(setup_s), "s"});
    out.push_back({"run_s", run_s, "s"});
    out.push_back({"cpu_s", cpu_s, "s"});
    out.push_back({"mrefs_per_s", refs / run_s / 1e6, "Mref/s"});
    out.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    std::printf("timed passes (s):");
    for (const BatchRep &r : reps_run)
        std::printf(" %.3f", r.wall_s);
    std::printf("; set-up passes (s):");
    for (double s : setup_s)
        std::printf(" %.3f", s);
    std::printf(" (run_s and setup_s are the medians)\n");
}

int
run(int argc, char **argv)
{
    const auto process_start = Clock::now();
    const Args a = parseArgs(argc, argv);
    if (const auto knobs = simulatorKnobsSet(); !knobs.empty()) {
        std::string list;
        for (const auto &k : knobs)
            list += " " + k;
        std::fprintf(stderr,
                     "perfbench: refusing to run with simulator knobs "
                     "set:%s (the benchmark measures the defaults)\n",
                     list.c_str());
        return 2;
    }

    const double load_start = loadAverage1();
    const unsigned cores = availableCores();
    const unsigned parallel_jobs = std::min(4u, cores);
    SimLength length;  // the simulator's default run length, explicitly
    length.warmup_records = a.smoke ? 5'000 : 1'000'000;
    length.measure_records = a.smoke ? 15'000 : 3'000'000;
    const Workload w = makeWorkload(a.workload, a.seed, length,
                                    parallel_jobs);

    const std::string work = a.work_dir + "/" + w.name + "-" +
        std::to_string(::getpid());
    fs::remove_all(work);
    fs::create_directories(work);

    std::printf("perfbench: workload %s, seed %llu%s, %zu runs per batch, "
                "%u timed-phase job(s), %u set-up thread(s), "
                "%llu+%llu refs per run, %s run\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seed == 0 ? " (the paper's streams)" : "",
                w.requests.size(), w.jobs, parallel_jobs,
                static_cast<unsigned long long>(length.warmup_records),
                static_cast<unsigned long long>(length.measure_records),
                a.trace ? "traced" : "untraced");

    std::vector<Metric> metrics;
    Tally tally;
    std::vector<RunMetrics> first;
    if (a.trace)
        tracedRun(a, w, length, parallel_jobs, work, metrics, tally, first);
    else
        plainRun(a, w, length, parallel_jobs, work, process_start, metrics,
                 tally, first);
    useTraceDir("");
    dropRegistries();
    fs::remove_all(work);

    if (w.name == "paper_orgs")
        printIpcTable(w, first);
    std::printf("simulated seconds per profile, first pass:");
    for (const WorkloadProfile &p : w.profiles) {
        double busy = 0;
        for (const RunMetrics &m : first)
            busy += m.workload == p.name && !m.from_cache ? m.wall_seconds
                                                          : 0.0;
        std::printf(" %s %.2f", p.name.c_str(), busy);
    }
    std::printf("\n");
    const std::string dig = digest(first);
    if (a.expect_digest.empty())
        std::printf("digest: %s\n", dig.c_str());
    else if (dig == a.expect_digest)
        std::printf("digest: %s (matches the reference)\n", dig.c_str());
    else
        std::printf("digest: %s (reference %s: simulated outputs moved; "
                    "reported, not counted as a failure)\n",
                    dig.c_str(), a.expect_digest.c_str());

    const double load_end = loadAverage1();
    const bool noisy =
        load_start > static_cast<double>(cores - w.jobs) + 0.5;
    std::printf("host: nproc %u, load1 start %.2f end %.2f%s, build %s, "
                "lto %s, flags %s, commit %s\n",
                cores, load_start, load_end,
                noisy ? " (NOISY: load at start occupies the cores this "
                        "workload needs)" : "",
                PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "on" : "off",
                PERFBENCH_FLAGS, a.commit.c_str());

    const double failed_frac = tally.attempted
        ? static_cast<double>(tally.failed) / tally.attempted : 1.0;
    std::printf("check: %llu of %llu runs failed (failed_frac %.6f)\n",
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted),
                failed_frac);
    for (std::size_t i = 0; i < tally.why.size() && i < 20; ++i)
        std::printf("  FAILED %s\n", tally.why[i].c_str());

    Json mj = Json::object();
    for (const Metric &m : metrics) {
        std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        Json v = Json::object();
        v.set("value", Json(m.value));
        v.set("unit", Json(m.unit));
        mj.set(m.name, v);
    }
    Json result = Json::object();
    result.set("correct", Json(tally.failed == 0 && tally.attempted > 0));
    result.set("attempted", Json(static_cast<std::uint64_t>(
                                std::max<std::uint64_t>(tally.attempted,
                                                        1))));
    result.set("failed", Json(tally.failed));
    result.set("metrics", mj);
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
