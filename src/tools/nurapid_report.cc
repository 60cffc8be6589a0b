/**
 * @file
 * Renders the observability exports as terminal reports: ASCII
 * timelines over the interval-metrics JSONL (how IPC, hit share,
 * latency, occupancy, movement and energy evolve across epochs), a
 * Figure-4/5-style end-of-run hit-distribution table, a
 * Figure-10-style energy-breakdown table, and a kind summary over an
 * event-stream JSONL. Malformed or truncated input files produce a
 * one-line error and a nonzero exit, never a garbage render.
 *
 * Examples:
 *   nurapid_sim --org nurapid --benchmark mcf \
 *               --metrics-out mcf.metrics.jsonl \
 *               --trace-out mcf.events.jsonl
 *   nurapid_report mcf.metrics.jsonl
 *   nurapid_report --events mcf.events.jsonl
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/obs/export.hh"

using namespace nurapid;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options] [METRICS_JSONL]\n"
        "  METRICS_JSONL   interval-metrics timeline written by\n"
        "                  nurapid_sim --metrics-out\n"
        "  --events FILE   summarize an event-stream JSONL written by\n"
        "                  nurapid_sim --trace-out\n"
        "  --width N       timeline width in columns (default 64)\n",
        argv0);
}

/** Ten-level intensity ramp, blank = zero. */
const char kLevels[] = " .:-=+*#%@";

/**
 * Renders @p vals as one fixed-width intensity line, averaging
 * neighbouring epochs down to @p width columns and scaling against the
 * series maximum (an all-zero series renders blank).
 */
std::string
sparkline(const std::vector<double> &vals, std::size_t width)
{
    if (vals.empty() || width == 0)
        return "";
    std::vector<double> cols;
    if (vals.size() <= width) {
        cols = vals;
    } else {
        cols.resize(width, 0.0);
        std::vector<std::size_t> counts(width, 0);
        for (std::size_t i = 0; i < vals.size(); ++i) {
            const std::size_t c = i * width / vals.size();
            cols[c] += vals[i];
            ++counts[c];
        }
        for (std::size_t c = 0; c < width; ++c) {
            if (counts[c])
                cols[c] /= static_cast<double>(counts[c]);
        }
    }
    const double top = *std::max_element(cols.begin(), cols.end());
    std::string out;
    out.reserve(cols.size());
    const std::size_t ramp = sizeof(kLevels) - 2;  // last index
    for (double v : cols) {
        std::size_t lvl = 0;
        if (top > 0 && v > 0) {
            lvl = 1 + static_cast<std::size_t>(
                v / top * static_cast<double>(ramp - 1));
            lvl = std::min(lvl, ramp);
        }
        out.push_back(kLevels[lvl]);
    }
    return out;
}

void
printSeries(const char *name, const std::vector<double> &vals,
            std::size_t width, int decimals)
{
    if (vals.empty())
        return;
    const double lo = *std::min_element(vals.begin(), vals.end());
    const double hi = *std::max_element(vals.begin(), vals.end());
    std::printf("  %-14s |%s|  min %s  max %s  last %s\n", name,
                sparkline(vals, width).c_str(),
                TextTable::num(lo, decimals).c_str(),
                TextTable::num(hi, decimals).c_str(),
                TextTable::num(vals.back(), decimals).c_str());
}

std::uint64_t
counterOf(const Json &snap, const char *name)
{
    return snap.get("counters").get(name).asUint();
}

/** Per-epoch delta of a cumulative counter across the timeline. */
std::vector<double>
counterDeltas(const std::vector<Json> &epochs, const char *name)
{
    std::vector<double> out;
    for (std::size_t i = 1; i < epochs.size(); ++i) {
        out.push_back(static_cast<double>(
            counterOf(epochs[i], name) - counterOf(epochs[i - 1], name)));
    }
    return out;
}

/**
 * Structural validation of a parsed timeline before rendering: a
 * truncated or hand-edited file must produce a one-line error and a
 * nonzero exit, not out-of-range indexing or garbage series from
 * unsigned-counter underflow. Returns an empty string when sound.
 */
std::string
validateTimeline(const std::vector<Json> &epochs)
{
    std::uint64_t prev_refs = 0, prev_cycles = 0;
    std::size_t regions = epochs.empty()
        ? 0
        : epochs.front().get("region_hits").size();
    std::size_t occ_regions = epochs.empty()
        ? 0
        : epochs.front().get("occupancy").size();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const Json &e = epochs[i];
        if (!e.isObject())
            return strprintf("epoch %zu is not an object", i);
        for (const char *k :
             {"refs", "cycles", "instructions", "counters",
              "region_hits", "occupancy"}) {
            if (!e.has(k))
                return strprintf("epoch %zu is missing '%s' "
                                 "(truncated line?)", i, k);
        }
        if (e.get("region_hits").size() != regions)
            return strprintf("epoch %zu has %zu region_hits entries, "
                             "epoch 0 has %zu", i,
                             e.get("region_hits").size(), regions);
        if (e.get("occupancy").size() != occ_regions)
            return strprintf("epoch %zu has %zu occupancy entries, "
                             "epoch 0 has %zu", i,
                             e.get("occupancy").size(), occ_regions);
        const std::uint64_t refs = e.get("refs").asUint();
        const std::uint64_t cycles = e.get("cycles").asUint();
        if (i > 0 && (refs < prev_refs || cycles < prev_cycles))
            return strprintf("epoch %zu goes backwards (refs %llu -> "
                             "%llu, cycles %llu -> %llu)", i,
                             static_cast<unsigned long long>(prev_refs),
                             static_cast<unsigned long long>(refs),
                             static_cast<unsigned long long>(prev_cycles),
                             static_cast<unsigned long long>(cycles));
        prev_refs = refs;
        prev_cycles = cycles;
    }
    return "";
}

/** energy object field of one epoch, 0 when the series is absent. */
double
energyOf(const Json &snap, const char *field)
{
    return snap.get("energy").get(field).asDouble();
}

int
reportMetrics(const std::string &path, std::size_t width)
{
    MetricsDoc doc;
    std::string err;
    if (!readJsonlFile(path, doc, &err)) {
        std::fprintf(stderr, "nurapid_report: %s\n", err.c_str());
        return 1;
    }
    if (doc.meta.get("meta").asString() != "nurapid-metrics") {
        std::fprintf(stderr,
                     "nurapid_report: %s is not a metrics timeline "
                     "(meta '%s')\n", path.c_str(),
                     doc.meta.get("meta").asString().c_str());
        return 1;
    }
    if (doc.epochs.size() < 2) {
        std::fprintf(stderr,
                     "nurapid_report: %s has no completed epochs\n",
                     path.c_str());
        return 1;
    }
    const std::string bad = validateTimeline(doc.epochs);
    if (!bad.empty()) {
        std::fprintf(stderr,
                     "nurapid_report: %s is not a sound timeline: %s\n",
                     path.c_str(), bad.c_str());
        return 1;
    }

    const Json &last = doc.epochs.back();
    std::printf("%s on %s: %zu epochs of %llu refs "
                "(%llu refs, %llu cycles measured)\n",
                doc.meta.get("workload").asString().c_str(),
                doc.meta.get("organization").asString().c_str(),
                doc.epochs.size() - 1,
                static_cast<unsigned long long>(
                    doc.meta.get("interval").asUint()),
                static_cast<unsigned long long>(
                    last.get("refs").asUint()),
                static_cast<unsigned long long>(
                    last.get("cycles").asUint()));
    if (doc.meta.get("run_cache_bypassed").asBool()) {
        std::printf("note: observed run, simulated fresh (observed "
                    "runs bypass the run cache)\n");
    }

    // Per-epoch derived series (adjacent-snapshot differences).
    std::vector<double> ipc, hit_share, avg_lat, p95;
    for (std::size_t i = 1; i < doc.epochs.size(); ++i) {
        const Json &a = doc.epochs[i - 1];
        const Json &b = doc.epochs[i];
        const double dcyc = static_cast<double>(
            b.get("cycles").asUint() - a.get("cycles").asUint());
        const double dinst = static_cast<double>(
            b.get("instructions").asUint() -
            a.get("instructions").asUint());
        ipc.push_back(dcyc > 0 ? dinst / dcyc : 0.0);
        const double acc =
            static_cast<double>(b.get("epoch_accesses").asUint());
        hit_share.push_back(
            acc > 0 ? b.get("epoch_hits").asUint() / acc : 0.0);
        avg_lat.push_back(b.get("epoch_avg_latency").asDouble());
        p95.push_back(
            static_cast<double>(b.get("epoch_lat_p95").asUint()));
    }

    std::printf("\nper-epoch timelines:\n");
    printSeries("IPC", ipc, width, 3);
    printSeries("L2 hit share", hit_share, width, 3);
    printSeries("avg latency", avg_lat, width, 1);
    printSeries("p95 latency", p95, width, 0);
    if (last.get("counters").has("demotions"))
        printSeries("demotions", counterDeltas(doc.epochs, "demotions"),
                    width, 0);
    if (last.get("counters").has("promotions"))
        printSeries("promotions",
                    counterDeltas(doc.epochs, "promotions"), width, 0);

    // Energy phase behaviour: per-epoch deltas of the cumulative
    // attribution the recorder sampled from the EnergyBreakdown.
    if (last.has("energy")) {
        std::vector<double> cache_nj, lower_nj;
        for (std::size_t i = 1; i < doc.epochs.size(); ++i) {
            cache_nj.push_back(energyOf(doc.epochs[i], "total_nj") -
                               energyOf(doc.epochs[i - 1], "total_nj"));
            lower_nj.push_back(energyOf(doc.epochs[i], "lower_nj") -
                               energyOf(doc.epochs[i - 1], "lower_nj"));
        }
        std::printf("\nper-epoch energy (nJ):\n");
        printSeries("L2 cache", cache_nj, width, 0);
        printSeries("lower memory", lower_nj, width, 0);
    }

    const Json &occ = last.get("occupancy");
    if (occ.isArray() && occ.size() > 0) {
        std::printf("\nregion occupancy (valid blocks over time):\n");
        for (std::size_t r = 0; r < occ.size(); ++r) {
            std::vector<double> series;
            for (std::size_t i = 1; i < doc.epochs.size(); ++i) {
                series.push_back(static_cast<double>(
                    doc.epochs[i].get("occupancy").at(r).asUint()));
            }
            printSeries(strprintf("region %zu", r).c_str(), series,
                        width, 0);
        }
    }

    // Figure 4/5 style: where demand hits landed, end of run.
    const std::uint64_t demand = counterOf(last, "demand_accesses") +
        counterOf(last, "accesses");
    const std::uint64_t misses =
        counterOf(last, "misses") + counterOf(last, "memory_fills");
    const Json &hits = last.get("region_hits");
    std::printf("\nhit distribution over latency regions "
                "(end of run):\n");
    TextTable t;
    t.header({"region", "hits", "share of demand"});
    for (std::size_t r = 0; r < hits.size(); ++r) {
        const std::uint64_t h = hits.at(r).asUint();
        t.row({strprintf("region %zu", r), std::to_string(h),
               demand ? TextTable::pct(static_cast<double>(h) / demand)
                      : "-"});
    }
    t.row({"miss", std::to_string(misses),
           demand ? TextTable::pct(static_cast<double>(misses) / demand)
                  : "-"});
    t.print();

    // Figure 10 style: where the dynamic energy went, end of run.
    if (last.has("energy")) {
        const Json &data = last.get("energy").get("data_nj");
        const double tag = energyOf(last, "tag_nj");
        const double swap = energyOf(last, "swap_nj");
        const double wb = energyOf(last, "writeback_nj");
        const double cache = energyOf(last, "total_nj");
        const double lower = energyOf(last, "lower_nj");
        const double total = cache + lower;
        std::printf("\nenergy breakdown (end of run):\n");
        TextTable e;
        e.header({"component", "nJ", "share"});
        auto erow = [&](const std::string &name, double nj) {
            if (nj <= 0)
                return;
            e.row({name, TextTable::num(nj, 0),
                   total > 0 ? TextTable::pct(nj / total) : "-"});
        };
        erow("tag probes", tag);
        for (std::size_t r = 0; r < data.size(); ++r)
            erow(strprintf("data region %zu", r), data.at(r).asDouble());
        erow("swaps/promotions", swap);
        erow("writeback absorbs", wb);
        erow("L2 cache total", cache);
        erow("lower memory", lower);
        e.print();
    }
    return 0;
}

int
reportEvents(const std::string &path)
{
    MetricsDoc doc;
    std::string err;
    if (!readJsonlFile(path, doc, &err)) {
        std::fprintf(stderr, "nurapid_report: %s\n", err.c_str());
        return 1;
    }
    if (doc.meta.get("meta").asString() != "nurapid-events") {
        std::fprintf(stderr,
                     "nurapid_report: %s is not an event stream "
                     "(meta '%s')\n", path.c_str(),
                     doc.meta.get("meta").asString().c_str());
        return 1;
    }

    std::map<std::string, std::uint64_t> kinds;
    std::uint64_t dirty_evictions = 0;
    for (const Json &e : doc.epochs) {
        ++kinds[e.get("kind").asString()];
        if (e.get("kind").asString() == "eviction" &&
            e.get("dirty").asBool()) {
            ++dirty_evictions;
        }
    }

    std::printf("%s on %s: %zu events in file (%llu recorded, "
                "%llu overwritten)\n",
                doc.meta.get("workload").asString().c_str(),
                doc.meta.get("organization").asString().c_str(),
                doc.epochs.size(),
                static_cast<unsigned long long>(
                    doc.meta.get("recorded").asUint()),
                static_cast<unsigned long long>(
                    doc.meta.get("dropped").asUint()));

    TextTable t;
    t.header({"kind", "count", "share"});
    for (const auto &[kind, count] : kinds) {
        t.row({kind, std::to_string(count),
               TextTable::pct(static_cast<double>(count) /
                              static_cast<double>(doc.epochs.size()))});
    }
    t.print();
    if (dirty_evictions)
        std::printf("dirty evictions: %llu\n",
                    static_cast<unsigned long long>(dirty_evictions));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string metrics_path;
    std::string events_path;
    std::size_t width = 64;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--events") {
            if (i + 1 >= argc)
                fatal("--events needs a value");
            events_path = argv[++i];
        } else if (arg == "--width") {
            if (i + 1 >= argc)
                fatal("--width needs a value");
            const long v = std::strtol(argv[++i], nullptr, 10);
            if (v < 8 || v > 4096)
                fatal("--width must be in [8, 4096]");
            width = static_cast<std::size_t>(v);
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
            fatal("unknown option '%s'", arg.c_str());
        } else {
            metrics_path = arg;
        }
    }

    if (metrics_path.empty() && events_path.empty()) {
        usage(argv[0]);
        return 1;
    }
    int rc = 0;
    if (!metrics_path.empty())
        rc = reportMetrics(metrics_path, width);
    if (rc == 0 && !events_path.empty())
        rc = reportEvents(events_path);
    return rc;
}
