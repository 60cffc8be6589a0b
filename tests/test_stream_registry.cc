/**
 * @file
 * Stream-registry tests: eviction must be safe while lookups run on
 * other threads, and the trace disk cache must hold distilled .dtc
 * streams only — a cold run writes one .dtc and nothing else, and a
 * warm run replays it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "sim/runner/run_cache.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/profiles.hh"
#include "trace/stream_registry.hh"

namespace nurapid {
namespace {

namespace fs = std::filesystem;

TEST(StreamRegistry, InFlightOrHeldEntriesAreNeverDropped)
{
    StreamRegistry<int> reg;
    std::promise<void> entered, go;
    std::shared_future<void> go_f = go.get_future().share();
    std::thread filler([&] {
        (void)reg.get("k", [&](std::shared_ptr<const int> &buf) {
            entered.set_value();
            go_f.wait();
            buf = std::make_shared<const int>(7);
        });
    });
    entered.get_future().wait();
    // The filler holds the entry but has not produced a stream yet.
    EXPECT_EQ(reg.dropUnused(), 0u);
    go.set_value();
    filler.join();

    auto held = reg.get("k", [](std::shared_ptr<const int> &) {});
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(*held, 7);
    EXPECT_EQ(reg.dropUnused(), 0u) << "a held stream must stay";
    held.reset();
    EXPECT_EQ(reg.dropUnused(), 1u);
    EXPECT_EQ(reg.dropUnused(), 0u);
}

TEST(StreamRegistry, ConcurrentLookupsAndEvictionsAreSafe)
{
    // A distinct seed mix keeps this test's registry entries disjoint
    // from every other test in the binary. Two cut lists give the
    // registry two live keys for the same workload.
    constexpr std::uint64_t kMix = 55;
    constexpr std::uint64_t kRecords = 3'000;
    constexpr int kWorkers = 3;
    constexpr int kRounds = 40;
    const WorkloadProfile prof = findProfile("mgrid");
    const std::vector<std::vector<std::uint64_t>> cut_lists{
        {1'000, kRecords}, {2'000, kRecords}};
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    std::vector<std::unique_ptr<const DistilledTrace>> refs;
    for (const auto &cuts : cut_lists) {
        refs.push_back(std::make_unique<const DistilledTrace>(
            prof, kRecords, cuts, params, kMix));
    }
    const auto same = [](const DistilledTrace &a, const DistilledTrace &b) {
        return a.size() == b.size() && a.eventCount() == b.eventCount() &&
            a.cutList() == b.cutList() &&
            std::memcmp(a.gapData(), b.gapData(), a.size()) == 0 &&
            std::memcmp(a.eventData(), b.eventData(),
                        a.eventCount() * sizeof(DistilledTrace::Event)) ==
            0;
    };

    std::atomic<int> running{kWorkers};
    std::atomic<int> bad{0};
    auto worker = [&](int id) {
        for (int i = 0; i < kRounds; ++i) {
            const std::size_t c = (i + id) % cut_lists.size();
            const auto dt = sharedDistilledTrace(prof, kRecords,
                                                 cut_lists[c], params, kMix);
            if (!same(*dt, *refs[c]))
                bad.fetch_add(1);
        }
        running.fetch_sub(1);
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t)
        pool.emplace_back(worker, t);
    std::thread evictor([&] {
        while (running.load() > 0) {
            dropUnusedDistilledTraces();
            std::this_thread::yield();
        }
    });
    for (auto &th : pool)
        th.join();
    evictor.join();
    EXPECT_EQ(bad.load(), 0) << "a lookup returned a wrong stream";
    // Nothing holds a stream any more, so the registry empties out.
    dropUnusedDistilledTraces();
    EXPECT_EQ(dropUnusedDistilledTraces(), 0u);
}

/** A profile whose stream no other test builds (distinct seed). */
WorkloadProfile
isolatedProfile(const char *name, std::uint64_t seed_offset)
{
    WorkloadProfile p = findProfile(name);
    p.seed += seed_offset;
    return p;
}

std::vector<fs::path>
filesWithExtension(const std::string &dir, const char *ext)
{
    std::vector<fs::path> out;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ext)
            out.push_back(e.path());
    }
    return out;
}

ino_t
inodeOf(const fs::path &p)
{
    struct stat st{};
    return ::stat(p.c_str(), &st) == 0 ? st.st_ino : 0;
}

TEST(TraceCacheDir, ColdRunWritesOnlyDtc)
{
    const WorkloadProfile prof = isolatedProfile("applu", 4'242);
    const SimLength len{2'000, 6'000};
    std::string dir = ::testing::TempDir() + "nurapid_dtc_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);
    dropUnusedDistilledTraces();

    // A stale packed-stream file from an older build must be ignored:
    // nothing reads, rewrites or deletes it.
    const fs::path stale = fs::path(dir) / (prof.name + "-stale.trc");
    const std::string stale_bytes = "NRPTRC1 stale packed stream";
    std::ofstream(stale, std::ios::binary) << stale_bytes;

    // A cold run generates and distills in one pass and persists only
    // the distilled stream.
    RunMetrics cold;
    {
        System sys(OrgSpec::baseline(), prof, len);
        cold = sys.runAll();
    }
    const auto dtc = filesWithExtension(dir, ".dtc");
    ASSERT_EQ(dtc.size(), 1u);
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              2)
        << "a cold run must write its .dtc and nothing else";
    EXPECT_EQ(dropUnusedDistilledTraces(), 1u);

    // A warm run maps the .dtc instead of rewriting it (a rewrite
    // lands through a rename, under a new inode) and replays it to
    // the same metrics.
    const ino_t dtc_inode = inodeOf(dtc.front());
    RunMetrics warm;
    {
        System sys(OrgSpec::baseline(), prof, len);
        warm = sys.runAll();
    }
    EXPECT_EQ(inodeOf(dtc.front()), dtc_inode)
        << "a valid .dtc must be loaded, not regenerated";
    EXPECT_TRUE(identicalMetrics(cold, warm));
    std::ifstream in(stale, std::ios::binary);
    const std::string after((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(after, stale_bytes) << "the stale .trc must be untouched";

    dropUnusedDistilledTraces();
    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
    fs::remove_all(dir);
}

} // namespace
} // namespace nurapid
