/**
 * @file
 * Stream-registry tests: eviction must be safe while lookups run on
 * other threads, a packed stream must live only until it is distilled
 * (unless a caller pins it), and a valid .dtc must make the packed
 * stream and its .trc unnecessary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "sim/runner/run_cache.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/packed_trace.hh"
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
    EXPECT_FALSE(reg.release("k"));
    go.set_value();
    filler.join();

    auto held = reg.get("k", [](std::shared_ptr<const int> &) {});
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(*held, 7);
    EXPECT_FALSE(reg.release("k")) << "a held stream must stay";
    EXPECT_FALSE(reg.release("other"));
    held.reset();
    EXPECT_TRUE(reg.release("k"));
    EXPECT_EQ(reg.dropUnused(), 0u);
}

TEST(StreamRegistry, ConcurrentLookupsAndEvictionsAreSafe)
{
    // A distinct seed mix keeps this test's registry entries disjoint
    // from every other test in the binary.
    constexpr std::uint64_t kMix = 55;
    constexpr std::uint64_t kRecords = 3'000;
    constexpr int kWorkers = 3;
    constexpr int kRounds = 40;
    const WorkloadProfile prof = findProfile("mgrid");
    const std::vector<std::uint64_t> cuts{1'000, kRecords};
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    const PackedTrace ref_packed(prof, kRecords, kMix);
    const DistilledTrace ref_distilled(prof, kRecords, cuts, params, kMix);
    const PackedTrace::PackedRecord last_ref =
        ref_packed.rawRecords()[kRecords - 1];

    std::atomic<int> running{kWorkers};
    std::atomic<int> bad{0};
    auto worker = [&] {
        for (int i = 0; i < kRounds; ++i) {
            const auto pk = sharedPackedTrace(prof, kRecords, kMix);
            const auto dt =
                sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
            const PackedTrace::PackedRecord &last =
                pk->rawRecords()[kRecords - 1];
            if (pk->size() < kRecords || last.addr != last_ref.addr ||
                last.branch_pc != last_ref.branch_pc ||
                dt->size() != kRecords ||
                dt->eventCount() != ref_distilled.eventCount() ||
                dt->eventData()[dt->eventCount() - 1].rec !=
                    kRecords - 1) {
                bad.fetch_add(1);
            }
        }
        running.fetch_sub(1);
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t)
        pool.emplace_back(worker);
    std::thread evictor([&] {
        while (running.load() > 0) {
            dropUnusedPackedTraces();
            dropUnusedDistilledTraces();
            releasePackedTrace(prof, kMix);
            std::this_thread::yield();
        }
    });
    for (auto &th : pool)
        th.join();
    evictor.join();
    EXPECT_EQ(bad.load(), 0) << "a lookup returned a wrong stream";
    // Nothing holds a stream any more, so the registries empty out.
    dropUnusedDistilledTraces();
    dropUnusedPackedTraces();
    EXPECT_EQ(dropUnusedDistilledTraces() + dropUnusedPackedTraces(), 0u);
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

TEST(TraceCacheDir, ValidDtcNeedsNoPackedStreamOrTrc)
{
    const WorkloadProfile prof = isolatedProfile("applu", 4'242);
    const SimLength len{2'000, 6'000};
    std::string dir = ::testing::TempDir() + "nurapid_dtc_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);
    dropUnusedDistilledTraces();
    dropUnusedPackedTraces();

    // A cold run distills, persisting the .trc and the .dtc, and then
    // frees the packed stream it distilled.
    RunMetrics cold;
    {
        System sys(OrgSpec::baseline(), prof, len);
        EXPECT_EQ(dropUnusedPackedTraces(), 0u)
            << "the packed stream must not outlive its distillation";
        cold = sys.runAll();
    }
    ASSERT_EQ(filesWithExtension(dir, ".dtc").size(), 1u);
    const auto trc = filesWithExtension(dir, ".trc");
    ASSERT_EQ(trc.size(), 1u);
    fs::remove(trc.front());
    EXPECT_EQ(dropUnusedDistilledTraces(), 1u);

    // With only the .dtc left, a run loads it and never regenerates
    // (or rewrites) the packed stream.
    RunMetrics warm;
    {
        System sys(OrgSpec::baseline(), prof, len);
        warm = sys.runAll();
    }
    EXPECT_TRUE(filesWithExtension(dir, ".trc").empty())
        << "a valid .dtc must make the .trc unnecessary";
    EXPECT_EQ(dropUnusedPackedTraces(), 0u)
        << "no packed registry entry may remain";
    EXPECT_TRUE(identicalMetrics(cold, warm));

    dropUnusedDistilledTraces();
    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
    fs::remove_all(dir);
}

TEST(TraceCacheDir, PinnedPackedBufferSurvivesDistillation)
{
    const WorkloadProfile prof = isolatedProfile("swim", 4'343);
    const SimLength len{2'000, 6'000};
    const std::uint64_t total = len.warmup_records + len.measure_records;

    auto pinned = sharedPackedTrace(prof, total);
    {
        System sys(OrgSpec::baseline(), prof, len);
        EXPECT_GT(sys.runAll().instructions, 0u);
    }
    EXPECT_EQ(sharedPackedTrace(prof, total).get(), pinned.get())
        << "distillation must not evict a buffer a caller holds";
    pinned.reset();
    EXPECT_TRUE(releasePackedTrace(prof, 0));
    dropUnusedDistilledTraces();
}

} // namespace
} // namespace nurapid
