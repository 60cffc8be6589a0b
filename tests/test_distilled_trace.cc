/**
 * @file
 * Distilled-trace tests: the disk round-trip, rejection of a truncated
 * file, fingerprint invalidation and its pinned key bytes, and
 * event-stream shape. Bit-identity
 * of the replay against the live per-record loop, for every sweep
 * organization and workload, lives in tests/test_reference_identity.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/runner/run_cache.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

namespace fs = std::filesystem;

TEST(DistilledTrace, DiskRoundTripIsBitIdentical)
{
    // A distinct seed mix keeps this test's registry entries and cache
    // files disjoint from every other test in the binary.
    constexpr std::uint64_t kMix = 77;
    constexpr std::uint64_t kRecords = 6'000;
    const std::vector<std::uint64_t> cuts{2'000, kRecords};
    const WorkloadProfile prof = findProfile("swim");
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();

    std::string dir = ::testing::TempDir() + "nurapid_distill_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);

    auto generated =
        sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    ASSERT_NE(generated, nullptr);
    EXPECT_FALSE(generated->fromFile());
    ASSERT_EQ(generated->size(), kRecords);
    ASSERT_GT(generated->eventCount(), 0u);
    EXPECT_TRUE(generated->isCut(2'000));
    EXPECT_TRUE(generated->isCut(kRecords));
    EXPECT_FALSE(generated->isCut(1'000));

    // Keep copies, drop the in-memory entry, and force a file load.
    const std::vector<std::uint8_t> gaps(
        generated->gapData(), generated->gapData() + generated->size());
    const std::vector<DistilledTrace::Event> events(
        generated->eventData(),
        generated->eventData() + generated->eventCount());
    generated.reset();
    dropUnusedDistilledTraces();

    auto loaded = sharedDistilledTrace(prof, kRecords, cuts, params, kMix);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->fromFile())
        << "second process-equivalent request should load from disk";
    ASSERT_EQ(loaded->size(), kRecords);
    ASSERT_EQ(loaded->eventCount(), events.size());
    EXPECT_EQ(loaded->cutList(), cuts);
    EXPECT_EQ(std::memcmp(loaded->gapData(), gaps.data(),
                          gaps.size() * sizeof(gaps[0])), 0);
    EXPECT_EQ(std::memcmp(loaded->eventData(), events.data(),
                          events.size() * sizeof(events[0])), 0);

    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
}

TEST(DistilledTrace, FingerprintChangesWithEveryKeyedParameter)
{
    const WorkloadProfile prof = findProfile("art");
    const std::vector<std::uint64_t> cuts{1'000, 4'000};
    DistillParams base;
    base.l1i = l1iOrg();
    base.l1d = l1dOrg();
    const std::string key =
        distillFingerprint(prof, 0, 4'000, cuts, base).key();

    auto differs = [&](const DistillParams &p, const char *what) {
        EXPECT_NE(distillFingerprint(prof, 0, 4'000, cuts, p).key(), key)
            << what << " must invalidate the fingerprint";
    };

    DistillParams p = base;
    p.l1d.capacity_bytes *= 2;
    differs(p, "L1D capacity");
    p = base;
    p.l1d.assoc *= 2;
    differs(p, "L1D associativity");
    p = base;
    p.l1i.block_bytes *= 2;
    differs(p, "L1I block size");
    p = base;
    p.l1d.repl = ReplPolicy::Random;
    differs(p, "L1D replacement policy");
    p = base;
    p.l1d.repl_seed += 1;
    differs(p, "L1D replacement seed");
    p = base;
    p.bp_entries *= 2;
    differs(p, "predictor entries");
    p = base;
    p.bp_history_bits += 1;
    differs(p, "predictor history bits");
    p = base;
    p.mshr_block_bytes *= 4;
    differs(p, "MSHR sector size");

    // Trace identity and segment cuts are keyed too.
    EXPECT_NE(distillFingerprint(prof, 1, 4'000, cuts, base).key(), key)
        << "seed mix must invalidate the fingerprint";
    EXPECT_NE(distillFingerprint(prof, 0, 5'000,
                                 {1'000, 5'000}, base).key(), key)
        << "record count must invalidate the fingerprint";
    EXPECT_NE(distillFingerprint(prof, 0, 4'000, {4'000}, base).key(),
              key)
        << "segment cuts must invalidate the fingerprint";
    const WorkloadProfile other = findProfile("mcf");
    EXPECT_NE(distillFingerprint(other, 0, 4'000, cuts, base).key(), key)
        << "workload must invalidate the fingerprint";
}

TEST(DistilledTrace, FingerprintKeyMatchesExistingDtcFiles)
{
    // .dtc files are found by this key's digest and verified against
    // its bytes. These bytes equal the key written by builds that still
    // had a separate packed-trace stage, so their .dtc caches stay
    // valid; change them only together with a format-version bump.
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    const Fingerprint fp = distillFingerprint(
        findProfile("applu"), 0, 8'000, {2'000, 8'000}, params);
    EXPECT_EQ(fp.key(),
        "distill_format=2;trace=format=2;name=applu;seed=11;"
        "mem_refs_per_kinst=350;store_frac=0.26000000000000001;"
        "seq_frac=0.55000000000000004;dep_frac=0.12;"
        "critical_frac=0.84999999999999998;drift_period=2500;"
        "ifetch_refs_per_kinst=0;code_bytes=65536;"
        "branches_per_kinst=120;"
        "hard_branch_frac=0.080000000000000002;"
        "hard_branch_bias=0.71999999999999997;"
        "footprint_bytes=67108864;layer_count=3;layer0.bytes=40960;"
        "layer0.weight=0.9184305056645482;layer0.segments=2;"
        "layer0.colliding=0;layer1.bytes=1638400;"
        "layer1.weight=0.064847747996684177;layer1.segments=16;"
        "layer1.colliding=3;layer2.bytes=3145728;"
        "layer2.weight=0.01468250898038132;layer2.segments=8;"
        "layer2.colliding=0;seed_mix=0;;l1i.capacity=65536;"
        "l1i.assoc=2;l1i.block=32;l1i.repl=0;l1i.repl_seed=7;"
        "l1d.capacity=65536;l1d.assoc=2;l1d.block=32;l1d.repl=0;"
        "l1d.repl_seed=9;bp_entries=8192;bp_history_bits=13;"
        "mshr_block_bytes=32;records=8000;cut_count=2;cut0=2000;"
        "cut1=8000;");
    EXPECT_EQ(fp.digest(), "0efe35e1297d0c39");
}

TEST(DistilledTrace, EventStreamFoldsTheInertMajority)
{
    // The point of distillation: events are a small fraction of the
    // records (L1 miss + dep-check + cut + escape rate).
    constexpr std::uint64_t kMix = 78;
    constexpr std::uint64_t kRecords = 50'000;
    DistillParams params;
    params.l1i = l1iOrg();
    params.l1d = l1dOrg();
    const WorkloadProfile prof = findProfile("gzip");
    auto t = sharedDistilledTrace(prof, kRecords, {kRecords}, params,
                                  kMix);
    ASSERT_NE(t, nullptr);
    EXPECT_LT(t->eventCount(), kRecords / 2)
        << "distillation folded almost nothing";
    // Events are strictly ordered and end on the forced cut record.
    const DistilledTrace::Event *ev = t->eventData();
    for (std::uint64_t i = 1; i < t->eventCount(); ++i)
        ASSERT_GT(ev[i].rec, ev[i - 1].rec) << "event " << i;
    EXPECT_EQ(ev[t->eventCount() - 1].rec, kRecords - 1)
        << "an event must be forced at the final cut record";

    // Bare mispredicts fold into the record bytes: an event with no L1
    // miss and no dependence check exists only at a cut or as an
    // escape (a gap too wide for the 7-bit record byte).
    using DT = DistilledTrace;
    std::uint64_t folded_mispredicts = 0;
    for (std::uint64_t k = 0; k < t->size(); ++k)
        folded_mispredicts += (t->gapData()[k] & DT::kGapMispredict) != 0;
    EXPECT_GT(folded_mispredicts, 0u) << "no mispredict was folded";
    for (std::uint64_t i = 0; i < t->eventCount(); ++i) {
        if ((ev[i].flags & (DT::kL1Miss | DT::kDepCheck)) != 0)
            continue;
        EXPECT_TRUE(t->isCut(ev[i].rec + 1u) || ev[i].gap > DT::kGapMask)
            << "event " << i << " at record " << ev[i].rec
            << " (flags " << ev[i].flags << ") should have folded";
        EXPECT_EQ(t->gapData()[ev[i].rec], 0u)
            << "an event record's byte must be zero";
    }
}

TEST(DistilledTrace, TruncatedDtcIsRejectedAndRegenerated)
{
    // A distinct profile seed keeps this test's registry entries and
    // cache files disjoint from every other test in the binary.
    WorkloadProfile prof = findProfile("equake");
    prof.seed += 5'151;
    const SimLength len{2'000, 6'000};
    std::string dir = ::testing::TempDir() + "nurapid_dtc_cut_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    ::setenv("NURAPID_TRACE_CACHE_DIR", dir.c_str(), 1);

    RunMetrics cold;
    {
        System sys(OrgSpec::nurapidDefault(), prof, len);
        cold = sys.runAll();
    }
    dropUnusedDistilledTraces();
    std::vector<fs::path> dtc;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".dtc")
            dtc.push_back(e.path());
    }
    ASSERT_EQ(dtc.size(), 1u);
    const auto full = fs::file_size(dtc.front());

    // Cut the file halfway through its event array, the file's tail;
    // the header's third u64 (after the magic and the record count) is
    // the event count.
    std::uint64_t header[3] = {};
    {
        std::ifstream in(dtc.front(), std::ios::binary);
        ASSERT_TRUE(in.read(reinterpret_cast<char *>(header),
                            sizeof(header)));
    }
    const std::uint64_t event_bytes =
        header[2] * sizeof(DistilledTrace::Event);
    ASSERT_GT(event_bytes, 64u);
    ASSERT_LT(event_bytes, full);
    fs::resize_file(dtc.front(), full - event_bytes / 2);

    RunMetrics warm;
    {
        System sys(OrgSpec::nurapidDefault(), prof, len);
        warm = sys.runAll();
    }
    EXPECT_TRUE(identicalMetrics(cold, warm))
        << "a truncated .dtc must be rejected, not replayed";
    EXPECT_EQ(fs::file_size(dtc.front()), full)
        << "the rejected stream must be regenerated and rewritten";

    dropUnusedDistilledTraces();
    ::unsetenv("NURAPID_TRACE_CACHE_DIR");
    fs::remove_all(dir);
}

} // namespace
} // namespace nurapid
