/**
 * @file
 * Production-vs-reference identity: System::runAll() replays the
 * distilled L2-event stream, System::runAllReference() walks every
 * record of a freshly generated trace through the L1s, the branch
 * predictor and the organization (OooCore::run). The two must agree
 * bit for bit — RunMetrics and every statistic the replay folds — for
 * every organization the bench sweep simulates and every workload.
 *
 * The organization list is the sweep's: the 20 distinct organization
 * specs in a cold regen_bench.sh run cache. The reference has no
 * stream-lookahead prefetch, so this also shows the hints never change
 * simulated state.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner/run_cache.hh"
#include "sim/system.hh"
#include "trace/distilled_trace.hh"
#include "trace/profiles.hh"

namespace nurapid {
namespace {

struct SweepOrg
{
    std::string name;  //!< test-name label (via PrintTo)
    OrgSpec spec;
};

void
PrintTo(const SweepOrg &o, std::ostream *os)
{
    *os << o.name;
}

SweepOrg
nurapid(std::string name, std::uint32_t dgroups, PromotionPolicy promo,
        DistanceRepl repl = DistanceRepl::Random)
{
    return {std::move(name), OrgSpec::nurapidDefault(dgroups, promo, repl)};
}

/** Every distinct organization the bench binaries run. */
std::vector<SweepOrg>
sweepOrgs()
{
    using PP = PromotionPolicy;
    std::vector<SweepOrg> orgs{
        {"base", OrgSpec::baseline()},
        {"dnuca_perf", OrgSpec::dnucaSsPerformance()},
        {"dnuca_energy", OrgSpec::dnucaSsEnergy()},
        {"snuca", OrgSpec::snucaDefault()},
        {"coupled_sa", OrgSpec::coupledSA()},
        {"nurapid_ideal", OrgSpec::nurapidIdeal()},
        nurapid("nurapid_dg4", 4, PP::NextFastest),
        nurapid("nurapid_dg2", 2, PP::NextFastest),
        nurapid("nurapid_dg8", 8, PP::NextFastest),
        nurapid("nurapid_demotion", 4, PP::DemotionOnly),
        nurapid("nurapid_fastest", 4, PP::Fastest),
        nurapid("nurapid_demotion_lru", 4, PP::DemotionOnly,
                DistanceRepl::LRU),
        nurapid("nurapid_lru", 4, PP::NextFastest, DistanceRepl::LRU),
        nurapid("nurapid_plru", 4, PP::NextFastest,
                DistanceRepl::TreePLRU),
    };
    for (const PP promo : {PP::NextFastest, PP::Fastest}) {
        SweepOrg o = nurapid(promo == PP::Fastest
                                 ? "nurapid_fastest_multiport"
                                 : "nurapid_multiport",
                             4, promo);
        o.spec.nurapid.single_port = false;
        orgs.push_back(o);
    }
    for (const std::uint32_t restriction : {2048u, 512u, 128u, 32u}) {
        SweepOrg o = nurapid("nurapid_restrict" +
                                 std::to_string(restriction),
                             4, PP::NextFastest);
        o.spec.nurapid.frame_restriction = restriction;
        orgs.push_back(o);
    }
    return orgs;
}

/** Metrics plus every statistic the distilled replay folds. */
struct Observed
{
    RunMetrics metrics;
    std::string core_stats;
    std::string l1i_stats;
    std::string l1d_stats;
    std::string bpred_stats;
    std::string lower_stats;
};

Observed
observe(const OrgSpec &org, const WorkloadProfile &prof,
        const SimLength &len, bool reference,
        const CoreParams &core = defaultCoreParams())
{
    System sys(org, prof, len, core);
    Observed o;
    o.metrics = reference ? sys.runAllReference() : sys.runAll();
    o.core_stats = sys.core().stats().dump();
    o.l1i_stats = sys.l1i().stats().dump();
    o.l1d_stats = sys.l1d().stats().dump();
    o.bpred_stats = sys.core().branchPredictor().stats().dump();
    o.lower_stats = sys.lower().stats().dump();
    return o;
}

/** Runs @p prof on @p org through both loops and expects bit-identity
 *  of the metrics and of every folded statistic. */
void
expectReplayMatchesReference(const OrgSpec &org,
                             const WorkloadProfile &prof,
                             const SimLength &len,
                             const CoreParams &core = defaultCoreParams())
{
    const std::string what = prof.name + " / " + org.description();
    const Observed ref = observe(org, prof, len, true, core);
    const Observed dist = observe(org, prof, len, false, core);
    EXPECT_TRUE(identicalMetrics(ref.metrics, dist.metrics))
        << what << ": metrics diverged (ipc " << ref.metrics.ipc
        << " vs " << dist.metrics.ipc << ", cycles "
        << ref.metrics.cycles << " vs " << dist.metrics.cycles << ")";
    EXPECT_EQ(ref.core_stats, dist.core_stats) << what;
    EXPECT_EQ(ref.l1i_stats, dist.l1i_stats) << what;
    EXPECT_EQ(ref.l1d_stats, dist.l1d_stats) << what;
    EXPECT_EQ(ref.bpred_stats, dist.bpred_stats) << what;
    EXPECT_EQ(ref.lower_stats, dist.lower_stats) << what;
    EXPECT_GT(dist.metrics.instructions, 0u) << what;
    EXPECT_GT(dist.metrics.l2_demand, 0u) << what;
}

class ReferenceIdentity : public ::testing::TestWithParam<SweepOrg>
{
};

TEST_P(ReferenceIdentity, RunAllMatchesReferenceOnEveryWorkload)
{
    const SimLength len{6'000, 18'000};
    for (const WorkloadProfile &prof : workloadSuite())
        expectReplayMatchesReference(GetParam().spec, prof, len);
}

INSTANTIATE_TEST_SUITE_P(SweepOrgs, ReferenceIdentity,
                         ::testing::ValuesIn(sweepOrgs()));

// The sweep's workloads all have gaps far below 128, so they never
// exercise the escape rule: a record whose inst_gap does not fit the
// 7-bit record byte must become an event carrying its own gap.
TEST(DistilledExactness, GapsBeyondSevenBitsEscapeToEvents)
{
    WorkloadProfile prof = findProfile("mcf");
    prof.name = "mcf_sparse";
    // Mean gap 125 instructions, drawn uniformly from [62, 187]: about
    // half the records escape, the rest fold. Branch and ifetch rates
    // are rescaled to stay per-record probabilities below 1.
    prof.mem_refs_per_kinst = 8.0;
    prof.branches_per_kinst = 4.0;
    prof.ifetch_refs_per_kinst = 0.4;
    const SimLength len{4'000, 12'000};

    DistillParams dp;
    dp.l1i = l1iOrg();
    dp.l1d = l1dOrg();
    const auto t = sharedDistilledTrace(prof, 16'000, {4'000, 16'000}, dp);
    std::uint64_t escapes = 0;
    for (std::uint64_t i = 0; i < t->eventCount(); ++i)
        escapes += t->eventData()[i].gap > DistilledTrace::kGapMask;
    std::uint64_t folded = 0;
    for (std::uint64_t k = 0; k < t->size(); ++k)
        folded += (t->gapData()[k] & DistilledTrace::kGapMask) != 0;
    EXPECT_GT(escapes, 1'000u) << "profile does not exercise escapes";
    EXPECT_GT(folded, 1'000u) << "profile folds no inert records";

    for (const OrgSpec &org :
         {OrgSpec::baseline(), OrgSpec::nurapidDefault()})
        expectReplayMatchesReference(org, prof, len);
}

// A tiny window, few MSHRs, a short LSQ and a long mispredict penalty
// make ROB, MSHR and LSQ stalls (and penalty-carrying inert runs) far
// denser than the Table 1 machine does.
TEST(DistilledExactness, StressedCoreParamsMatchReference)
{
    CoreParams core = defaultCoreParams();
    core.ruu_entries = 8;
    core.mshrs = 2;
    core.lsq_entries = 4;
    core.mispredict_penalty = 40;
    const SimLength len{4'000, 12'000};
    for (const OrgSpec &org :
         {OrgSpec::baseline(), OrgSpec::nurapidDefault()}) {
        for (const WorkloadProfile &prof : workloadSuite())
            expectReplayMatchesReference(org, prof, len, core);
    }
}

TEST(SweepOrgList, HoldsTwentyDistinctSpecs)
{
    // A duplicate would silently shrink coverage.
    std::set<std::string> keys;
    for (const SweepOrg &o : sweepOrgs())
        keys.insert(fingerprintRun(o.spec, findProfile("mcf"),
                                   SimLength{1, 1}).key);
    EXPECT_EQ(keys.size(), 20u);
}

} // namespace
} // namespace nurapid
