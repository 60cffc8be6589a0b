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
        const SimLength &len, bool reference)
{
    System sys(org, prof, len);
    Observed o;
    o.metrics = reference ? sys.runAllReference() : sys.runAll();
    o.core_stats = sys.core().stats().dump();
    o.l1i_stats = sys.l1i().stats().dump();
    o.l1d_stats = sys.l1d().stats().dump();
    o.bpred_stats = sys.core().branchPredictor().stats().dump();
    o.lower_stats = sys.lower().stats().dump();
    return o;
}

class ReferenceIdentity : public ::testing::TestWithParam<SweepOrg>
{
};

TEST_P(ReferenceIdentity, RunAllMatchesReferenceOnEveryWorkload)
{
    const SimLength len{6'000, 18'000};
    const OrgSpec &org = GetParam().spec;
    for (const WorkloadProfile &prof : workloadSuite()) {
        const std::string what = prof.name + " / " + org.description();
        const Observed ref = observe(org, prof, len, true);
        const Observed dist = observe(org, prof, len, false);
        EXPECT_TRUE(identicalMetrics(ref.metrics, dist.metrics))
            << what << ": metrics diverged (ipc " << ref.metrics.ipc
            << " vs " << dist.metrics.ipc << ", cycles "
            << ref.metrics.cycles << " vs " << dist.metrics.cycles
            << ")";
        EXPECT_EQ(ref.core_stats, dist.core_stats) << what;
        EXPECT_EQ(ref.l1i_stats, dist.l1i_stats) << what;
        EXPECT_EQ(ref.l1d_stats, dist.l1d_stats) << what;
        EXPECT_EQ(ref.bpred_stats, dist.bpred_stats) << what;
        EXPECT_EQ(ref.lower_stats, dist.lower_stats) << what;
        EXPECT_GT(dist.metrics.instructions, 0u) << what;
        EXPECT_GT(dist.metrics.l2_demand, 0u) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(SweepOrgs, ReferenceIdentity,
                         ::testing::ValuesIn(sweepOrgs()));

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
