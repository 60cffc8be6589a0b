/**
 * @file
 * Synthetic address-stream generator driven by a WorkloadProfile.
 *
 * The generated stream has the structure the NuRAPID/D-NUCA experiments
 * are sensitive to:
 *  - a small L1-resident layer (most references);
 *  - one or more L2 layers whose *segments* are scattered through the
 *    address space, so their blocks collide unevenly in cache sets
 *    (some sets accumulate many hot ways — the paper's "hot sets");
 *  - a cold remainder walking the full footprint (L2 misses);
 *  - sequential-walk spatial locality within every layer;
 *  - a branch stream mixing patterned (predictable) and biased-random
 *    (hard) static branches for the 2-level hybrid predictor.
 */

#ifndef NURAPID_TRACE_SYNTHETIC_HH
#define NURAPID_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "trace/profiles.hh"
#include "trace/record.hh"

namespace nurapid {

class SyntheticTrace final : public TraceSource
{
  public:
    explicit SyntheticTrace(const WorkloadProfile &profile,
                            std::uint64_t seed_mix = 0);

    bool next(TraceRecord &record) override;
    void reset() override;

    const WorkloadProfile &profile() const { return prof; }

  private:
    struct LayerState
    {
        std::vector<Addr> segment_bases;
        std::uint64_t segment_bytes = 0;
        Addr cursor = 0;  //!< sequential-walk position
    };

    void buildLayers();
    Addr pickAddress(LayerState &layer);
    Addr coldAddress();
    void emitBranch(TraceRecord &record);

    WorkloadProfile prof;
    std::uint64_t seedMix;
    Rng rng;
    std::vector<LayerState> layers;
    std::vector<double> cumWeights;  //!< cumulative layer weights
    Addr coldBase = 0;
    Addr coldCursor = 0;
    std::uint32_t chaseRemaining = 0;  //!< records left in a chase burst
    std::size_t chaseLayer = 0;        //!< layers.size() = cold region
    std::uint64_t deepCount = 0;       //!< L2-layer refs, for drift
    Addr codeCursor = 0;
    double ifetchProb = 0.0;
    double branchProb = 0.0;
    double meanGap = 0.0;

    // Static branch population: pattern branches replay fixed loop
    // shapes; hard branches are biased coin flips.
    struct StaticBranch
    {
        std::uint32_t pc = 0;
        bool hard = false;
        std::uint32_t pattern = 0;  //!< bit pattern replayed cyclically
        std::uint32_t length = 1;
        std::uint32_t pos = 0;
    };
    std::vector<StaticBranch> branches;
};

} // namespace nurapid

#endif // NURAPID_TRACE_SYNTHETIC_HH
