/**
 * @file
 * Trace-driven out-of-order core timing model (Table 1's machine:
 * 8-wide, 64-entry RUU, 32-entry LSQ, 8 MSHRs, 9-cycle mispredict
 * penalty).
 *
 * The model dispatches the trace at issue-width rate and enforces the
 * classic ROB-occupancy bound on memory-level parallelism: an L1 miss
 * issued at instruction i blocks dispatch at instruction i + RUU until
 * its fill returns, so short L2 hits hide under the window while
 * memory-latency misses stall the core — exactly the sensitivity the
 * paper's L2 experiments need.
 *
 * Two loops drive the machine. runDistilled is the production path:
 * the System instantiates it per concrete (final) cache organization
 * and replays a precomputed L2-event stream, so the organization's
 * access() inlines into the loop body with no virtual dispatch.
 * run(TraceSource&) is the reference: it walks every record through
 * the L1s and the branch predictor, polymorphic trace and lower memory
 * alike, and is what tests hold the distilled replay bit-identical to.
 * Both share missPath/missLatency verbatim.
 */

#ifndef NURAPID_CPU_OOO_CORE_HH
#define NURAPID_CPU_OOO_CORE_HH

#include <algorithm>
#include <cstdint>

#include "common/fixed_ring.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/branch_predictor.hh"
#include "mem/lower_memory.hh"
#include "mem/mshr.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/obs/obs.hh"
#include "sim/profile/profile.hh"
#include "trace/distilled_trace.hh"
#include "trace/record.hh"

namespace nurapid {

/**
 * Stream-lookahead prefetch distance of the distilled replay loop: how
 * many events ahead of the current one to hint at the organization
 * (LowerMemory::prefetchHotLines). The hints never change simulated
 * state, so the distance cannot change a result.
 */
constexpr int kStreamPrefetchDistance = 8;

struct CoreParams
{
    std::uint32_t issue_width = 8;

    /**
     * Effective dispatch cost per instruction in cycles. The floor is
     * 1/issue_width; workloads raise it to their intrinsic (dependency
     * and functional-unit limited) CPI so base IPCs match Table 3.
     */
    double dispatch_cpi = 0.125;
    std::uint32_t ruu_entries = 64;
    std::uint32_t lsq_entries = 32;
    Cycles mispredict_penalty = 9;
    Cycles l1_latency = 3;
    std::uint32_t mshrs = 8;

    /**
     * MSHR tracking granularity. The default matches the L1 block
     * size (32 B), as in the paper's SimpleScalar substrate: misses to
     * different sectors of one 128 B L2 block are separate L2 accesses
     * (this burst traffic is part of what loads D-NUCA's banks).
     * Setting it to the L2 block size models sector-merging MSHRs.
     */
    std::uint32_t mshr_block_bytes = 32;

    /**
     * Cycles of independent work the scheduler finds while a
     * latency-critical load is outstanding. Latency beyond this slack
     * stalls dispatch (the load's consumers are next in line).
     */
    Cycles consumer_slack = 4;
};

class OooCore
{
  public:
    OooCore(const CoreParams &params, SetAssocCache &l1i,
            SetAssocCache &l1d, LowerMemory &lower);

    /**
     * Reference loop: runs @p records trace records through the L1s,
     * the branch predictor and the lower memory (both polymorphic).
     * Production replays the distilled stream instead; tests compare
     * the two (System::runAllReference).
     */
    void run(TraceSource &trace, std::uint64_t records);

    /**
     * Replays @p records records of a distilled stream (must have been
     * distilled against this core's L1 organizations and predictor
     * configuration — System keys the stream by them). Only L2-relevant
     * events touch the machine; the L1 tag walk and predictor tables
     * are skipped entirely, with their counter effects folded in from
     * the event deltas. The replayed segment must end on one of the
     * stream's cuts so folded counters are exact at the stop record.
     * Bit-identical to run() over the same records (asserted by
     * tests/test_reference_identity.cc); @p cur advances past the
     * segment.
     */
    template <class LowerT>
    void runDistilled(LowerT &lower_mem, DistilledTrace::Cursor &cur,
                      std::uint64_t records);

    const CoreParams &params() const { return p; }

    /** Cycles elapsed since the last resetStats() (incl. drain). */
    std::uint64_t cycles() const;
    std::uint64_t instructions() const { return insts - instBase; }
    double ipc() const;

    BranchPredictor &branchPredictor() { return bpred; }
    MshrFile &mshrFile() { return mshrs; }
    StatGroup &stats() { return statGroup; }

    std::uint64_t l1dAccesses() const { return statL1DAccesses.value(); }
    std::uint64_t l1iAccesses() const { return statL1IAccesses.value(); }

    /** Zeroes timing/statistics state but keeps caches warm. */
    void resetStats();

    /**
     * Attaches the flight-recorder sink (for MSHR-stall events) and
     * the interval recorder (ticked once per retired reference in
     * run() and runDistilled alike; epoch boundaries land on the
     * same record index in both loops). Either may be null.
     *
     * Because the tick is per retired reference, each epoch snapshot
     * samples the organization's cumulative EnergyBreakdown at a
     * reference boundary — never mid-access — so the per-epoch energy
     * timeline telescopes exactly to the end-of-run accumulators in
     * both loops.
     */
    void
    attachObservability(EventSink *sink, IntervalRecorder *recorder)
    {
        obsSink = sink;
        obsRec = recorder;
    }

  private:
    struct Pending
    {
        std::uint64_t inst = 0;  //!< instruction index at issue
        Cycle completion = 0;
    };

    /** Retires completed loads; stalls dispatch when the oldest
     *  pending load is a full RUU behind the dispatch point. Inline:
     *  the reference loop runs it once per record; the distilled replay
     *  once per event and wherever an inert run reaches windowLimit(). */
    void
    enforceWindow()
    {
        auto now = static_cast<Cycle>(cycleF);
        while (!pendingLoads.empty()) {
            const Pending &front = pendingLoads.front();
            if (front.completion <= now) {
                pendingLoads.pop_front();
                continue;
            }
            if (instIndex - front.inst >= p.ruu_entries) {
                cycleF = std::max(cycleF,
                                  static_cast<double>(front.completion));
                now = static_cast<Cycle>(cycleF);
                pendingLoads.pop_front();
                ++statRobStalls;
                continue;
            }
            break;
        }
    }

    /** Instruction index at which enforceWindow() can next stall
     *  dispatch: the oldest pending load's slot plus a full RUU. */
    std::uint64_t
    windowLimit() const
    {
        return pendingLoads.empty()
            ? UINT64_MAX
            : pendingLoads.front().inst + p.ruu_entries;
    }

    /** Replays the inert records [k, end) of a distilled stream;
     *  returns the folded mispredicts among them. */
    std::uint32_t walkInert(const std::uint8_t *gaps, std::uint64_t k,
                            std::uint64_t end);

    template <class LowerT>
    Cycles missLatency(LowerT &lower_mem, Addr addr, AccessType type,
                       Cycle now);

    /** Everything after an L1 miss is detected: miss counters, the L2
     *  access, completion bookkeeping, and the LSQ/window/dependence
     *  side effects. Shared verbatim between run() and runDistilled so
     *  the two loops cannot drift. */
    template <class LowerT>
    void missPath(LowerT &lower_mem, Addr addr, bool store, bool ifetch,
                  bool latency_critical, Cycle now);

    CoreParams p;
    SetAssocCache &l1i;
    SetAssocCache &l1d;
    LowerMemory &lower;
    BranchPredictor bpred;
    MshrFile mshrs;

    double dispatchCpi = 0.125;
    double cycleF = 0.0;        //!< absolute dispatch clock (never reset)
    std::uint64_t insts = 0;    //!< absolute instruction count
    std::uint64_t instIndex = 0;
    Cycle lastCompletion = 0;
    Cycle lastMissCompletion = 0;  //!< last deep load's data-ready time
    Cycle cycleBase = 0;        //!< measurement-phase baselines
    std::uint64_t instBase = 0;
    /** In-flight queues are structurally bounded — loads by RUU
     *  occupancy (one in-window miss per instruction slot), stores by
     *  the LSQ drain rule — so they live in fixed rings that panic on
     *  overflow instead of deque segments that allocate mid-loop. */
    FixedRing<Pending> pendingLoads;
    FixedRing<Cycle> pendingStores;

    /** Flight-recorder hooks; null (the common case) when detached. */
    EventSink *obsSink = nullptr;
    IntervalRecorder *obsRec = nullptr;

    StatGroup statGroup;
    Counter statL1DAccesses;
    Counter statL1IAccesses;
    Counter statL1DMisses;
    Counter statL1IMisses;
    Counter statL2Demand;
    Counter statL2DemandHits;
    Counter statRobStalls;
    Counter statLsqStalls;
    Counter statDepStalls;
    Counter statCriticalStalls;
};

template <class LowerT>
Cycles
OooCore::missLatency(LowerT &lower_mem, Addr addr, AccessType type,
                     Cycle now)
{
    const Addr block = blockAlign(addr, p.mshr_block_bytes);
    mshrs.retire(now);

    if (mshrs.tracks(block)) {
        mshrs.noteMerge();
        const Cycle ready = mshrs.readyAt(block);
        return ready > now ? static_cast<Cycles>(ready - now) : 0;
    }

    if (mshrs.full()) {
        // Structural stall: wait for the oldest fill.
        const Cycle ready = mshrs.nextRetirement();
        if (obsSink) [[unlikely]] {
            obsSink->mshrStall(
                now, block,
                ready > now ? static_cast<Cycles>(ready - now) : 0);
        }
        cycleF = std::max(cycleF, static_cast<double>(ready));
        now = static_cast<Cycle>(cycleF);
        mshrs.retire(now);
        mshrs.noteFullStall();
    }

    ++statL2Demand;
    NURAPID_PROFILE_SCOPE(L2Org);
    const LowerMemory::Result res = lower_mem.access(block, type, now);
    if (res.hit)
        ++statL2DemandHits;
    const Cycles total = p.l1_latency + res.latency;
    mshrs.allocate(block, now + total);
    return total;
}

template <class LowerT>
void
OooCore::missPath(LowerT &lower_mem, Addr addr, bool store, bool ifetch,
                  bool latency_critical, Cycle now)
{
    if (ifetch)
        ++statL1IMisses;
    else
        ++statL1DMisses;

    const AccessType type = store ? AccessType::Write : AccessType::Read;
    const Cycles lat = missLatency(lower_mem, addr, type, now);
    const Cycle completion = now + lat;
    lastCompletion = std::max(lastCompletion, completion);

    // Latency-critical loads feed consumers immediately: only a
    // small slack of independent work hides their latency.
    if (latency_critical && !store && !ifetch &&
        completion > now + p.consumer_slack) {
        const double resume =
            static_cast<double>(completion - p.consumer_slack);
        if (resume > cycleF) {
            cycleF = resume;
            ++statCriticalStalls;
        }
    }

    if (store) {
        // Stores retire through the LSQ without blocking dispatch
        // unless the queue fills.
        pendingStores.push_back(completion);
        while (!pendingStores.empty() &&
               pendingStores.front() <= static_cast<Cycle>(cycleF)) {
            pendingStores.pop_front();
        }
        if (pendingStores.size() > p.lsq_entries) {
            cycleF = std::max(
                cycleF, static_cast<double>(pendingStores.front()));
            pendingStores.pop_front();
            ++statLsqStalls;
        }
    } else {
        // Loads (and ifetches) hold the window.
        pendingLoads.push_back({instIndex, completion});
        if (!ifetch)
            lastMissCompletion = completion;
    }
}

inline std::uint32_t
OooCore::walkInert(const std::uint8_t *gaps, std::uint64_t k,
                   std::uint64_t end)
{
    // All L1 hits with no stall of any kind: only the dispatch clock,
    // the instruction indices, the window and the epoch clock advance.
    // Per record the clock adds the gap, then the folded mispredict's
    // penalty (adding 0.0 is exact), in the live loop's FP order.
    using DT = DistilledTrace;
    const double penalty[2] = {0.0,
                               static_cast<double>(p.mispredict_penalty)};
    std::uint32_t mispredicts = 0;
    while (k < end) {
        // An observed run ends the batch on the next epoch boundary, so
        // the snapshot there sees the clock after exactly that record.
        const std::uint64_t batch_end = obsRec
            ? std::min(end, k + obsRec->ticksToBoundary())
            : end;
        const std::uint64_t batch = batch_end - k;
        const std::uint64_t start = instIndex;
        double c = cycleF;
        std::uint64_t ii = instIndex;
        // Below windowLimit() enforceWindow() can only pop completed
        // loads, never move the clock. Those pops are deferred to the
        // next call, which makes them against a later clock: the same
        // pops, since the completed prefix only grows.
        std::uint64_t limit = windowLimit();
        for (; k < batch_end; ++k) {
            const unsigned g = gaps[k];
            const unsigned n = (g & DT::kGapMask) + 1;
            ii += n;
            c += n * dispatchCpi;
            c += penalty[g >> 7];
            mispredicts += g >> 7;
            if (ii >= limit) [[unlikely]] {
                cycleF = c;
                instIndex = ii;
                enforceWindow();
                c = cycleF;
                limit = windowLimit();
            }
        }
        cycleF = c;
        instIndex = ii;
        insts += ii - start;
        if (obsRec) [[unlikely]]
            obsRec->tick(batch);
    }
    return mispredicts;
}

template <class LowerT>
void
OooCore::runDistilled(LowerT &lower_mem, DistilledTrace::Cursor &cur,
                      std::uint64_t records)
{
    using DT = DistilledTrace;
    const std::uint64_t stop = cur.pos + records;

    while (cur.pos < stop) {
        panic_if(cur.ev == cur.ev_end,
                 "distilled events drained before the stop record — "
                 "replay must end on one of the stream's cuts");
        const DT::Event &e = *cur.ev++;
        // Lookahead hint: while this event's inert prefix and machine
        // bookkeeping run, the plane lines a near-future event will
        // touch stream into the host cache. cur.ev already points one
        // past e, so cur.ev[0] is the very next event.
        if (cur.ev_end - cur.ev >= kStreamPrefetchDistance)
            lower_mem.prefetchHotLines(
                cur.ev[kStreamPrefetchDistance - 1].addr);
        const std::uint64_t erec = e.rec;
        panic_if(erec >= stop,
                 "distilled event past the stop record — replay must "
                 "end on one of the stream's cuts");

        // Inert records [cur.pos, erec): the L1 tag/LRU walk and the
        // predictor tables fold away into counter deltas.
        const std::uint32_t folded_mp = walkInert(cur.gaps, cur.pos, erec);
        const auto inert = static_cast<std::uint32_t>(erec - cur.pos);
        cur.pos = erec + 1;

        statL1IAccesses += e.d_l1i;
        statL1DAccesses += inert - e.d_l1i;
        l1i.foldStats(e.d_l1i, 0, 0, 0);
        l1d.foldStats(inert - e.d_l1i, 0, 0, 0);
        bpred.foldStats(e.d_bp_pred + folded_mp, folded_mp);

        // The event record itself, replayed in live-loop order.
        const std::uint16_t f = e.flags;
        insts += e.gap + 1;
        instIndex += e.gap + 1;
        cycleF += (e.gap + 1) * dispatchCpi;

        if (f & DT::kHasBranch) {
            bpred.foldStats(1, (f & DT::kMispredict) ? 1 : 0);
            if (f & DT::kMispredict)
                cycleF += p.mispredict_penalty;
        }

        enforceWindow();

        const bool ifetch = (f & DT::kIfetch) != 0;
        const bool store = (f & DT::kStore) != 0;

        // Dependence check: the distiller keeps only the first
        // dependent load after each deep-load completion update (later
        // checks in the same epoch are no-ops — the dispatch clock is
        // monotonic), so this fires exactly when the live loop's would.
        if (f & DT::kDepCheck) {
            if (static_cast<double>(lastMissCompletion) > cycleF) {
                cycleF = static_cast<double>(lastMissCompletion);
                ++statDepStalls;
            }
        }
        const auto now = static_cast<Cycle>(cycleF);
        if (ifetch)
            ++statL1IAccesses;
        else
            ++statL1DAccesses;

        if (f & DT::kL1Miss) {
            (ifetch ? l1i : l1d)
                .foldStats(0, 1, (f & DT::kL1Evict) ? 1 : 0,
                           (f & DT::kWriteback) ? 1 : 0);
            if (f & DT::kWriteback) {
                NURAPID_PROFILE_SCOPE(L2Org);
                lower_mem.access(e.evicted_addr, AccessType::Writeback,
                                 now);
            }
            missPath(lower_mem, e.addr, store, ifetch,
                     (f & DT::kLatencyCritical) != 0, now);
        } else {
            (ifetch ? l1i : l1d).foldStats(1, 0, 0, 0);
        }
        if (obsRec) [[unlikely]]
            obsRec->tick();
    }
}

} // namespace nurapid

#endif // NURAPID_CPU_OOO_CORE_HH
