/**
 * @file
 * Distilled L2-event streams: the org-independent half of the
 * per-reference loop, precomputed once per workload.
 *
 * For a fixed trace, L1 geometry and branch-predictor configuration,
 * the L1 lookup/replacement outcome and the branch-predictor verdict of
 * every record are pure functions of the record stream — they do not
 * depend on lower-memory timing. The sweep replays each workload
 * against ~18 L2 organizations, so that work is identical 18 times
 * over; only the few percent of references that reach the L2 (plus
 * mispredicts and the first dependent load after each deep miss) differ
 * in effect between organizations.
 *
 * DistilledTrace stores that shared prefix as (format version 2):
 *
 *  - a per-record byte stream, 1 B/record: bits 0-6 hold an inert
 *    record's inst_gap, bit 7 (kGapMispredict) marks a mispredicted
 *    branch. The dispatch clock is a running double, so the replay must
 *    reproduce the exact per-record addition order — gap, then the
 *    mispredict penalty; everything else about inert L1-hit records
 *    folds away. An event record's byte is zero (its gap lives in the
 *    Event), and
 *  - a sparse, ordered array of Events: one per record whose replay
 *    touches org-dependent state (L1 miss, dirty writeback, dependent-
 *    load stall point), that closes a warmup/measure segment, or whose
 *    inst_gap does not fit in 7 bits (an *escape*: gap > kGapMask).
 *    A bare mispredict — no L1 miss, no dependence check, no cut, no
 *    escape — is not an event: it only adds the penalty to the clock,
 *    which the byte's bit 7 carries. Each event carries the counter
 *    deltas (inert ifetch count, correct branch predictions)
 *    accumulated over the inert records since the previous event, so
 *    statistics stay bit-identical without touching the L1 or
 *    predictor tables; the replay counts folded mispredicts itself.
 *
 * Only the *first* dependent load after each deep-load event needs an
 * event: the dependence stall fires at most once per
 * lastMissCompletion update (the dispatch clock is monotonic, so once
 * one dependent load has been checked against it, later checks in the
 * same epoch are provably no-ops).
 *
 * OooCore::runDistilled replays events only, applying the window/LSQ/
 * MSHR logic at the stored record indices; it is the System's only
 * replay path. tests/test_reference_identity.cc asserts bit-identity
 * against the reference per-record loop (OooCore::run) for every
 * workload and every organization the sweep simulates. Buffers are
 * shared process-wide per fingerprint (profile, seed mix, L1 geometry,
 * predictor config, MSHR sector, segment cuts) and persisted to
 * NURAPID_TRACE_CACHE_DIR as .dtc files (mmap-loaded).
 *
 * The distilled stream is the System's only stream request. A registry
 * or .dtc miss builds it in one generate-and-distill pass: the
 * constructor pulls each record straight from a local SyntheticTrace
 * and keeps only the byte and its event, so no full record stream is
 * ever materialized.
 */

#ifndef NURAPID_TRACE_DISTILLED_TRACE_HH
#define NURAPID_TRACE_DISTILLED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fingerprint.hh"
#include "mem/set_assoc_cache.hh"
#include "trace/synthetic.hh"

namespace nurapid {

/** Everything org-independent that shapes a distilled stream, beyond
 *  the trace itself. Changing any field changes the fingerprint. */
struct DistillParams
{
    CacheOrg l1i;
    CacheOrg l1d;
    std::uint32_t bp_entries = 8192;
    std::uint32_t bp_history_bits = 13;
    /** MSHR tracking granularity. The distilled records store full
     *  reference addresses (the replay aligns them itself), but the
     *  sector size is keyed conservatively so a stream can never be
     *  replayed against a core it was not distilled for. */
    std::uint32_t mshr_block_bytes = 32;
};

class DistilledTrace
{
  public:
    // Event flag bits (program order of their replay effects matches
    // the live loop: dispatch, branch penalty, window, dep check, L1
    // writeback, miss path).
    static constexpr std::uint16_t kIfetch = 1u << 0;
    static constexpr std::uint16_t kStore = 1u << 1;
    static constexpr std::uint16_t kHasBranch = 1u << 2;
    static constexpr std::uint16_t kMispredict = 1u << 3;
    static constexpr std::uint16_t kDepCheck = 1u << 4;
    static constexpr std::uint16_t kL1Miss = 1u << 5;
    static constexpr std::uint16_t kL1Evict = 1u << 6;
    static constexpr std::uint16_t kWriteback = 1u << 7;
    static constexpr std::uint16_t kLatencyCritical = 1u << 8;

    // Per-record byte layout: inst_gap in the low 7 bits, folded
    // mispredict in the top bit.
    static constexpr std::uint8_t kGapMask = 0x7f;
    static constexpr std::uint8_t kGapMispredict = 0x80;

    /** One L2-relevant record, 32 bytes. */
    struct Event
    {
        Addr addr = 0;          //!< reference address (kL1Miss events)
        Addr evicted_addr = 0;  //!< dirty L1 victim (kWriteback events)
        std::uint32_t rec = 0;  //!< absolute record index of the event
        std::uint16_t flags = 0;
        std::uint16_t gap = 0;  //!< the event record's own inst_gap
        /** Correct branch predictions on the inert records strictly
         *  between the previous event and this one (the event record's
         *  own branch is described by kHasBranch/kMispredict; folded
         *  mispredicts are marked in the record bytes). */
        std::uint32_t d_bp_pred = 0;
        /** Ifetch references among those inert records (the rest are
         *  data references; all inert records are L1 hits). */
        std::uint32_t d_l1i = 0;
    };
    static_assert(sizeof(Event) == 32, "events must stay 32 bytes");

    /** Replay position: consumed by OooCore::runDistilled, which
     *  advances the fields directly. */
    struct Cursor
    {
        const std::uint8_t *gaps = nullptr;
        const Event *ev = nullptr;
        const Event *ev_end = nullptr;
        std::uint64_t pos = 0;  //!< next record index to replay
    };

    /** Distills @p records of (@p profile, @p seed_mix): generates
     *  them and runs the L1s and predictor over them in one pass,
     *  keeping only the record bytes and the event stream. @p cuts are
     *  the segment boundaries replay may stop at (ascending, each > 0,
     *  last == @p records); an event is forced at each cut's final
     *  record so folded counters are exact there. */
    DistilledTrace(const WorkloadProfile &profile, std::uint64_t records,
                   const std::vector<std::uint64_t> &cuts,
                   const DistillParams &params, std::uint64_t seed_mix = 0);

    /** Internal (disk cache): adopts an mmap'd .dtc file. */
    DistilledTrace(const WorkloadProfile &profile, std::uint64_t seed_mix,
                   const std::vector<std::uint64_t> &cuts,
                   const DistillParams &params, void *map_base,
                   std::size_t map_len, std::size_t gaps_offset,
                   std::size_t events_offset, std::uint64_t records,
                   std::uint64_t event_count);

    ~DistilledTrace();
    DistilledTrace(const DistilledTrace &) = delete;
    DistilledTrace &operator=(const DistilledTrace &) = delete;

    std::uint64_t size() const { return nrecs; }
    std::uint64_t eventCount() const { return nevents; }
    const std::vector<std::uint64_t> &cutList() const { return cuts_; }

    /** True when replay may stop after exactly @p record records. */
    bool isCut(std::uint64_t record) const;

    /** False for streams adopted from the disk cache. */
    bool fromFile() const { return map_base != nullptr; }

    const std::uint8_t *gapData() const { return gaps_; }
    const Event *eventData() const { return events_; }

    Cursor
    cursor() const
    {
        return Cursor{gaps_, events_, events_ + nevents, 0};
    }

  private:
    std::vector<std::uint8_t> gap_buf;
    std::vector<Event> event_buf;
    const std::uint8_t *gaps_ = nullptr;
    const Event *events_ = nullptr;
    std::uint64_t nrecs = 0;
    std::uint64_t nevents = 0;
    std::vector<std::uint64_t> cuts_;
    void *map_base = nullptr;
    std::size_t map_len = 0;
};

/** Canonical fingerprint of one distilled stream: format version, the
 *  full key of the record stream (every generator-read profile field,
 *  the seed mix and a generator version), both L1 organizations, the
 *  predictor configuration, the MSHR sector size, and the segment
 *  cuts. */
Fingerprint distillFingerprint(const WorkloadProfile &profile,
                               std::uint64_t seed_mix,
                               std::uint64_t records,
                               const std::vector<std::uint64_t> &cuts,
                               const DistillParams &params);

/**
 * Process-wide registry: returns the distilled stream for the given
 * fingerprint, building (or loading from NURAPID_TRACE_CACHE_DIR) at
 * most once while its entry lives. Thread-safe; generation for
 * different fingerprints proceeds in parallel.
 */
std::shared_ptr<const DistilledTrace>
sharedDistilledTrace(const WorkloadProfile &profile, std::uint64_t records,
                     const std::vector<std::uint64_t> &cuts,
                     const DistillParams &params,
                     std::uint64_t seed_mix = 0);

/** Drops registry entries no one else holds; returns entries freed. */
std::size_t dropUnusedDistilledTraces();

} // namespace nurapid

#endif // NURAPID_TRACE_DISTILLED_TRACE_HH
