/**
 * @file
 * Compatibility shim for the host-time benchmark (perfbench/), which
 * still names the packed-stream API that the distiller once read. The
 * next benchmark change retires this file.
 *
 * The simulator no longer materializes a packed record buffer: the
 * distiller (trace/distilled_trace.hh) pulls records straight from a
 * SyntheticTrace in one generate-and-distill pass. What is left here
 * holds no buffer, registry or file, and nothing in src/ calls it.
 */

#ifndef NURAPID_TRACE_PACKED_TRACE_HH
#define NURAPID_TRACE_PACKED_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "trace/profiles.hh"

namespace nurapid {

/** A record count only: the stream it names is never stored. */
class PackedTrace
{
  public:
    /** The 16-byte record layout the removed buffer used (its size is
     *  what the benchmark's footprint figure multiplies by). */
    struct PackedRecord
    {
        Addr addr = 0;
        std::uint32_t branch_pc = 0;
        std::uint16_t inst_gap = 0;
        std::uint8_t op = 0;
        std::uint8_t flags = 0;
    };
    static_assert(sizeof(PackedRecord) == 16,
                  "packed records must stay 16 bytes");

    explicit PackedTrace(std::uint64_t records) : nrecs(records) {}

    std::uint64_t size() const { return nrecs; }

  private:
    std::uint64_t nrecs;
};

/** A count-only handle for @p records of (profile, seed mix). */
inline std::shared_ptr<const PackedTrace>
sharedPackedTrace(const WorkloadProfile &, std::uint64_t records,
                  std::uint64_t = 0)
{
    return std::make_shared<const PackedTrace>(records);
}

/** There is no registry to drop from: always 0. */
inline std::size_t
dropUnusedPackedTraces()
{
    return 0;
}

} // namespace nurapid

#endif // NURAPID_TRACE_PACKED_TRACE_HH
