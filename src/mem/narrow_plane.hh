/**
 * @file
 * Width-narrowed index planes.
 *
 * The NuRAPID/D-NUCA pointer planes (forward frame pointers, reverse
 * set maps, frame->region table) were stored as uint32_t regardless
 * of geometry; an 8 MB organization only ever indexes ~16 Ki frames,
 * so half or three quarters of every pointer byte was zero padding
 * that still cost memory bandwidth.  NarrowPlane picks the minimal
 * element width (1, 2, or 4 bytes) for a caller-supplied maximum
 * index at construction time.
 *
 * The all-ones pattern of the chosen width encodes the kNone
 * sentinel (the 32-bit kNone of the wide planes maps to it on store
 * and back on load).  Width selection requires max_index < mask, so
 * a legitimate index can never collide with the sentinel; stores are
 * branchless (v & mask does the sentinel mapping for free).
 */

#ifndef NURAPID_MEM_NARROW_PLANE_HH
#define NURAPID_MEM_NARROW_PLANE_HH

#include <cstdint>
#include <cstring>
#include <vector>

namespace nurapid {

class NarrowPlane
{
  public:
    /** Matches DataArray::kNoFrame: call sites keep comparing
     *  against the wide sentinel unchanged. */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    NarrowPlane() = default;

    /** @p max_index is the largest legitimate value ever stored
     *  (0 = unknown, forces the full 4-byte width). */
    void
    init(std::size_t size, std::uint32_t max_index, std::uint32_t fill_value)
    {
        if (max_index != 0 && max_index < 0xFFu)
            width_ = 1;
        else if (max_index != 0 && max_index < 0xFFFFu)
            width_ = 2;
        else
            width_ = 4;
        mask_ = width_ == 4 ? 0xffffffffu
                            : ((std::uint32_t{1} << (width_ * 8)) - 1);
        data_.assign(size * width_, 0);
        for (std::size_t i = 0; i < size; ++i)
            set(i, fill_value);
    }

    std::uint32_t
    get(std::size_t i) const
    {
        std::uint32_t v = 0;
        switch (width_) {
          case 1:
            v = data_[i];
            break;
          case 2: {
            std::uint16_t t;
            std::memcpy(&t, &data_[i * 2], 2);
            v = t;
            break;
          }
          default:
            std::memcpy(&v, &data_[i * 4], 4);
            break;
        }
        return v == mask_ ? kNone : v;
    }

    void
    set(std::size_t i, std::uint32_t v)
    {
        // kNone & mask == mask, so the sentinel maps branchlessly.
        v &= mask_;
        switch (width_) {
          case 1:
            data_[i] = static_cast<std::uint8_t>(v);
            break;
          case 2: {
            const std::uint16_t t = static_cast<std::uint16_t>(v);
            std::memcpy(&data_[i * 2], &t, 2);
            break;
          }
          default:
            std::memcpy(&data_[i * 4], &v, 4);
            break;
        }
    }

    std::uint32_t widthBytes() const { return width_; }
    const std::uint8_t *raw() const { return data_.data(); }

  private:
    std::vector<std::uint8_t> data_;
    std::uint32_t width_ = 4;
    std::uint32_t mask_ = 0xffffffffu;
};

} // namespace nurapid

#endif // NURAPID_MEM_NARROW_PLANE_HH
