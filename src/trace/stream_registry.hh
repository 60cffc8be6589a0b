/**
 * @file
 * Process-wide registry of shared, read-only trace streams, keyed by a
 * canonical fingerprint key (trace/packed_trace.hh and
 * trace/distilled_trace.hh each keep one).
 *
 * The registry lock guards only the entry list. Filling an entry
 * (generation, distillation, a disk load) runs under that entry's own
 * mutex, so requests for different streams proceed in parallel. Entries
 * are held by shared_ptr and a lookup copies its entry's pointer under
 * the registry lock, so an eviction running concurrently with lookups
 * never frees an entry a lookup is about to fill, and never evicts one
 * a lookup is in flight on.
 */

#ifndef NURAPID_TRACE_STREAM_REGISTRY_HH
#define NURAPID_TRACE_STREAM_REGISTRY_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nurapid {

template <class T>
class StreamRegistry
{
  public:
    /**
     * Returns @p key's stream after @p fill(std::shared_ptr<const T>&)
     * has run on it under the entry's lock; the pointer is empty on the
     * first request, and fill may create or replace it.
     */
    template <class Fill>
    std::shared_ptr<const T>
    get(const std::string &key, Fill &&fill)
    {
        std::shared_ptr<Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mtx);
            for (const auto &e : entries) {
                if (e->key == key) {
                    entry = e;
                    break;
                }
            }
            if (!entry) {
                entry = std::make_shared<Entry>();
                entry->key = key;
                entries.push_back(entry);
            }
        }
        std::lock_guard<std::mutex> lock(entry->gen_mutex);
        fill(entry->buf);
        return entry->buf;
    }

    /** Drops every entry no one else holds; returns entries freed. */
    std::size_t
    dropUnused()
    {
        return dropIf([](const Entry &) { return true; });
    }

    /** Drops @p key's entry unless someone else holds its stream or a
     *  lookup is in flight on it; true when it was dropped. */
    bool
    release(const std::string &key)
    {
        return dropIf([&](const Entry &e) { return e.key == key; }) != 0;
    }

  private:
    struct Entry
    {
        std::string key;
        std::shared_ptr<const T> buf;
        std::mutex gen_mutex;  //!< serializes filling this entry only
    };

    template <class Pred>
    std::size_t
    dropIf(Pred pred)
    {
        std::lock_guard<std::mutex> lock(mtx);
        // use_count() == 1: only this list holds the entry, and only
        // this lock hands out copies, so no lookup can reach it now.
        // The entry lock then orders its last fill before the reads.
        const auto unused = [&](const std::shared_ptr<Entry> &e) {
            if (e.use_count() != 1 || !pred(*e))
                return false;
            std::unique_lock<std::mutex> gen_lock(e->gen_mutex,
                                                  std::try_to_lock);
            return gen_lock.owns_lock() &&
                (!e->buf || e->buf.use_count() == 1);
        };
        const auto kept =
            std::remove_if(entries.begin(), entries.end(), unused);
        const auto freed = static_cast<std::size_t>(entries.end() - kept);
        entries.erase(kept, entries.end());
        return freed;
    }

    std::mutex mtx;  //!< guards the entry list, never filling
    std::vector<std::shared_ptr<Entry>> entries;
};

} // namespace nurapid

#endif // NURAPID_TRACE_STREAM_REGISTRY_HH
