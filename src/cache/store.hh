/**
 * @file
 * On-disk content-addressed result store.
 *
 * Layout: one file per ScenarioKey under the cache directory, named
 * by the key's digest. Each entry is
 *
 *     canon-cache 1\n          (store-format magic + version)
 *     <canonical key text>\n   (verified on every read)
 *     <payload bytes>          (opaque to the store)
 *
 * Concurrency contract: the store is safe for any number of
 * concurrent readers and writers across threads *and* processes --
 * parallel --jobs workers and separate --shard invocations may share
 * one directory. Writes go to a uniquely named temp file in the same
 * directory and are published atomically (a hard link that never
 * replaces an entry, or under Refresh a rename that does), so a
 * reader observes either no entry or a complete one, never a torn
 * file; concurrent writers of the same key race benignly: the first
 * to publish creates the entry and counts the store, the others find
 * it and count nothing (every writer writes the same bytes for the
 * same key).
 * Reads verify the magic line and the full canonical key text, so a
 * digest collision, a stale-format entry, or external corruption
 * degrades to a miss, never to a wrong result.
 *
 * Statistics: hits (jobs satisfied from the store), misses (jobs
 * actually executed), stores (entries created) are tracked with
 * atomic counters so pool workers can update them concurrently.
 */

#ifndef CANON_CACHE_STORE_HH
#define CANON_CACHE_STORE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "cache/key.hh"
#include "cache/mode.hh"

namespace canon
{
namespace cache
{

/**
 * Largest entry file lookup() reads. Far above any payload (a
 * five-architecture CaseResult is about 2 KB); a larger file under an
 * entry name is a miss, read no further than its fstat.
 */
inline constexpr std::uint64_t kMaxEntryBytes = 16u << 20; // 16 MiB

/** Snapshot of a store's counters. */
struct CacheStats
{
    std::uint64_t hits = 0;   //!< jobs satisfied from the store
    std::uint64_t misses = 0; //!< jobs executed (lookup failed or off)
    std::uint64_t stores = 0; //!< entries created (or refreshed)
};

/**
 * The canonical "cache: H hits, M misses, S stored; simulation jobs
 * executed: M" report line for a counter snapshot -- the one format
 * shared by the store's lifetime line and the per-request delta a
 * ResultSet reports (warm-cache CI gates grep it, so the bytes are
 * load-bearing).
 */
std::string statsLineText(const CacheStats &stats);

class ResultStore
{
  public:
    ResultStore(std::string dir, Mode mode)
        : dir_(std::move(dir)), mode_(mode)
    {
    }

    const std::string &dir() const { return dir_; }
    Mode mode() const { return mode_; }

    /**
     * Create the cache directory (recursively) if needed. Returns an
     * empty string on success, otherwise the error message. Call
     * once before the first lookup/store.
     */
    std::string prepare() const;

    /** True when this mode consults the store before running. */
    bool readsEnabled() const
    {
        return mode_ == Mode::Read || mode_ == Mode::ReadWrite;
    }

    /** True when this mode writes computed results back. */
    bool writesEnabled() const
    {
        return mode_ == Mode::Write || mode_ == Mode::ReadWrite ||
               mode_ == Mode::Refresh;
    }

    /** True when an existing entry is rewritten (Refresh). */
    bool overwrites() const { return mode_ == Mode::Refresh; }

    /**
     * Fetch the payload stored under @p key. Returns nullopt when
     * reads are disabled by the mode, the entry is absent, is not a
     * regular file, is larger than kMaxEntryBytes, carries a
     * different canonical key, or predates the store format. It
     * opens, fstats and reads the file once (sized by the fstat) and
     * checks the magic line and key in the read buffer. Never
     * touches the counters: the caller records the hit only once the
     * payload proves usable (recordHit), so a fetched-but-
     * undecodable entry counts as exactly one miss, not as both.
     */
    std::optional<std::string> lookup(const ScenarioKey &key) const;

    /** Count one job satisfied from the store. */
    void recordHit() const
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Publish @p payload under @p key via a temp file; a no-op when
     * writes are disabled by the mode. Without overwrites() or
     * @p replace, an existing entry is left untouched (the bytes for a
     * given key are the same no matter who computes them), also one
     * another writer publishes while this call writes its temp file.
     * @p replace renames over the entry as Refresh does: the caller
     * recomputed an entry it could not decode. Returns false only on
     * I/O failure. A publish counts one store; @p wrote (when
     * non-null) reports whether this call actually published an
     * entry, i.e. exactly when the store counter moved.
     */
    bool store(const ScenarioKey &key, const std::string &payload,
               bool *wrote = nullptr, bool replace = false) const;

    /** Count one executed job (call before computing a miss). */
    void recordMiss() const
    {
        misses_.fetch_add(1, std::memory_order_relaxed);
    }

    CacheStats stats() const
    {
        CacheStats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.stores = stores_.load(std::memory_order_relaxed);
        return s;
    }

    /**
     * The one-line report every cached run prints; "simulation jobs
     * executed" repeats the miss count, which is what warm-cache CI
     * gates assert on.
     */
    std::string statsLine() const;

  private:
    std::string entryPath(const ScenarioKey &key) const;

    std::string dir_;
    Mode mode_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> stores_{0};
};

} // namespace cache
} // namespace canon

#endif // CANON_CACHE_STORE_HH
