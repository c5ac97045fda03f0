/**
 * @file
 * Disk-backed artifact store: persists simulation results across
 * processes so a warm re-run of a sweep skips simulation entirely.
 * Every kind of result goes through the same code, driven by its row
 * in the descriptor table (store/artifact_kinds.h): one entry per
 * (kind, benchmark, key), named `<benchmark>-<key><ext>`, holding a
 * META chunk with the key and one payload chunk tagged like the
 * container.
 *
 * Entries are keyed by (benchmark, key hash, schema version); the
 * schema version covers every payload encoding (io/serialize.h) and
 * the meaning of the key hashes (sim/configs.h) — bump
 * kStoreSchemaVersion whenever either changes and every stale artifact
 * is invalidated instead of silently misread.
 *
 * The store opens its directory once, at construction, and reaches
 * every entry by name through that handle (openat, renameat,
 * unlinkat, fstatat): no operation resolves the directory's path
 * again. A hit is openat + fstat + read + futimens + close.
 *
 * Durability contract:
 *  - Commits are atomic: artifacts are written to a temp file in the
 *    store directory and renamed into place, so readers never see a
 *    half-written entry and concurrent writers of the same key settle
 *    on one complete file.
 *  - Corruption (truncation, bit flips, wrong schema, key mismatch) is
 *    detected by the container's CRC/header checks; bad entries are
 *    quarantined (renamed to *.bad) and the caller recomputes — a
 *    corrupt store degrades performance, never correctness.
 *  - The store is size-capped: after each insert an LRU sweep (by file
 *    mtime) evicts the oldest entries until the cap is respected.
 *
 * Thread model: all methods are safe to call concurrently (one mutex
 * around filesystem transactions; counters are atomics).
 */

#ifndef TH_STORE_ARTIFACT_STORE_H
#define TH_STORE_ARTIFACT_STORE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "store/artifact_kinds.h"

namespace th {

/**
 * On-disk schema version, written into every entry's container
 * header. Covers every payload encoding AND the key-hash semantics:
 * bump it when io/serialize.h changes any encoded field set or order,
 * or when a key hash in sim/configs.cpp gains/loses/reorders fields
 * (the golden-hash test in tests/test_configs.cpp pins the latter).
 */
inline constexpr std::uint32_t kStoreSchemaVersion = 1;

/** Store configuration. */
struct StoreOptions
{
    /** Store directory; empty disables the store. Created on demand. */
    std::string dir;
    /** LRU size cap over all entries; 0 = unlimited. */
    std::uint64_t maxBytes = 256ULL << 20;
};

/** Monotonic operation counters (mirrors System::CacheStats). */
struct StoreStats
{
    std::uint64_t hits = 0;      ///< Loads served from disk.
    std::uint64_t misses = 0;    ///< Key absent (or entry unreadable).
    std::uint64_t stores = 0;    ///< Artifacts committed.
    std::uint64_t evictions = 0; ///< Entries removed by the LRU cap.
    std::uint64_t corrupt = 0;   ///< Entries quarantined as invalid.
    /** LRU recency touches that failed (read-only store dir or a
     *  filesystem rejecting mtime updates): hits stop refreshing
     *  recency, so gc may evict hot entries first. */
    std::uint64_t touchFailures = 0;
    /** Transactions that lost a race with a concurrent process — the
     *  entry vanished (evicted/gc'd elsewhere) between our check and
     *  our operation. Benign: the caller recomputes or skips; counted
     *  separately from touchFailures/corrupt so a shared store under
     *  multi-process load is distinguishable from a broken one. */
    std::uint64_t raceLost = 0;
};

class ArtifactStore
{
  public:
    /** Creates @p opts.dir if needed and opens it; a directory that
     *  cannot be created or opened disables the store (warned). */
    explicit ArtifactStore(const StoreOptions &opts);
    virtual ~ArtifactStore();
    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /** False when constructed with an empty or unusable directory. */
    bool enabled() const { return dir_fd_ >= 0; }
    const std::string &dir() const { return opts_.dir; }

    /**
     * Look up the @p T artifact of (@p benchmark, @p key). True on a
     * verified hit; false on absence (open() reports ENOENT) or on a
     * corrupt entry, meaning anything else that fails to open, read or
     * validate (it is counted, quarantined, and warned about — the
     * caller just recomputes). A hit opens and reads the entry file
     * once and refreshes its mtime through the open descriptor. @p out
     * is only written on a hit. @p key is the
     * kind's key hash from sim/configs.h (configHash, dtmConfigHash,
     * intervalModelKey, multicoreConfigHash).
     */
    template <typename T>
    bool load(const std::string &benchmark, std::uint64_t key, T &out)
    {
        const ArtifactKind<T> &kind = artifactKind<T>();
        T value;
        if (!loadEntry(kind.format, benchmark, key, [&](Decoder &dec) {
                return kind.decode(dec, value);
            }))
            return false;
        out = std::move(value);
        return true;
    }

    /** Persist the @p T artifact of (@p benchmark, @p key): atomic
     *  commit + LRU sweep. */
    template <typename T>
    bool save(const std::string &benchmark, std::uint64_t key,
              const T &value)
    {
        const ArtifactKind<T> &kind = artifactKind<T>();
        Encoder body;
        kind.encode(body, value);
        return commitEntry(kind.format, benchmark, key, body);
    }

    /** load/save under the names the end-to-end benchmark calls. */
    bool loadCoreResult(const std::string &benchmark,
                        std::uint64_t cfg_hash, CoreResult &out)
    {
        return load(benchmark, cfg_hash, out);
    }
    bool storeCoreResult(const std::string &benchmark,
                         std::uint64_t cfg_hash, const CoreResult &r)
    {
        return save(benchmark, cfg_hash, r);
    }

    StoreStats stats() const;

    /** One store entry as seen by maintenance commands. */
    struct Entry
    {
        std::string name; ///< File name within the store directory.
        std::string path;
        std::string benchmark; ///< Empty when unreadable.
        std::uint64_t cfgHash = 0;
        std::uint64_t bytes = 0;
        std::int64_t mtimeNs = 0; ///< For LRU ordering / display.
        bool quarantined = false; ///< *.bad leftover.
        /** The kind's format tag; "" if unreadable. */
        std::string format;
    };

    /** All entries (valid and quarantined), oldest first, each with
     *  its META chunk read for display. The cap sweep and gc() take a
     *  stat per file instead and read no entry. */
    std::vector<Entry> list() const;

    /**
     * Evict quarantined files, then oldest entries, until the live
     * total is <= @p max_bytes. Returns the number of files removed.
     */
    int gc(std::uint64_t max_bytes);

    /**
     * What gc(@p max_bytes) would evict, in eviction order
     * (quarantined files first, then oldest live entries until the
     * live total fits), without removing anything — the `store gc
     * --dry-run` view. Best-effort snapshot: a concurrent writer can
     * change the real gc's choices.
     */
    std::vector<Entry> gcPlan(std::uint64_t max_bytes) const;

    /**
     * Re-validate every entry, quarantining corrupt ones.
     * @return The number of entries found invalid.
     */
    int verify();

  protected:
    /**
     * Refresh the mtime of the entry open as @p fd (file @p name in the
     * store directory) so the LRU sweep sees this hit as recent; the
     * atime is left alone. Virtual as a failure-injection seam: tests
     * override it to exercise the touch-failure accounting without
     * needing a filesystem that rejects mtime updates. True on
     * success. Called with mu_ held (part of the load transaction).
     */
    virtual bool touchEntry(int fd, const std::string &name)
        TH_REQUIRES(mu_);

  private:
    /** Decodes the payload chunk (the caller checks it is consumed). */
    using PayloadDecoder = std::function<bool(Decoder &)>;

    /** The path of entry @p name, for messages and Entry::path. */
    std::string pathOf(const std::string &name) const;
    /** The load transaction behind load(). */
    bool loadEntry(const ArtifactFormat &format,
                   const std::string &benchmark, std::uint64_t key,
                   const PayloadDecoder &decode);
    /** The commit transaction behind save(). */
    bool commitEntry(const ArtifactFormat &format,
                     const std::string &benchmark, std::uint64_t key,
                     const Encoder &body);
    void quarantine(const std::string &name) TH_REQUIRES(mu_);
    /** Count a failed touchEntry and warn the first time. */
    void noteTouchFailure(const std::string &name) TH_REQUIRES(mu_);
    /** True when entry @p name no longer exists — a concurrent process
     *  won the race; the failure is benign and counted under
     *  raceLost. */
    bool noteIfRaceLost(const std::string &name) TH_REQUIRES(mu_);
    /** Enforce opts_.maxBytes; caller holds mu_. */
    void enforceCapLocked() TH_REQUIRES(mu_);

    StoreOptions opts_;
    /** The store directory, opened once; -1 when disabled. */
    int dir_fd_ = -1;
    /** Serializes filesystem transactions: the guarded state is the
     *  store directory itself (lookup/commit/quarantine/evict must not
     *  interleave); the TH_REQUIRES methods above are its data set. */
    mutable Mutex mu_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> touch_failures_{0};
    std::atomic<std::uint64_t> race_lost_{0};
    std::atomic<bool> touch_warned_{false};
};

} // namespace th

#endif // TH_STORE_ARTIFACT_STORE_H
