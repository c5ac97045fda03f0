#include "store/artifact_store.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <system_error>
#include <tuple>
#include <type_traits>

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.h"

namespace fs = std::filesystem;

namespace th {

namespace {

/** Extension quarantined (corrupt) artifacts are renamed to. */
constexpr const char *kBadExt = ".bad";

/** Monotonic discriminator for temp-file names within a process. */
std::atomic<std::uint64_t> tmp_counter{0};

std::string
sanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Decode one @p T payload into a scratch value (verify's check). */
template <typename T>
bool
decodesAs(Decoder &dec)
{
    T scratch;
    return artifactKind<T>().decode(dec, scratch);
}

/** One descriptor row with its payload type erased. */
struct KindRow
{
    ArtifactFormat format;
    bool (*check)(Decoder &);
};

/** The descriptor table as type-erased rows, for list() and verify(). */
constexpr auto kKindRows = std::apply(
    [](const auto &...kind) {
        return std::array{KindRow{
            kind.format,
            decodesAs<typename std::decay_t<decltype(kind)>::Value>}...};
    },
    kArtifactKinds);

/** The first row whose format satisfies @p pred, or null. */
template <typename Pred>
const KindRow *
findRow(Pred pred)
{
    for (const KindRow &row : kKindRows)
        if (pred(row.format))
            return &row;
    return nullptr;
}

/** The descriptor row whose extension @p p carries, or null. */
const KindRow *
rowOf(const fs::path &p)
{
    return findRow(
        [&](const ArtifactFormat &f) { return p.extension() == f.ext; });
}

/**
 * Largest file the store reads: one payload chunk at the chunk
 * reader's cap plus the container header, two chunk headers and a
 * META chunk (a benchmark name and a key), far under 64 KiB. A longer
 * file cannot be an entry, so it is rejected before it is read.
 */
constexpr std::uint64_t kMaxEntryBytes =
    std::uint64_t{kDefaultMaxChunkBytes} + (std::uint64_t{1} << 16);

/** How reading a whole file ended. */
enum class FileRead : std::uint8_t {
    Ok,      ///< Every byte of the file is in the buffer.
    Missing, ///< open() reported ENOENT: nothing is stored there.
    Failed,  ///< Any other failure, a file that is not regular, or
             ///< one longer than kMaxEntryBytes.
};

/**
 * Read all of @p path into @p buf with one open, one fstat and, for
 * any entry the store writes, one read. Entries are committed by
 * rename and never rewritten, so the size fstat reports is the end of
 * file. O_NONBLOCK keeps a FIFO planted at the path from blocking the
 * open; fstat then rejects it as not regular.
 */
FileRead
readFile(const std::string &path, std::vector<std::uint8_t> &buf)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0)
        return errno == ENOENT ? FileRead::Missing : FileRead::Failed;
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
              static_cast<std::uint64_t>(st.st_size) <= kMaxEntryBytes;
    if (ok) {
        buf.resize(static_cast<std::size_t>(st.st_size));
        std::size_t got = 0;
        while (ok && got < buf.size()) {
            const ssize_t n =
                ::read(fd, buf.data() + got, buf.size() - got);
            if (n > 0)
                got += static_cast<std::size_t>(n);
            else
                ok = n < 0 && errno == EINTR; // 0: shorter than fstat said.
        }
    }
    ::close(fd);
    return ok ? FileRead::Ok : FileRead::Failed;
}

/**
 * Validate @p bytes as a @p format entry of (@p benchmark, @p key):
 * the current schema, a matching META chunk and exactly one payload
 * chunk, which @p decode must consume.
 */
bool
parseEntry(const std::vector<std::uint8_t> &bytes,
           const ArtifactFormat &format, const std::string &benchmark,
           std::uint64_t key, const std::function<bool(Decoder &)> &decode)
{
    MemSource src(bytes);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string err;
    if (!reader.readHeader(format.tag, schema, err) ||
        schema != kStoreSchemaVersion)
        return false;

    bool meta_ok = false, result_ok = false;
    std::string tag;
    std::vector<std::uint8_t> payload;
    for (;;) {
        const ChunkReader::Next what = reader.next(tag, payload, err);
        if (what == ChunkReader::Next::End)
            break;
        if (what == ChunkReader::Next::Corrupt)
            return false;
        if (tag == "META") {
            Decoder d(payload);
            const std::string bench = d.str();
            const std::uint64_t hash = d.u64();
            if (!d.ok() || bench != benchmark || hash != key)
                return false;
            meta_ok = true;
        } else if (tag == format.tag) {
            // Committed entries hold exactly one payload chunk; a second
            // one would decode on top of the first.
            Decoder d(payload);
            if (result_ok || !decode(d) || !d.atEnd())
                return false;
            result_ok = true;
        }
    }
    return meta_ok && result_ok;
}

/**
 * Every entry file in @p dir, valid or quarantined, oldest first by
 * (mtime, path), with one stat per file and no read: the size, the
 * mtime and whether it is quarantined are all the cap sweep needs.
 */
std::vector<ArtifactStore::Entry>
scanEntries(const std::string &dir)
{
    std::vector<ArtifactStore::Entry> entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        const fs::path &p = de.path();
        const std::string name = p.filename().string();
        const bool bad = name.size() > 4 &&
            name.compare(name.size() - 4, 4, kBadExt) == 0;
        if (!bad && rowOf(p) == nullptr)
            continue; // Temp files and strangers.
        struct stat st {};
        if (::stat(p.c_str(), &st) != 0)
            continue; // Removed since the directory was read.
        ArtifactStore::Entry e;
        e.path = p.string();
        e.quarantined = bad;
        e.bytes = static_cast<std::uint64_t>(st.st_size);
        e.mtimeNs = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                        1000000000 +
                    st.st_mtim.tv_nsec;
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const ArtifactStore::Entry &a,
                 const ArtifactStore::Entry &b) {
                  return a.mtimeNs != b.mtimeNs ? a.mtimeNs < b.mtimeNs
                                                : a.path < b.path;
              });
    return entries;
}

} // namespace

ArtifactStore::ArtifactStore(const StoreOptions &opts) : opts_(opts)
{
    if (opts_.dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(opts_.dir, ec);
    if (ec) {
        warn("artifact store: cannot create '%s' (%s); store disabled",
             opts_.dir.c_str(), ec.message().c_str());
        opts_.dir.clear();
    }
}

std::string
ArtifactStore::entryPath(const ArtifactFormat &format,
                         const std::string &benchmark,
                         std::uint64_t key) const
{
    return (fs::path(opts_.dir) /
            strformat("%s-%016llx%s", sanitize(benchmark).c_str(),
                      static_cast<unsigned long long>(key), format.ext))
        .string();
}

bool
ArtifactStore::touchEntry(const std::string &path)
{
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return !ec;
}

void
ArtifactStore::noteTouchFailure(const std::string &path)
{
    touch_failures_.fetch_add(1, std::memory_order_relaxed);
    if (!touch_warned_.exchange(true)) {
        warn("artifact store: cannot refresh recency of '%s'; LRU "
             "eviction may drop recently used entries first",
             path.c_str());
    }
}

bool
ArtifactStore::noteIfRaceLost(const std::string &path)
{
    std::error_code ec;
    if (fs::exists(path, ec))
        return false;
    race_lost_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ArtifactStore::quarantine(const std::string &path)
{
    std::error_code ec;
    fs::rename(path, path + kBadExt, ec);
    if (ec)
        fs::remove(path, ec); // Last resort: drop the bad entry.
    corrupt_.fetch_add(1, std::memory_order_relaxed);
}

bool
ArtifactStore::loadEntry(const ArtifactFormat &format,
                         const std::string &benchmark, std::uint64_t key,
                         const PayloadDecoder &decode)
{
    if (!enabled())
        return false;
    const std::string path = entryPath(format, benchmark, key);

    LockGuard lock(mu_);
    std::vector<std::uint8_t> bytes;
    const FileRead got = readFile(path, bytes);
    if (got == FileRead::Missing) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (got == FileRead::Failed ||
        !parseEntry(bytes, format, benchmark, key, decode)) {
        // Only ENOENT from open() is a plain miss: left in place, a
        // path that does not read as an entry (a directory, a short
        // file, a bad CRC) would fail every lookup and can block the
        // key's next commit. Distinguish a concurrent eviction (the
        // file vanished under us — benign, another process gc'd it)
        // from real corruption before quarantining: quarantine on
        // ENOENT would manufacture phantom corrupt counts on a shared
        // store.
        if (noteIfRaceLost(path)) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        warn("artifact store: corrupt entry '%s'; quarantined, "
             "recomputing", path.c_str());
        quarantine(path);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Touch for LRU: a hit makes the entry recently used. A failed
    // touch does not invalidate the hit, but it is counted — silent
    // failure here makes gc evict the hottest entries first. A touch
    // that failed because the entry vanished is a lost race, not a
    // broken filesystem (the result in hand is still valid).
    if (!touchEntry(path) && !noteIfRaceLost(path))
        noteTouchFailure(path);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ArtifactStore::commitEntry(const ArtifactFormat &format,
                           const std::string &benchmark,
                           std::uint64_t key, const Encoder &body)
{
    if (!enabled())
        return false;
    const std::string path = entryPath(format, benchmark, key);
    const std::string tmp = strformat(
        "%s.tmp.%d.%llu", path.c_str(), static_cast<int>(getpid()),
        static_cast<unsigned long long>(
            tmp_counter.fetch_add(1, std::memory_order_relaxed)));

    Encoder meta;
    meta.str(benchmark);
    meta.u64(key);

    LockGuard lock(mu_);
    ChunkFileWriter writer;
    bool ok = writer.open(tmp, format.tag, kStoreSchemaVersion);
    ok = ok && writer.chunk("META", meta);
    ok = ok && writer.chunk(format.tag, body);
    ok = writer.close() && ok;
    if (!ok) {
        warn("artifact store: failed to write '%s'", tmp.c_str());
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec); // Atomic commit.
    if (ec) {
        warn("artifact store: cannot commit '%s' (%s)", path.c_str(),
             ec.message().c_str());
        fs::remove(tmp, ec);
        return false;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
    enforceCapLocked();
    return true;
}

StoreStats
ArtifactStore::stats() const
{
    StoreStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    s.touchFailures = touch_failures_.load(std::memory_order_relaxed);
    s.raceLost = race_lost_.load(std::memory_order_relaxed);
    return s;
}

std::vector<ArtifactStore::Entry>
ArtifactStore::list() const
{
    if (!enabled())
        return {};
    std::vector<Entry> entries = scanEntries(opts_.dir);
    std::vector<std::uint8_t> bytes;
    for (Entry &e : entries) {
        const KindRow *row = e.quarantined ? nullptr : rowOf(e.path);
        if (row == nullptr)
            continue;
        // Best-effort metadata read (for display only).
        if (readFile(e.path, bytes) != FileRead::Ok)
            continue;
        MemSource src(bytes);
        ChunkReader reader(src);
        std::uint32_t schema = 0;
        std::string err, tag;
        std::vector<std::uint8_t> payload;
        if (!reader.readHeader(row->format.tag, schema, err) ||
            reader.next(tag, payload, err) != ChunkReader::Next::Chunk ||
            tag != "META")
            continue;
        Decoder d(payload);
        const std::string bench = d.str();
        const std::uint64_t hash = d.u64();
        if (d.ok()) {
            e.benchmark = bench;
            e.cfgHash = hash;
            e.format = row->format.tag;
        }
    }
    return entries;
}

int
ArtifactStore::gc(std::uint64_t max_bytes)
{
    if (!enabled())
        return 0;
    LockGuard lock(mu_);
    int removed = 0;
    std::uint64_t live_bytes = 0;
    std::vector<Entry> live;
    for (Entry &e : scanEntries(opts_.dir)) {
        if (e.quarantined) {
            std::error_code ec;
            if (fs::remove(e.path, ec)) {
                ++removed;
                evictions_.fetch_add(1, std::memory_order_relaxed);
            } else if (!ec) {
                // Already gone: a concurrent process removed it first.
                race_lost_.fetch_add(1, std::memory_order_relaxed);
            }
        } else {
            live_bytes += e.bytes;
            live.push_back(std::move(e));
        }
    }
    // Oldest-first eviction until the live set fits.
    for (const Entry &e : live) {
        if (live_bytes <= max_bytes)
            break;
        std::error_code ec;
        if (fs::remove(e.path, ec)) {
            live_bytes -= e.bytes;
            ++removed;
            evictions_.fetch_add(1, std::memory_order_relaxed);
        } else if (!ec) {
            // A concurrent gc won this eviction; its bytes are gone
            // from disk either way, so the cap math still counts them.
            live_bytes -= e.bytes;
            race_lost_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return removed;
}

int
ArtifactStore::verify()
{
    if (!enabled())
        return 0;
    LockGuard lock(mu_);
    int bad = 0;
    for (const Entry &e : list()) {
        if (e.quarantined) {
            ++bad;
            continue;
        }
        // Validate against the key encoded in the filename-independent
        // META chunk with the reader of the entry's own kind; an
        // unreadable META leaves the format empty and fails here.
        const KindRow *row = findRow([&](const ArtifactFormat &f) {
            return e.format == f.tag;
        });
        std::vector<std::uint8_t> bytes;
        const bool valid = row != nullptr &&
            readFile(e.path, bytes) == FileRead::Ok &&
            parseEntry(bytes, row->format, e.benchmark, e.cfgHash,
                       row->check);
        if (!valid) {
            warn("artifact store: '%s' failed verification; "
                 "quarantined", e.path.c_str());
            quarantine(e.path);
            ++bad;
        }
    }
    return bad;
}

std::vector<ArtifactStore::Entry>
ArtifactStore::gcPlan(std::uint64_t max_bytes) const
{
    std::vector<Entry> plan;
    if (!enabled())
        return plan;
    LockGuard lock(mu_);
    std::uint64_t live_bytes = 0;
    std::vector<Entry> live;
    for (Entry &e : list()) {
        if (e.quarantined) {
            plan.push_back(std::move(e));
        } else {
            live_bytes += e.bytes;
            live.push_back(std::move(e));
        }
    }
    for (Entry &e : live) {
        if (live_bytes <= max_bytes)
            break;
        live_bytes -= e.bytes;
        plan.push_back(std::move(e));
    }
    return plan;
}

void
ArtifactStore::enforceCapLocked()
{
    if (opts_.maxBytes == 0)
        return;
    std::uint64_t total = 0;
    const std::vector<Entry> entries = scanEntries(opts_.dir);
    for (const Entry &e : entries)
        total += e.quarantined ? 0 : e.bytes;
    if (total <= opts_.maxBytes)
        return;
    for (const Entry &e : entries) {
        if (e.quarantined)
            continue;
        std::error_code ec;
        if (fs::remove(e.path, ec)) {
            total -= e.bytes;
            evictions_.fetch_add(1, std::memory_order_relaxed);
        } else if (!ec) {
            // Entry vanished between the scan and remove(): another
            // process evicted it. Its bytes left the store regardless.
            total -= e.bytes;
            race_lost_.fetch_add(1, std::memory_order_relaxed);
        }
        if (total <= opts_.maxBytes)
            break;
    }
}

} // namespace th
