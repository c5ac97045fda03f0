#include "store/artifact_store.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <string_view>
#include <system_error>
#include <tuple>
#include <type_traits>

#include <cerrno>
#include <dirent.h>
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

/** True when file @p name is longer than @p suffix and ends with it. */
bool
endsWith(const std::string &name, std::string_view suffix)
{
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** The descriptor row whose extension file @p name carries, or null. */
const KindRow *
rowOf(const std::string &name)
{
    return findRow(
        [&](const ArtifactFormat &f) { return endsWith(name, f.ext); });
}

/** The file name of (@p format, @p benchmark, @p key). */
std::string
entryName(const ArtifactFormat &format, const std::string &benchmark,
          std::uint64_t key)
{
    return strformat("%s-%016llx%s", sanitize(benchmark).c_str(),
                     static_cast<unsigned long long>(key), format.ext);
}

/** An owned file descriptor, closed when it goes out of scope. */
class UniqueFd
{
  public:
    explicit UniqueFd(int fd) : fd_(fd) {}
    ~UniqueFd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    UniqueFd(const UniqueFd &) = delete;
    UniqueFd &operator=(const UniqueFd &) = delete;

    int descriptor() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

  private:
    int fd_;
};

/**
 * Open entry @p name of the directory @p dirfd for reading; -1 with
 * errno set on failure. O_NONBLOCK keeps a FIFO planted at the name
 * from blocking the open; readAll's fstat then rejects it as not
 * regular.
 */
int
openEntry(int dirfd, const std::string &name)
{
    return ::openat(dirfd, name.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
}

/**
 * Largest file the store reads: one payload chunk at the chunk
 * reader's cap plus the container header, two chunk headers and a
 * META chunk (a benchmark name and a key), far under 64 KiB. A longer
 * file cannot be an entry, so it is rejected before it is read.
 */
constexpr std::uint64_t kMaxEntryBytes =
    std::uint64_t{kDefaultMaxChunkBytes} + (std::uint64_t{1} << 16);

/**
 * Read all of the open file @p fd into @p buf with one fstat and, for
 * any entry the store writes, one read. Entries are committed by
 * rename and never rewritten, so the size fstat reports is the end of
 * file. False for a file that is not regular, one longer than
 * kMaxEntryBytes, or a failed read.
 */
bool
readAll(int fd, std::vector<std::uint8_t> &buf)
{
    struct stat st {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) ||
        static_cast<std::uint64_t>(st.st_size) > kMaxEntryBytes)
        return false;
    buf.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < buf.size()) {
        const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
        if (n > 0)
            got += static_cast<std::size_t>(n);
        else if (n == 0 || errno != EINTR)
            return false; // 0: shorter than fstat said.
    }
    return true;
}

/**
 * Create file @p name in the directory @p dirfd (it must not exist)
 * and write @p bytes to it.
 */
bool
writeNewFile(int dirfd, const std::string &name,
             const std::vector<std::uint8_t> &bytes)
{
    const int fd = ::openat(dirfd, name.c_str(),
                            O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0)
        return false;
    bool ok = true;
    std::size_t put = 0;
    while (ok && put < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + put, bytes.size() - put);
        if (n > 0)
            put += static_cast<std::size_t>(n);
        else
            ok = n < 0 && errno == EINTR;
    }
    return ::close(fd) == 0 && ok;
}

/** How removing a file ended. */
enum class Removal : std::uint8_t {
    Removed, ///< The file (or empty directory) is gone.
    Missing, ///< Nothing was there: a concurrent process removed it.
    Failed,  ///< Anything else.
};

/** Remove @p name from @p dirfd as std::filesystem::remove would: a
 *  file, or else an empty directory. */
Removal
removeAt(int dirfd, const std::string &name)
{
    if (::unlinkat(dirfd, name.c_str(), 0) == 0 ||
        (errno == EISDIR &&
         ::unlinkat(dirfd, name.c_str(), AT_REMOVEDIR) == 0))
        return Removal::Removed;
    return errno == ENOENT ? Removal::Missing : Removal::Failed;
}

/** The message of error number @p err. */
std::string
errorText(int err)
{
    return std::error_code(err, std::generic_category()).message();
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
 * Every entry file in the directory @p dirfd, valid or quarantined,
 * oldest first by (mtime, name), with one fstatat per file and no
 * read: the size, the mtime and whether it is quarantined are all the
 * cap sweep needs. The listing reads its own open of the directory,
 * so concurrent scans do not share a read position.
 */
std::vector<ArtifactStore::Entry>
scanEntries(int dirfd)
{
    std::vector<ArtifactStore::Entry> entries;
    const int fd = ::openat(dirfd, ".", O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return entries;
    DIR *dir = ::fdopendir(fd);
    if (dir == nullptr) {
        ::close(fd);
        return entries;
    }
    const std::unique_ptr<DIR, int (*)(DIR *)> closer(dir, &::closedir);
    // readdir is safe here: this stream is private to this call.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    while (const dirent *de = ::readdir(dir)) {
        const std::string name = de->d_name;
        const bool bad = endsWith(name, kBadExt);
        if (!bad && rowOf(name) == nullptr)
            continue; // Temp files, strangers, "." and "..".
        struct stat st {};
        if (::fstatat(dirfd, name.c_str(), &st, 0) != 0)
            continue; // Removed since the directory was read.
        ArtifactStore::Entry e;
        e.name = name;
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
                                                : a.name < b.name;
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
        return;
    }
    dir_fd_ = ::open(opts_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd_ < 0) {
        warn("artifact store: cannot open '%s' (%s); store disabled",
             opts_.dir.c_str(), errorText(errno).c_str());
        opts_.dir.clear();
    }
}

ArtifactStore::~ArtifactStore()
{
    if (dir_fd_ >= 0)
        ::close(dir_fd_);
}

std::string
ArtifactStore::pathOf(const std::string &name) const
{
    return (fs::path(opts_.dir) / name).string();
}

bool
ArtifactStore::touchEntry(int fd, const std::string &)
{
    const struct timespec times[2] = {{0, UTIME_OMIT}, {0, UTIME_NOW}};
    return ::futimens(fd, times) == 0;
}

void
ArtifactStore::noteTouchFailure(const std::string &name)
{
    touch_failures_.fetch_add(1, std::memory_order_relaxed);
    if (!touch_warned_.exchange(true)) {
        warn("artifact store: cannot refresh recency of '%s'; LRU "
             "eviction may drop recently used entries first",
             pathOf(name).c_str());
    }
}

bool
ArtifactStore::noteIfRaceLost(const std::string &name)
{
    struct stat st {};
    if (::fstatat(dir_fd_, name.c_str(), &st, 0) == 0)
        return false;
    race_lost_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ArtifactStore::quarantine(const std::string &name)
{
    const std::string bad = name + kBadExt;
    if (::renameat(dir_fd_, name.c_str(), dir_fd_, bad.c_str()) != 0)
        removeAt(dir_fd_, name); // Last resort: drop the bad entry.
    corrupt_.fetch_add(1, std::memory_order_relaxed);
}

bool
ArtifactStore::loadEntry(const ArtifactFormat &format,
                         const std::string &benchmark, std::uint64_t key,
                         const PayloadDecoder &decode)
{
    if (!enabled())
        return false;
    const std::string name = entryName(format, benchmark, key);

    LockGuard lock(mu_);
    const UniqueFd file(openEntry(dir_fd_, name));
    if (!file.valid() && errno == ENOENT) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::vector<std::uint8_t> bytes;
    if (!file.valid() || !readAll(file.descriptor(), bytes) ||
        !parseEntry(bytes, format, benchmark, key, decode)) {
        // Only ENOENT from the open is a plain miss: left in place, a
        // name that does not read as an entry (a directory, a short
        // file, a bad CRC) would fail every lookup and can block the
        // key's next commit. Distinguish a concurrent eviction (the
        // file vanished under us — benign, another process gc'd it)
        // from real corruption before quarantining: quarantine on
        // ENOENT would manufacture phantom corrupt counts on a shared
        // store.
        if (noteIfRaceLost(name)) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        warn("artifact store: corrupt entry '%s'; quarantined, "
             "recomputing", pathOf(name).c_str());
        quarantine(name);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Touch for LRU: a hit makes the entry recently used. A failed
    // touch does not invalidate the hit, but it is counted — silent
    // failure here makes gc evict the hottest entries first. A touch
    // that failed because the entry vanished is a lost race, not a
    // broken filesystem (the result in hand is still valid).
    if (!touchEntry(file.descriptor(), name) && !noteIfRaceLost(name))
        noteTouchFailure(name);
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
    const std::string name = entryName(format, benchmark, key);
    const std::string tmp = strformat(
        "%s.tmp.%d.%llu", name.c_str(), static_cast<int>(getpid()),
        static_cast<unsigned long long>(
            tmp_counter.fetch_add(1, std::memory_order_relaxed)));

    Encoder meta;
    meta.str(benchmark);
    meta.u64(key);
    MemSink file;
    ChunkWriter writer(file);
    writer.begin(format.tag, kStoreSchemaVersion);
    writer.chunk("META", meta);
    writer.chunk(format.tag, body);

    LockGuard lock(mu_);
    if (!writeNewFile(dir_fd_, tmp, file.data())) {
        warn("artifact store: failed to write '%s'", pathOf(tmp).c_str());
        removeAt(dir_fd_, tmp);
        return false;
    }
    // Atomic commit.
    if (::renameat(dir_fd_, tmp.c_str(), dir_fd_, name.c_str()) != 0) {
        warn("artifact store: cannot commit '%s' (%s)",
             pathOf(name).c_str(), errorText(errno).c_str());
        removeAt(dir_fd_, tmp);
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
    std::vector<Entry> entries = scanEntries(dir_fd_);
    std::vector<std::uint8_t> bytes;
    for (Entry &e : entries) {
        e.path = pathOf(e.name);
        const KindRow *row = e.quarantined ? nullptr : rowOf(e.name);
        if (row == nullptr)
            continue;
        // Best-effort metadata read (for display only).
        const UniqueFd file(openEntry(dir_fd_, e.name));
        if (!file.valid() || !readAll(file.descriptor(), bytes))
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
    for (Entry &e : scanEntries(dir_fd_)) {
        if (e.quarantined) {
            const Removal r = removeAt(dir_fd_, e.name);
            if (r == Removal::Removed) {
                ++removed;
                evictions_.fetch_add(1, std::memory_order_relaxed);
            } else if (r == Removal::Missing) {
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
        const Removal r = removeAt(dir_fd_, e.name);
        if (r == Removal::Removed) {
            live_bytes -= e.bytes;
            ++removed;
            evictions_.fetch_add(1, std::memory_order_relaxed);
        } else if (r == Removal::Missing) {
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
        bool valid = false;
        if (row != nullptr) {
            const UniqueFd file(openEntry(dir_fd_, e.name));
            valid = file.valid() && readAll(file.descriptor(), bytes) &&
                    parseEntry(bytes, row->format, e.benchmark, e.cfgHash,
                               row->check);
        }
        if (!valid) {
            warn("artifact store: '%s' failed verification; "
                 "quarantined", e.path.c_str());
            quarantine(e.name);
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
    const std::vector<Entry> entries = scanEntries(dir_fd_);
    for (const Entry &e : entries)
        total += e.quarantined ? 0 : e.bytes;
    if (total <= opts_.maxBytes)
        return;
    for (const Entry &e : entries) {
        if (e.quarantined)
            continue;
        const Removal r = removeAt(dir_fd_, e.name);
        if (r == Removal::Removed) {
            total -= e.bytes;
            evictions_.fetch_add(1, std::memory_order_relaxed);
        } else if (r == Removal::Missing) {
            // Entry vanished between the scan and the unlink: another
            // process evicted it. Its bytes left the store regardless.
            total -= e.bytes;
            race_lost_.fetch_add(1, std::memory_order_relaxed);
        }
        if (total <= opts_.maxBytes)
            break;
    }
}

} // namespace th
