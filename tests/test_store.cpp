#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>

#include "io/serialize.h"
#include "sim/system.h"
#include "store/artifact_store.h"

namespace th {
namespace {

namespace fs = std::filesystem;

CoreResult
syntheticResult(std::uint64_t salt)
{
    CoreResult r;
    r.freqGhz = 2.66 + 0.001 * static_cast<double>(salt);
    r.perf.cycles.set(100000 + salt);
    r.perf.committedInsts.set(200000 + salt * 3);
    for (int i = 0; i < 200; ++i)
        r.perf.valueWidthBits.sample(static_cast<double>((i + salt) % 64));
    r.activity.rfReadLow.set(salt * 7);
    return r;
}

class StoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
               ("thstore-" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "-" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    StoreOptions options(std::uint64_t max_bytes = 0) const
    {
        StoreOptions o;
        o.dir = dir_.string();
        o.maxBytes = max_bytes;
        return o;
    }

    SimOptions simOptions() const
    {
        SimOptions o;
        o.instructions = 20000;
        o.warmupInstructions = 5000;
        o.storeDir = dir_.string();
        return o;
    }

    /** The single .cr entry file in the store directory. */
    fs::path onlyEntry() const
    {
        fs::path found;
        for (const auto &de : fs::directory_iterator(dir_)) {
            if (de.path().extension() == ".cr") {
                EXPECT_TRUE(found.empty()) << "more than one entry";
                found = de.path();
            }
        }
        EXPECT_FALSE(found.empty()) << "no store entry found";
        return found;
    }

    static void flipByte(const fs::path &file, std::streamoff offset)
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(offset);
        char c = 0;
        f.get(c);
        f.seekp(offset);
        f.put(static_cast<char>(c ^ 0x40));
    }

    fs::path dir_;
};

TEST_F(StoreTest, StoreThenLoadRoundTrips)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.enabled());

    const CoreResult r = syntheticResult(1);
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x1234, r));

    CoreResult back;
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x1234, back));
    EXPECT_EQ(serializeCoreResult(back), serializeCoreResult(r));

    const StoreStats s = store.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.corrupt, 0u);
}

TEST_F(StoreTest, DistinctKeysDoNotCollide)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x1, syntheticResult(1)));
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x2, syntheticResult(2)));
    ASSERT_TRUE(store.storeCoreResult("mcf", 0x1, syntheticResult(3)));

    CoreResult back;
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x2, back));
    EXPECT_EQ(serializeCoreResult(back),
              serializeCoreResult(syntheticResult(2)));
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x3, back));
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.list().size(), 3u);
}

TEST_F(StoreTest, SecondInstanceReadsFirstInstancesEntries)
{
    const CoreResult r = syntheticResult(9);
    {
        ArtifactStore writer(options());
        ASSERT_TRUE(writer.storeCoreResult("crafty", 0xBEEF, r));
    }
    ArtifactStore reader(options());
    CoreResult back;
    ASSERT_TRUE(reader.loadCoreResult("crafty", 0xBEEF, back));
    EXPECT_EQ(serializeCoreResult(back), serializeCoreResult(r));
}

TEST_F(StoreTest, BitFlippedEntryIsQuarantinedNotServed)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x77, syntheticResult(4)));
    const fs::path entry = onlyEntry();
    flipByte(entry, static_cast<std::streamoff>(
                        fs::file_size(entry) / 2));

    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x77, back));
    const StoreStats s = store.stats();
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.misses, 1u);

    // The bad file was quarantined, not left to fail again.
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_TRUE(fs::exists(entry.string() + ".bad"));
}

TEST_F(StoreTest, TruncatedEntryIsQuarantinedNotServed)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("mcf", 0x99, syntheticResult(5)));
    const fs::path entry = onlyEntry();
    fs::resize_file(entry, fs::file_size(entry) / 3);

    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("mcf", 0x99, back));
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_TRUE(fs::exists(entry.string() + ".bad"));
}

TEST_F(StoreTest, SchemaVersionMismatchRejected)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x11, syntheticResult(6)));
    // Header layout: magic(4) format(4) container(4) schema(4).
    flipByte(onlyEntry(), 12);

    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x11, back));
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST_F(StoreTest, KeyMismatchRejected)
{
    // A structurally valid artifact sitting under the wrong file name
    // (embedded key != lookup key) must not be served.
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x42, syntheticResult(7)));
    const fs::path entry42 = onlyEntry();
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x43, syntheticResult(8)));
    fs::path entry43;
    for (const auto &de : fs::directory_iterator(dir_))
        if (de.path().extension() == ".cr" && de.path() != entry42)
            entry43 = de.path();
    ASSERT_FALSE(entry43.empty());
    fs::copy_file(entry42, entry43,
                  fs::copy_options::overwrite_existing);

    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x43, back));
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST_F(StoreTest, DirectoryAtEntryPathIsQuarantined)
{
    // Something that opens but cannot be read as an entry is corrupt,
    // not absent: counting it as a miss would leave the directory in
    // place, and every later commit of the key would fail to rename
    // onto it.
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x31, syntheticResult(1)));
    const fs::path entry = onlyEntry();
    fs::remove(entry);
    fs::create_directory(entry);

    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x31, back));
    StoreStats s = store.stats();
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_TRUE(fs::exists(entry.string() + ".bad"));
    EXPECT_FALSE(fs::exists(entry));

    const CoreResult r = syntheticResult(2);
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x31, r));
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x31, back));
    EXPECT_EQ(serializeCoreResult(back), serializeCoreResult(r));
    s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.corrupt, 1u);
}

TEST_F(StoreTest, FifoAtEntryPathIsQuarantinedWithoutBlocking)
{
    // A blocking open of a FIFO waits for a writer that never comes,
    // with the store's lock held.
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x32, syntheticResult(1)));
    const fs::path entry = onlyEntry();
    fs::remove(entry);
    ASSERT_EQ(::mkfifo(entry.c_str(), 0600), 0);

    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x32, back));
    const StoreStats s = store.stats();
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_TRUE(fs::exists(entry.string() + ".bad"));
    EXPECT_FALSE(fs::exists(entry));
}

TEST_F(StoreTest, LruCapEvictsOldestEntries)
{
    // Measure one entry's size, then cap the store at ~2.5 entries.
    std::uint64_t entry_bytes = 0;
    {
        ArtifactStore probe(options());
        ASSERT_TRUE(
            probe.storeCoreResult("probe", 0x0, syntheticResult(0)));
        entry_bytes = fs::file_size(onlyEntry());
        fs::remove(onlyEntry());
    }
    ASSERT_GT(entry_bytes, 0u);

    ArtifactStore store(options(entry_bytes * 5 / 2));
    ASSERT_TRUE(store.storeCoreResult("a", 0x1, syntheticResult(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE(store.storeCoreResult("b", 0x2, syntheticResult(2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE(store.storeCoreResult("c", 0x3, syntheticResult(3)));

    EXPECT_GE(store.stats().evictions, 1u);
    CoreResult back;
    EXPECT_FALSE(store.loadCoreResult("a", 0x1, back))
        << "oldest entry should have been evicted";
    EXPECT_TRUE(store.loadCoreResult("c", 0x3, back))
        << "newest entry must survive the sweep";
}

TEST_F(StoreTest, VerifyQuarantinesAndGcRemoves)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("a", 0x1, syntheticResult(1)));
    ASSERT_TRUE(store.storeCoreResult("b", 0x2, syntheticResult(2)));

    // Corrupt one of the two entries.
    fs::path victim;
    for (const auto &de : fs::directory_iterator(dir_))
        if (de.path().extension() == ".cr") {
            victim = de.path();
            break;
        }
    ASSERT_FALSE(victim.empty());
    flipByte(victim, static_cast<std::streamoff>(
                         fs::file_size(victim) - 5));

    EXPECT_EQ(store.verify(), 1);
    EXPECT_TRUE(fs::exists(victim.string() + ".bad"));
    // Quarantined leftovers keep counting as invalid until collected.
    EXPECT_EQ(store.verify(), 1);

    // gc with a generous cap still clears quarantined files...
    EXPECT_GE(store.gc(1ULL << 30), 1);
    EXPECT_FALSE(fs::exists(victim.string() + ".bad"));
    EXPECT_EQ(store.verify(), 0);
    // ...and gc(0) empties the store.
    store.gc(0);
    EXPECT_TRUE(store.list().empty());
}

// ---------------------------------------------------------------------
// LRU recency-touch failures.
// ---------------------------------------------------------------------

/**
 * ArtifactStore with the recency touch forced to fail — the observable
 * behaviour of a read-only store directory (or any filesystem that
 * rejects mtime updates) without needing one: the test process owns
 * its temp files, so utimensat succeeds regardless of file modes (and
 * unconditionally under root), making a chmod-based setup vacuous.
 */
class FailingTouchStore : public ArtifactStore
{
  public:
    using ArtifactStore::ArtifactStore;

  protected:
    bool touchEntry(int, const std::string &) override { return false; }
};

TEST_F(StoreTest, TouchFailureIsCountedButHitStillServed)
{
    FailingTouchStore store(options());
    const CoreResult r = syntheticResult(3);
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x5, r));

    // The hit must be served bit-identically even though its LRU
    // recency could not be refreshed — touch failure degrades eviction
    // ordering, never correctness.
    CoreResult back;
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x5, back));
    EXPECT_EQ(serializeCoreResult(back), serializeCoreResult(r));

    StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.touchFailures, 1u);

    // Every further hit counts its own failure (warned only once).
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x5, back));
    s = store.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.touchFailures, 2u);
}

TEST_F(StoreTest, HealthyTouchReportsNoFailures)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x6, syntheticResult(1)));
    CoreResult back;
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x6, back));
    EXPECT_EQ(store.stats().touchFailures, 0u);
}

TEST_F(StoreTest, HitRefreshesMtimeAndLeavesAtime)
{
    ArtifactStore store(options());
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x7, syntheticResult(2)));
    const fs::path entry = onlyEntry();

    // Age the mtime by an hour. The atime goes an hour ahead instead:
    // relatime updates the atime on a read only while it is not newer
    // than the mtime and the ctime, so a future atime isolates the
    // touch from the read.
    const std::time_t now = std::time(nullptr);
    struct timespec times[2] = {{now + 3600, 0}, {now - 3600, 0}};
    ASSERT_EQ(::utimensat(AT_FDCWD, entry.c_str(), times, 0), 0);

    CoreResult back;
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x7, back));
    struct stat st {};
    ASSERT_EQ(::stat(entry.c_str(), &st), 0);
    EXPECT_GE(st.st_mtim.tv_sec, now - 60)
        << "the hit did not refresh the entry's mtime";
    EXPECT_EQ(st.st_atim.tv_sec, now + 3600)
        << "the hit moved the entry's atime";
    EXPECT_EQ(st.st_atim.tv_nsec, 0);
    EXPECT_EQ(store.stats().touchFailures, 0u);
}

// ---------------------------------------------------------------------
// Concurrent-process races: entries vanishing mid-transaction.
// ---------------------------------------------------------------------

/**
 * ArtifactStore whose recency touch deletes the entry before failing —
 * the observable shape of losing a race with a concurrent process
 * whose gc/eviction removed the file between our existence check and
 * our utimensat. A real second process can't be steered onto that
 * window deterministically; the override can.
 */
class VanishingTouchStore : public ArtifactStore
{
  public:
    using ArtifactStore::ArtifactStore;

  protected:
    bool touchEntry(int, const std::string &name) override
    {
        std::error_code ec;
        fs::remove(fs::path(dir()) / name, ec);
        return false;
    }
};

TEST_F(StoreTest, VanishedEntryCountsAsRaceLostNotTouchFailure)
{
    VanishingTouchStore store(options());
    const CoreResult r = syntheticResult(8);
    ASSERT_TRUE(store.storeCoreResult("gzip", 0x8, r));

    // The entry was read before the loser's touch saw it vanish, so
    // the hit is still served bit-identically.
    CoreResult back;
    ASSERT_TRUE(store.loadCoreResult("gzip", 0x8, back));
    EXPECT_EQ(serializeCoreResult(back), serializeCoreResult(r));

    const StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.raceLost, 1u);
    // A lost race is benign multi-process behaviour, not a broken
    // filesystem: it must not pollute the failure counters.
    EXPECT_EQ(s.touchFailures, 0u);
    EXPECT_EQ(s.corrupt, 0u);

    // The entry is gone now, so the next lookup is a plain miss.
    EXPECT_FALSE(store.loadCoreResult("gzip", 0x8, back));
    EXPECT_EQ(store.stats().misses, 1u);
}

// ---------------------------------------------------------------------
// System integration: the cold/warm contract.
// ---------------------------------------------------------------------

TEST_F(StoreTest, WarmSystemServesEveryCoreFromDisk)
{
    const char *benchmarks[] = {"gzip", "mcf"};
    std::vector<std::vector<std::uint8_t>> cold_bytes;

    {
        System cold(simOptions());
        ASSERT_TRUE(cold.storeEnabled());
        const CoreConfig cfg =
            makeConfig(ConfigKind::TH, cold.circuits());
        for (const char *b : benchmarks)
            cold_bytes.push_back(
                serializeCoreResult(cold.runCore(b, cfg)));
        const StoreStats s = cold.storeStats();
        EXPECT_EQ(s.misses, 2u);
        EXPECT_EQ(s.stores, 2u);
        EXPECT_EQ(s.hits, 0u);
    }

    // A fresh process (fresh System, empty memory cache) must serve
    // everything from disk, bit-identically.
    System warm(simOptions());
    const CoreConfig cfg = makeConfig(ConfigKind::TH, warm.circuits());
    for (std::size_t i = 0; i < 2; ++i) {
        const CoreResult r = warm.runCore(benchmarks[i], cfg);
        EXPECT_EQ(serializeCoreResult(r), cold_bytes[i])
            << benchmarks[i] << " diverged across the store";
    }
    const StoreStats s = warm.storeStats();
    EXPECT_EQ(s.hits, 2u) << "warm run should not simulate";
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.stores, 0u);
}

TEST_F(StoreTest, CorruptEntryRecomputedTransparently)
{
    SimOptions opts = simOptions();
    std::vector<std::uint8_t> want;
    {
        System sys(opts);
        const CoreConfig cfg =
            makeConfig(ConfigKind::Base, sys.circuits());
        want = serializeCoreResult(sys.runCore("gzip", cfg));
    }
    flipByte(onlyEntry(), 64);

    System sys(opts);
    const CoreConfig cfg = makeConfig(ConfigKind::Base, sys.circuits());
    const CoreResult r = sys.runCore("gzip", cfg); // Must not crash.
    EXPECT_EQ(serializeCoreResult(r), want)
        << "recomputed result must match the original simulation";
    const StoreStats s = sys.storeStats();
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u) << "recomputed result is re-persisted";

    // And a third run hits the freshly rewritten entry.
    System again(opts);
    const CoreResult r2 =
        again.runCore("gzip", makeConfig(ConfigKind::Base,
                                         again.circuits()));
    EXPECT_EQ(serializeCoreResult(r2), want);
    EXPECT_EQ(again.storeStats().hits, 1u);
}

TEST_F(StoreTest, PresetRunSharesTheEntryOfItsExplicitConfig)
{
    // runCore(b, kind) reads the System's preset table; it must key the
    // memo and the store exactly as configHash(makeConfig(kind, ...)).
    System sys(simOptions());
    std::uint64_t n = 0;
    for (ConfigKind kind : kAllConfigKinds) {
        const CoreResult by_kind = sys.runCore("gzip", kind);
        const CoreResult by_cfg =
            sys.runCore("gzip", makeConfig(kind, sys.circuits()));
        ++n;
        EXPECT_EQ(serializeCoreResult(by_kind), serializeCoreResult(by_cfg))
            << configName(kind);
        const System::CacheStats cache = sys.coreCacheStats();
        EXPECT_EQ(cache.misses, n) << configName(kind);
        EXPECT_EQ(cache.hits, n) << configName(kind);
        EXPECT_EQ(sys.storeStats().stores, n) << configName(kind);
        std::uint64_t files = 0;
        for (const auto &de : fs::directory_iterator(dir_))
            files += de.path().extension() == ".cr" ? 1 : 0;
        EXPECT_EQ(files, n) << configName(kind);
    }
}

TEST_F(StoreTest, StoreDisabledWithoutDirectory)
{
    SimOptions opts;
    opts.instructions = 5000;
    opts.warmupInstructions = 0;
    opts.storeDir.clear();
    // Shield the test from an inherited TH_STORE_DIR.
    ::unsetenv("TH_STORE_DIR");
    System sys(opts);
    EXPECT_FALSE(sys.storeEnabled());
    const CoreConfig cfg = makeConfig(ConfigKind::Base, sys.circuits());
    const CoreResult r = sys.runCore("gzip", cfg);
    EXPECT_GT(r.perf.committedInsts.value(), 0u);
    EXPECT_TRUE(fs::is_empty(dir_));
}

// ---------------------------------------------------------------------
// The store contract, once per artifact kind. Every kind in the
// descriptor table (store/artifact_kinds.h) must round-trip, reject a
// foreign key, quarantine bit flips and truncation, reject a foreign
// schema, and show up in list()/verify() under its own format tag.
// ---------------------------------------------------------------------

/** A distinct, fully populated payload of each kind per @p salt. */
template <typename T>
T samplePayload(int salt);

template <>
CoreResult
samplePayload<CoreResult>(int salt)
{
    return syntheticResult(static_cast<std::uint64_t>(salt));
}

template <>
DtmReport
samplePayload<DtmReport>(int salt)
{
    DtmReport r;
    r.benchmark = "mpeg2enc";
    r.config = "3D-noTH";
    r.policy = "clockgate";
    r.triggerK = 360.0;
    r.freqGhz = 3.875;
    r.peakK = 365.1 + salt;
    r.throttleDuty = 0.36;
    r.wallCycles = 2000000 + static_cast<std::uint64_t>(salt);
    for (int i = 0; i < 5; ++i) {
        DtmIntervalSample smp;
        smp.timeS = 0.0076 * (i + 1);
        smp.peakK = 360.0 + i;
        smp.clockDuty = i % 2 ? 0.75 : 1.0;
        smp.cycles = 50000 - static_cast<std::uint64_t>(i);
        smp.throttled = (i % 2) != 0;
        r.intervals.push_back(smp);
    }
    return r;
}

template <>
IntervalModel
samplePayload<IntervalModel>(int salt)
{
    IntervalModel m;
    m.benchmark = "mpeg2enc";
    m.familyHash = 0xFA11 + static_cast<std::uint64_t>(salt);
    m.fitFreqGhz = 3.875;
    m.intervalCycles = 10000;
    IntervalPhase phase;
    phase.cycles = 30000;
    phase.stats = samplePayload<CoreResult>(salt);
    phase.throttle.push_back({0.5, 0.97});
    IntervalThrottleBin bin;
    bin.duty = 0.5;
    bin.stats = samplePayload<CoreResult>(salt + 1);
    phase.bins.push_back(bin);
    m.phases.push_back(phase);
    for (std::uint64_t t = 0; t < 3; ++t)
        m.ticks.push_back({10000, 18000 + t, 0});
    m.totalCycles = 30000;
    m.totalInstructions = 54003;
    return m;
}

template <>
MulticoreReport
samplePayload<MulticoreReport>(int salt)
{
    MulticoreReport r;
    r.config = "3D";
    r.policy = "fetch";
    r.numCores = 2;
    r.l2Banks = 1;
    r.peakK = 364.9 + salt;
    for (int c = 0; c < 2; ++c) {
        MulticoreCoreStats cs;
        cs.benchmark = c ? "gzip" : "mpeg2enc";
        cs.ipcEffective = 1.6 - c * 0.3;
        cs.l2Accesses = 4200 + static_cast<std::uint64_t>(c);
        r.cores.push_back(cs);
    }
    MulticoreBankStats bank;
    bank.accesses = 8400;
    bank.occupancy = 0.3;
    r.banks.push_back(bank);
    return r;
}

/** Canonical bytes of @p v under its kind's codec. */
template <typename T>
std::vector<std::uint8_t>
payloadBytes(const T &v)
{
    Encoder enc;
    artifactKind<T>().encode(enc, v);
    return enc.data();
}

template <typename T>
class StoreContract : public StoreTest
{
  protected:
    static const ArtifactFormat &format()
    {
        return artifactKind<T>().format;
    }

    /** The entry file of (@p benchmark, @p key). */
    fs::path entryOf(const std::string &benchmark, std::uint64_t key) const
    {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(key));
        return dir_ / (benchmark + "-" + hex + format().ext);
    }

    /** Store one sample at (mpeg2enc, 0x77) and return its file. */
    fs::path storeSample(ArtifactStore &store)
    {
        EXPECT_TRUE(store.save("mpeg2enc", 0x77, samplePayload<T>(1)));
        const fs::path entry = entryOf("mpeg2enc", 0x77);
        EXPECT_TRUE(fs::exists(entry)) << entry;
        return entry;
    }

    /** A lookup of (mpeg2enc, 0x77) must miss as corrupt. */
    void expectQuarantined(ArtifactStore &store, const fs::path &entry)
    {
        T back;
        EXPECT_FALSE(store.load("mpeg2enc", 0x77, back));
        const StoreStats s = store.stats();
        EXPECT_EQ(s.corrupt, 1u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.hits, 0u);
        // The bad file was quarantined, not left to fail again.
        EXPECT_FALSE(fs::exists(entry));
        EXPECT_TRUE(fs::exists(entry.string() + ".bad"));
    }
};

using ArtifactTypes = ::testing::Types<CoreResult, DtmReport,
                                       IntervalModel, MulticoreReport>;
TYPED_TEST_SUITE(StoreContract, ArtifactTypes);

TYPED_TEST(StoreContract, RoundTripsAcrossInstances)
{
    const TypeParam sent = samplePayload<TypeParam>(3);
    {
        ArtifactStore writer(this->options());
        ASSERT_TRUE(writer.save("mpeg2enc+gzip", 0x3C, sent));
        EXPECT_EQ(writer.stats().stores, 1u);
    }
    ArtifactStore reader(this->options());
    TypeParam back;
    ASSERT_TRUE(reader.load("mpeg2enc+gzip", 0x3C, back));
    EXPECT_EQ(payloadBytes(back), payloadBytes(sent));

    // Wrong key and wrong benchmark both miss without touching @p back.
    TypeParam untouched = back;
    EXPECT_FALSE(reader.load("mpeg2enc+gzip", 0x3D, untouched));
    EXPECT_FALSE(reader.load("gzip", 0x3C, untouched));
    EXPECT_EQ(payloadBytes(untouched), payloadBytes(sent));
    const StoreStats s = reader.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.corrupt, 0u);
}

TEST_F(StoreTest, LargeEntryRoundTripsAcrossInstances)
{
    // An entry far larger than any single read buffer a loader might
    // start with: the whole file must come back intact.
    DtmReport sent = samplePayload<DtmReport>(4);
    sent.intervals.clear();
    for (int i = 0; i < 2000; ++i) {
        DtmIntervalSample smp;
        smp.timeS = 1e-4 * (i + 1);
        smp.peakK = 350.0 + 0.01 * i;
        smp.clockDuty = i % 3 ? 0.5 : 1.0;
        smp.cycles = 12500 + static_cast<std::uint64_t>(i);
        smp.committed = 20000 + static_cast<std::uint64_t>(i) * 3;
        smp.powerW = 40.0 + 0.001 * i;
        smp.throttled = (i % 3) != 0;
        sent.intervals.push_back(smp);
    }
    {
        ArtifactStore writer(options());
        ASSERT_TRUE(writer.save("mpeg2enc", 0xB16, sent));
    }
    std::uint64_t bytes = 0;
    for (const auto &de : fs::directory_iterator(dir_))
        if (de.path().extension() == ".dtm")
            bytes = fs::file_size(de.path());
    ASSERT_GT(bytes, 64u * 1024u);

    ArtifactStore reader(options());
    DtmReport back;
    ASSERT_TRUE(reader.load("mpeg2enc", 0xB16, back));
    EXPECT_EQ(payloadBytes(back), payloadBytes(sent));
    EXPECT_EQ(reader.stats().hits, 1u);
    EXPECT_EQ(reader.stats().corrupt, 0u);
    EXPECT_EQ(reader.verify(), 0);
}

TYPED_TEST(StoreContract, KeyMismatchIsQuarantined)
{
    // A structurally valid entry under the wrong file name (embedded
    // key != lookup key) must not be served.
    ArtifactStore store(this->options());
    ASSERT_TRUE(store.save("mpeg2enc", 0x42, samplePayload<TypeParam>(7)));
    const fs::path entry = this->storeSample(store);
    fs::copy_file(this->entryOf("mpeg2enc", 0x42), entry,
                  fs::copy_options::overwrite_existing);
    this->expectQuarantined(store, entry);
}

TYPED_TEST(StoreContract, BitFlipIsQuarantined)
{
    ArtifactStore store(this->options());
    const fs::path entry = this->storeSample(store);
    StoreTest::flipByte(entry, static_cast<std::streamoff>(
                                   fs::file_size(entry) / 2));
    this->expectQuarantined(store, entry);
}

TYPED_TEST(StoreContract, TruncationIsQuarantined)
{
    ArtifactStore store(this->options());
    const fs::path entry = this->storeSample(store);
    fs::resize_file(entry, fs::file_size(entry) / 3);
    this->expectQuarantined(store, entry);
}

TYPED_TEST(StoreContract, WrongSchemaIsQuarantined)
{
    ArtifactStore store(this->options());
    const fs::path entry = this->storeSample(store);
    // Header layout: magic(4) format(4) container(4) schema(4).
    StoreTest::flipByte(entry, 12);
    this->expectQuarantined(store, entry);
}

TYPED_TEST(StoreContract, ListAndVerifyReportTheFormatTag)
{
    ArtifactStore store(this->options());
    const fs::path entry = this->storeSample(store);
    // A CRES neighbour: verify must dispatch each entry to its own
    // kind's reader.
    ASSERT_TRUE(store.save("gzip", 0x5, samplePayload<CoreResult>(5)));

    const auto entries = store.list();
    ASSERT_EQ(entries.size(), 2u);
    bool seen = false;
    for (const auto &e : entries) {
        if (e.path != entry.string())
            continue;
        seen = true;
        EXPECT_EQ(e.format, this->format().tag);
        EXPECT_EQ(e.benchmark, "mpeg2enc");
        EXPECT_EQ(e.cfgHash, 0x77u);
        EXPECT_FALSE(e.quarantined);
    }
    EXPECT_TRUE(seen) << "list() missed " << entry;
    EXPECT_EQ(store.verify(), 0) << "every kind re-validates";

    StoreTest::flipByte(entry, static_cast<std::streamoff>(
                                   fs::file_size(entry) - 5));
    EXPECT_EQ(store.verify(), 1);
    EXPECT_TRUE(fs::exists(entry.string() + ".bad"));
}

} // namespace
} // namespace th
