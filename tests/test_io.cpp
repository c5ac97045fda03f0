#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "io/chunkio.h"
#include "io/crc32.h"
#include "io/serialize.h"

namespace th {
namespace {

// ---------------------------------------------------------------------
// CRC32.
// ---------------------------------------------------------------------

TEST(Crc32Test, KnownVectors)
{
    // Standard test vectors for the IEEE/zlib CRC-32.
    EXPECT_EQ(crc32("", 0), 0x00000000u);
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog", 43),
              0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot)
{
    const char msg[] = "123456789";
    const std::uint32_t part = crc32(msg, 4);
    EXPECT_EQ(crc32(msg + 4, 5, part), crc32(msg, 9));
}

TEST(Crc32Test, DetectsSingleBitFlip)
{
    std::uint8_t buf[64];
    for (int i = 0; i < 64; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 7);
    const std::uint32_t clean = crc32(buf, sizeof(buf));
    buf[17] ^= 0x20;
    EXPECT_NE(crc32(buf, sizeof(buf)), clean);
}

// ---------------------------------------------------------------------
// Encoder / Decoder.
// ---------------------------------------------------------------------

TEST(CodecTest, PrimitivesRoundTrip)
{
    Encoder enc;
    enc.u8(0xAB);
    enc.u16(0xBEEF);
    enc.u32(0xDEADBEEFu);
    enc.u64(0x0123456789ABCDEFULL);
    enc.f64(-2.5e-7);
    enc.str("thermal herding");
    enc.str("");

    Decoder dec(enc.data());
    EXPECT_EQ(dec.u8(), 0xAB);
    EXPECT_EQ(dec.u16(), 0xBEEF);
    EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
    EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(dec.f64(), -2.5e-7);
    EXPECT_EQ(dec.str(), "thermal herding");
    EXPECT_EQ(dec.str(), "");
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.atEnd());
}

TEST(CodecTest, LittleEndianLayout)
{
    Encoder enc;
    enc.u32(0x11223344u);
    ASSERT_EQ(enc.size(), 4u);
    EXPECT_EQ(enc.data()[0], 0x44);
    EXPECT_EQ(enc.data()[3], 0x11);
}

TEST(CodecTest, UnderflowFlagsNotOk)
{
    Encoder enc;
    enc.u16(7);
    Decoder dec(enc.data());
    EXPECT_EQ(dec.u64(), 0u); // Short read returns zero...
    EXPECT_FALSE(dec.ok());   // ...and poisons the decoder.
    EXPECT_EQ(dec.u8(), 0u);  // Stays poisoned.
    EXPECT_FALSE(dec.ok());
}

TEST(CodecTest, StringLengthBeyondPayloadIsRejected)
{
    Encoder enc;
    enc.u32(1000); // Claims 1000 bytes follow...
    enc.u8('x');   // ...but only one does.
    Decoder dec(enc.data());
    EXPECT_EQ(dec.str(), "");
    EXPECT_FALSE(dec.ok());
}

TEST(CodecTest, PatchU32OverwritesInPlace)
{
    Encoder enc;
    enc.u32(0);
    enc.u64(42);
    enc.patchU32(0, 7);
    Decoder dec(enc.data());
    EXPECT_EQ(dec.u32(), 7u);
    EXPECT_EQ(dec.u64(), 42u);
}

// ---------------------------------------------------------------------
// Chunk container over memory.
// ---------------------------------------------------------------------

TEST(ChunkTest, WriteReadRoundTrip)
{
    MemSink sink;
    ChunkWriter writer(sink);
    ASSERT_TRUE(writer.begin("TEST", 3));
    Encoder a;
    a.str("alpha");
    Encoder b;
    b.u64(99);
    ASSERT_TRUE(writer.chunk("AAAA", a));
    ASSERT_TRUE(writer.chunk("BBBB", b));

    MemSource src(sink.data());
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string err;
    ASSERT_TRUE(reader.readHeader("TEST", schema, err)) << err;
    EXPECT_EQ(schema, 3u);

    std::string tag;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(reader.next(tag, payload, err), ChunkReader::Next::Chunk);
    EXPECT_EQ(tag, "AAAA");
    EXPECT_EQ(Decoder(payload).str(), "alpha");
    ASSERT_EQ(reader.next(tag, payload, err), ChunkReader::Next::Chunk);
    EXPECT_EQ(tag, "BBBB");
    EXPECT_EQ(Decoder(payload).u64(), 99u);
    EXPECT_EQ(reader.next(tag, payload, err), ChunkReader::Next::End);
}

TEST(ChunkTest, WrongFormatTagRejected)
{
    MemSink sink;
    ChunkWriter writer(sink);
    ASSERT_TRUE(writer.begin("TEST", 1));

    MemSource src(sink.data());
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string err;
    EXPECT_FALSE(reader.readHeader("OTHR", schema, err));
    EXPECT_NE(err.find("format tag"), std::string::npos);
}

TEST(ChunkTest, GarbageHeaderRejected)
{
    const std::uint8_t junk[16] = {'n', 'o', 'p', 'e'};
    MemSource src(junk, sizeof(junk));
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string err;
    EXPECT_FALSE(reader.readHeader("TEST", schema, err));
}

TEST(ChunkTest, EmptySourceReadsNothing)
{
    // An empty vector's data() may be null; reading from it must still
    // be a clean zero-byte read, and the header check must fail.
    const std::vector<std::uint8_t> empty;
    MemSource src(empty);
    std::uint8_t buf[8] = {};
    EXPECT_EQ(src.read(buf, sizeof(buf)), 0u);
    EXPECT_EQ(src.read(buf, 0), 0u);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string err;
    EXPECT_FALSE(reader.readHeader("TEST", schema, err));
}

std::vector<std::uint8_t>
oneChunkContainer()
{
    MemSink sink;
    ChunkWriter writer(sink);
    writer.begin("TEST", 1);
    Encoder payload;
    for (int i = 0; i < 64; ++i)
        payload.u32(static_cast<std::uint32_t>(i));
    writer.chunk("DATA", payload);
    return sink.data();
}

TEST(ChunkTest, BitFlipInPayloadIsCorrupt)
{
    std::vector<std::uint8_t> bytes = oneChunkContainer();
    bytes[bytes.size() - 10] ^= 0x01; // Flip one payload bit.

    MemSource src(bytes);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.readHeader("TEST", schema, err));
    EXPECT_EQ(reader.next(tag, payload, err),
              ChunkReader::Next::Corrupt);
    EXPECT_NE(err.find("CRC"), std::string::npos);
}

TEST(ChunkTest, TruncationIsCorrupt)
{
    std::vector<std::uint8_t> bytes = oneChunkContainer();
    bytes.resize(bytes.size() - 20); // Drop the payload tail.

    MemSource src(bytes);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.readHeader("TEST", schema, err));
    EXPECT_EQ(reader.next(tag, payload, err),
              ChunkReader::Next::Corrupt);
}

TEST(ChunkTest, TruncatedChunkHeaderIsCorrupt)
{
    std::vector<std::uint8_t> bytes = oneChunkContainer();
    bytes.resize(16 + 6); // Container header + half a chunk header.

    MemSource src(bytes);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.readHeader("TEST", schema, err));
    EXPECT_EQ(reader.next(tag, payload, err),
              ChunkReader::Next::Corrupt);
}

// ---------------------------------------------------------------------
// Hostile-input hardening: explicit error codes, the payload-size cap,
// and zero-length-record rejection.
// ---------------------------------------------------------------------

/** Append a little-endian u32 to a raw byte buffer. */
void
appendU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
    buf.push_back(static_cast<std::uint8_t>(v >> 16));
    buf.push_back(static_cast<std::uint8_t>(v >> 24));
}

TEST(ChunkHardeningTest, ErrorCodesNameEachFailureMode)
{
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;

    { // Header cut short.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        bytes.resize(7);
        MemSource src(bytes);
        ChunkReader reader(src);
        EXPECT_FALSE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.lastError(), ChunkError::ShortHeader);
    }
    { // Wrong magic.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        bytes[0] = 'X';
        MemSource src(bytes);
        ChunkReader reader(src);
        EXPECT_FALSE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.lastError(), ChunkError::BadMagic);
    }
    { // Right container, wrong artifact kind.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        MemSource src(bytes);
        ChunkReader reader(src);
        EXPECT_FALSE(reader.readHeader("OTHR", schema, err));
        EXPECT_EQ(reader.lastError(), ChunkError::FormatMismatch);
    }
    { // Chunk header cut mid-length.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        bytes.resize(16 + 6);
        MemSource src(bytes);
        ChunkReader reader(src);
        ASSERT_TRUE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.next(tag, payload, err),
                  ChunkReader::Next::Corrupt);
        EXPECT_EQ(reader.lastError(), ChunkError::TruncatedHeader);
    }
    { // Payload shorter than declared.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        bytes.resize(bytes.size() - 20);
        MemSource src(bytes);
        ChunkReader reader(src);
        ASSERT_TRUE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.next(tag, payload, err),
                  ChunkReader::Next::Corrupt);
        EXPECT_EQ(reader.lastError(), ChunkError::TruncatedPayload);
    }
    { // Payload bit flip.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        bytes[bytes.size() - 10] ^= 0x01;
        MemSource src(bytes);
        ChunkReader reader(src);
        ASSERT_TRUE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.next(tag, payload, err),
                  ChunkReader::Next::Corrupt);
        EXPECT_EQ(reader.lastError(), ChunkError::CrcMismatch);
    }
    { // Success clears the code.
        std::vector<std::uint8_t> bytes = oneChunkContainer();
        MemSource src(bytes);
        ChunkReader reader(src);
        ASSERT_TRUE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.lastError(), ChunkError::None);
        ASSERT_EQ(reader.next(tag, payload, err),
                  ChunkReader::Next::Chunk);
        EXPECT_EQ(reader.lastError(), ChunkError::None);
    }
}

TEST(ChunkHardeningTest, HostileLengthFieldRejectedBeforeAllocation)
{
    // A four-byte frame claiming a ~4 GiB payload. The reader must
    // reject it from the length field alone — long before any read or
    // resize could be driven by it.
    MemSink sink;
    ChunkWriter writer(sink);
    ASSERT_TRUE(writer.begin("TEST", 1));
    std::vector<std::uint8_t> bytes = sink.data();
    bytes.insert(bytes.end(), {'E', 'V', 'I', 'L'});
    appendU32(bytes, 0xFFFFFFF0u); // Declared length, way over any cap.
    appendU32(bytes, 0);           // CRC (never reached).

    MemSource src(bytes);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.readHeader("TEST", schema, err));
    EXPECT_EQ(reader.next(tag, payload, err), ChunkReader::Next::Corrupt);
    EXPECT_EQ(reader.lastError(), ChunkError::Oversize);
    EXPECT_NE(err.find("exceeds cap"), std::string::npos);
}

TEST(ChunkHardeningTest, MaxChunkBytesIsConfigurable)
{
    // A perfectly valid container whose one payload is 256 bytes.
    const std::vector<std::uint8_t> bytes = oneChunkContainer();

    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;
    { // Cap below the payload: rejected as oversize.
        MemSource src(bytes);
        ChunkReader reader(src);
        reader.setMaxChunkBytes(64);
        EXPECT_EQ(reader.maxChunkBytes(), 64u);
        ASSERT_TRUE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.next(tag, payload, err),
                  ChunkReader::Next::Corrupt);
        EXPECT_EQ(reader.lastError(), ChunkError::Oversize);
    }
    { // Cap at the payload size: accepted.
        MemSource src(bytes);
        ChunkReader reader(src);
        reader.setMaxChunkBytes(256);
        ASSERT_TRUE(reader.readHeader("TEST", schema, err));
        EXPECT_EQ(reader.next(tag, payload, err),
                  ChunkReader::Next::Chunk);
        EXPECT_EQ(payload.size(), 256u);
    }
    { // A zero cap clamps to one byte rather than rejecting everything.
        MemSource src(bytes);
        ChunkReader reader(src);
        reader.setMaxChunkBytes(0);
        EXPECT_EQ(reader.maxChunkBytes(), 1u);
    }
}

TEST(ChunkHardeningTest, ZeroLengthChunkRejected)
{
    // No THIO format writes an empty record, so one on the wire can
    // only be garbage or an attack frame.
    MemSink sink;
    ChunkWriter writer(sink);
    ASSERT_TRUE(writer.begin("TEST", 1));
    std::vector<std::uint8_t> bytes = sink.data();
    bytes.insert(bytes.end(), {'V', 'O', 'I', 'D'});
    appendU32(bytes, 0); // Zero-length payload...
    appendU32(bytes, 0); // ...whose empty-CRC is 0 (would verify!).

    MemSource src(bytes);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.readHeader("TEST", schema, err));
    EXPECT_EQ(reader.next(tag, payload, err), ChunkReader::Next::Corrupt);
    EXPECT_EQ(reader.lastError(), ChunkError::EmptyChunk);
}

TEST(ChunkHardeningTest, ErrorNamesAreStable)
{
    EXPECT_STREQ(chunkErrorName(ChunkError::None), "none");
    EXPECT_STREQ(chunkErrorName(ChunkError::Oversize), "oversize");
    EXPECT_STREQ(chunkErrorName(ChunkError::EmptyChunk), "empty-chunk");
    EXPECT_STREQ(chunkErrorName(ChunkError::CrcMismatch), "crc-mismatch");
}

// ---------------------------------------------------------------------
// SimRequest / SimResponse wire codecs (the th_serve protocol records).
// ---------------------------------------------------------------------

TEST(WireCodecTest, SimRequestRoundTripsEveryField)
{
    SimRequest req;
    req.kind = SimRequestKind::Dtm;
    req.benchmarks = {"mpeg2enc", "gcc"};
    req.config = "3D";
    req.insts = 123456;
    req.warmup = 7890;
    req.deadlineMs = 2500;
    req.dtmPolicy = "fetch";
    req.dtmTriggerK = 356.5;
    req.dtmIntervals = 12;
    req.dtmIntervalCycles = 40000;
    req.dtmDilation = 250.0;
    req.dtmGridN = 24;
    req.dtmSolver = "multigrid";

    Encoder enc;
    encodeSimRequest(enc, req);
    Decoder dec(enc.data());
    SimRequest back;
    ASSERT_TRUE(decodeSimRequest(dec, back));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.benchmarks, req.benchmarks);
    EXPECT_EQ(back.config, req.config);
    EXPECT_EQ(back.insts, req.insts);
    EXPECT_EQ(back.warmup, req.warmup);
    EXPECT_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_EQ(back.dtmPolicy, req.dtmPolicy);
    EXPECT_EQ(back.dtmTriggerK, req.dtmTriggerK);
    EXPECT_EQ(back.dtmIntervals, req.dtmIntervals);
    EXPECT_EQ(back.dtmIntervalCycles, req.dtmIntervalCycles);
    EXPECT_EQ(back.dtmDilation, req.dtmDilation);
    EXPECT_EQ(back.dtmGridN, req.dtmGridN);
    EXPECT_EQ(back.dtmSolver, req.dtmSolver);
}

TEST(WireCodecTest, SimResponseRoundTrips)
{
    SimResponse rsp;
    rsp.status = SimStatus::Overloaded;
    rsp.error = "admission queue full";
    rsp.text = "=== Figure 8 ===\nsome table\n";

    Encoder enc;
    encodeSimResponse(enc, rsp);
    Decoder dec(enc.data());
    SimResponse back;
    ASSERT_TRUE(decodeSimResponse(dec, back));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(back.status, rsp.status);
    EXPECT_EQ(back.error, rsp.error);
    EXPECT_EQ(back.text, rsp.text);
}

TEST(WireCodecTest, BadEnumValuesRejected)
{
    Encoder enc;
    enc.u8(0xEE); // No such SimRequestKind.
    Decoder dec(enc.data());
    SimRequest req;
    EXPECT_FALSE(decodeSimRequest(dec, req));

    Encoder enc2;
    enc2.u8(0xEE); // No such SimStatus.
    enc2.str("");
    enc2.str("");
    Decoder dec2(enc2.data());
    SimResponse rsp;
    EXPECT_FALSE(decodeSimResponse(dec2, rsp));
}

TEST(WireCodecTest, HostileBenchmarkCountRejected)
{
    // A count field claiming 2^31 strings with two bytes of payload
    // behind it must fail fast, not loop on allocations.
    Encoder enc;
    enc.u8(static_cast<std::uint8_t>(SimRequestKind::Fig8));
    enc.u32(0x80000000u);
    enc.u8(0);
    Decoder dec(enc.data());
    SimRequest req;
    EXPECT_FALSE(decodeSimRequest(dec, req));
}

TEST(WireCodecTest, FlightKeyIgnoresDeadlineOnly)
{
    SimRequest a;
    a.kind = SimRequestKind::Fig8;
    a.benchmarks = {"gcc"};
    a.deadlineMs = 0;
    SimRequest b = a;
    b.deadlineMs = 9999;
    // Same simulation, different patience: one flight.
    EXPECT_EQ(flightKeyOf(a), flightKeyOf(b));

    // Any simulation-affecting difference must split the flight.
    SimRequest c = a;
    c.benchmarks = {"mcf"};
    EXPECT_NE(flightKeyOf(a), flightKeyOf(c));
    SimRequest d = a;
    d.kind = SimRequestKind::Fig9;
    EXPECT_NE(flightKeyOf(a), flightKeyOf(d));
    SimRequest e = a;
    e.dtmSolver = "multigrid";
    EXPECT_NE(flightKeyOf(a), flightKeyOf(e));
}

// ---------------------------------------------------------------------
// Exhaustive truncation sweep over a store-style container.
// ---------------------------------------------------------------------

TEST(ChunkTest, EveryTruncationOfTheFirst64BytesFailsCleanly)
{
    // Build a container shaped exactly like a persisted CoreResult
    // artifact, then replay the reader against every prefix of its
    // first 64 bytes. Whatever the cut point — mid-magic, mid-schema,
    // mid-chunk-header, mid-payload — the reader must reject it
    // without crashing and without handing back a decodable chunk.
    MemSink sink;
    ChunkWriter writer(sink);
    ASSERT_TRUE(writer.begin("CRES", 1));
    Encoder payload;
    {
        CoreResult r;
        r.freqGhz = 2.66;
        r.perf.cycles.set(424242);
        r.perf.committedInsts.set(99999);
        encodeCoreResult(payload, r);
    }
    ASSERT_TRUE(writer.chunk("CRES", payload));
    const std::vector<std::uint8_t> full = sink.data();
    ASSERT_GT(full.size(), 64u) << "container too small for the sweep";

    for (std::size_t cut = 0; cut < 64; ++cut) {
        const std::vector<std::uint8_t> prefix(full.begin(),
                                               full.begin() +
                                                   static_cast<long>(cut));
        MemSource src(prefix);
        ChunkReader reader(src);
        std::uint32_t schema = 0;
        std::string tag, err;
        std::vector<std::uint8_t> chunk_payload;

        if (!reader.readHeader("CRES", schema, err)) {
            ASSERT_LT(cut, 16u)
                << "a complete 16-byte header must parse (cut=" << cut
                << "): " << err;
            continue;
        }
        ASSERT_GE(cut, 16u) << "short header accepted (cut=" << cut
                            << ")";
        // The chunk itself is longer than the sweep window, so no
        // prefix may ever produce a whole verified chunk. A cut at
        // exactly the header boundary is indistinguishable from a
        // legitimately empty container (Next::End — the entry reader
        // above this layer rejects it for missing its META chunk);
        // any cut inside the chunk must be an explicit corruption
        // report, never a silent End.
        const auto next = reader.next(tag, chunk_payload, err);
        if (cut == 16u)
            EXPECT_EQ(next, ChunkReader::Next::End);
        else
            EXPECT_EQ(next, ChunkReader::Next::Corrupt)
                << "cut=" << cut;
    }

    // Sanity: the untruncated container still round-trips.
    MemSource src(full);
    ChunkReader reader(src);
    std::uint32_t schema = 0;
    std::string tag, err;
    std::vector<std::uint8_t> chunk_payload;
    ASSERT_TRUE(reader.readHeader("CRES", schema, err)) << err;
    ASSERT_EQ(reader.next(tag, chunk_payload, err),
              ChunkReader::Next::Chunk);
    CoreResult back;
    Decoder dec(chunk_payload);
    EXPECT_TRUE(decodeCoreResult(dec, back));
    EXPECT_EQ(back.perf.cycles.value(), 424242u);
}

// ---------------------------------------------------------------------
// Stats serialization.
// ---------------------------------------------------------------------

CoreResult
sampleResult()
{
    CoreResult r;
    r.freqGhz = 3.875;
    r.perf.cycles.set(123456);
    r.perf.committedInsts.set(200000);
    r.perf.branches.set(30123);
    r.perf.pveExplicit.set(17);
    for (int i = 0; i < 1000; ++i)
        r.perf.valueWidthBits.sample(static_cast<double>(i % 64));
    r.activity.rfReadLow.set(42);
    r.activity.schedWakeupDie[kNumDies - 1].set(7);
    r.activity.miscUops.set(987654321);
    return r;
}

TEST(SerializeTest, HistogramRoundTrip)
{
    Histogram h(0.0, 64.0, 16);
    h.sample(1.0);
    h.sample(63.0);
    h.sample(17.5);

    Encoder enc;
    encodeHistogram(enc, h);
    Decoder dec(enc.data());
    Histogram back;
    ASSERT_TRUE(decodeHistogram(dec, back));
    EXPECT_EQ(back.count(), h.count());
    EXPECT_EQ(back.buckets(), h.buckets());
    EXPECT_EQ(back.mean(), h.mean());
    EXPECT_EQ(back.min(), h.min());
    EXPECT_EQ(back.max(), h.max());
    EXPECT_EQ(back.lo(), h.lo());
    EXPECT_EQ(back.hi(), h.hi());
}

TEST(SerializeTest, CoreResultRoundTripsBitIdentical)
{
    const CoreResult r = sampleResult();
    Encoder enc;
    encodeCoreResult(enc, r);

    Decoder dec(enc.data());
    CoreResult back;
    ASSERT_TRUE(decodeCoreResult(dec, back));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(serializeCoreResult(back), serializeCoreResult(r));
    EXPECT_EQ(back.freqGhz, r.freqGhz);
    EXPECT_EQ(back.perf.cycles.value(), 123456u);
    EXPECT_EQ(back.activity.schedWakeupDie[kNumDies - 1].value(), 7u);
}

TEST(SerializeTest, EveryStatRoundTrips)
{
    // Fill every statistic through the core/activity.h lists with its
    // own value, so a stat the codec dropped or misplaced would show.
    CoreResult r;
    r.freqGhz = 2.5;
    std::uint64_t next = 1;
    const auto fill = [&next](const char *, auto &s) {
        if constexpr (std::is_same_v<std::decay_t<decltype(s)>,
                                     Histogram>) {
            for (int i = 0; i < 100; ++i)
                s.sample(static_cast<double>(i % 37));
        } else {
            s.set(next++ * 1000003);
        }
    };
    forEachPerfStat(fill, r.perf);
    forEachActivityStat(fill, r.activity);
    ASSERT_EQ(next, 76u) << "75 counters";

    const std::vector<std::uint8_t> bytes = serializeCoreResult(r);
    Decoder dec(bytes);
    CoreResult back;
    ASSERT_TRUE(decodeCoreResult(dec, back));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(back.freqGhz, r.freqGhz);
    int stats = 0;
    const auto same = [&stats](const char *name, const auto &a,
                               const auto &b) {
        ++stats;
        if constexpr (std::is_same_v<std::decay_t<decltype(a)>,
                                     Histogram>) {
            EXPECT_EQ(a.buckets(), b.buckets()) << name;
            EXPECT_EQ(a.count(), b.count()) << name;
            EXPECT_EQ(a.sum(), b.sum()) << name;
            EXPECT_EQ(a.min(), b.min()) << name;
            EXPECT_EQ(a.max(), b.max()) << name;
            EXPECT_EQ(a.lo(), b.lo()) << name;
            EXPECT_EQ(a.hi(), b.hi()) << name;
        } else {
            EXPECT_EQ(a.value(), b.value()) << name;
        }
    };
    forEachPerfStat(same, r.perf, back.perf);
    forEachActivityStat(same, r.activity, back.activity);
    EXPECT_EQ(stats, 76);
}

TEST(SerializeTest, TruncatedCoreResultFailsDecode)
{
    Encoder enc;
    encodeCoreResult(enc, sampleResult());
    std::vector<std::uint8_t> bytes = enc.data();
    bytes.resize(bytes.size() / 2);

    Decoder dec(bytes);
    CoreResult back;
    EXPECT_FALSE(decodeCoreResult(dec, back));
}

TEST(SerializeTest, AbsurdHistogramBucketCountRejected)
{
    Encoder enc;
    enc.f64(0.0);
    enc.f64(1.0);
    enc.u32(0x7FFFFFFFu); // Bucket count beyond any sane histogram.
    enc.u64(0);
    enc.f64(0.0);
    enc.f64(0.0);
    enc.f64(0.0);
    Decoder dec(enc.data());
    Histogram h;
    EXPECT_FALSE(decodeHistogram(dec, h));
}

} // namespace
} // namespace th
