#include "io/chunkio.h"

#include <cstring>

#include "common/log.h"
#include "io/crc32.h"

namespace th {

namespace {

constexpr char kMagic[4] = {'T', 'H', 'I', 'O'};

} // namespace

const char *
chunkErrorName(ChunkError e)
{
    switch (e) {
    case ChunkError::None:             return "none";
    case ChunkError::ShortHeader:      return "short-header";
    case ChunkError::BadMagic:         return "bad-magic";
    case ChunkError::FormatMismatch:   return "format-mismatch";
    case ChunkError::BadVersion:       return "bad-version";
    case ChunkError::TruncatedHeader:  return "truncated-header";
    case ChunkError::Oversize:         return "oversize";
    case ChunkError::EmptyChunk:       return "empty-chunk";
    case ChunkError::TruncatedPayload: return "truncated-payload";
    case ChunkError::CrcMismatch:      return "crc-mismatch";
    case ChunkError::NotOpen:          return "not-open";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// Sinks / sources.
// ---------------------------------------------------------------------

bool
FileSink::write(const void *data, std::size_t len)
{
    if (!f_)
        return false;
    return std::fwrite(data, 1, len, f_) == len;
}

bool
MemSink::write(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
    return true;
}

std::size_t
FileSource::read(void *data, std::size_t len)
{
    if (!f_)
        return 0;
    return std::fread(data, 1, len, f_);
}

bool
FileSource::rewind()
{
    if (!f_)
        return false;
    return std::fseek(f_, 0, SEEK_SET) == 0;
}

std::size_t
MemSource::read(void *data, std::size_t len)
{
    const std::size_t n = std::min(len, len_ - pos_);
    if (n == 0)
        return 0; // An empty buffer's data() may be null: no memcpy.
    std::memcpy(data, p_ + pos_, n);
    pos_ += n;
    return n;
}

bool
MemSource::rewind()
{
    pos_ = 0;
    return true;
}

// ---------------------------------------------------------------------
// Encoder / Decoder.
// ---------------------------------------------------------------------

void
Encoder::u16(std::uint16_t v)
{
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
}

void
Encoder::u32(std::uint32_t v)
{
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
}

void
Encoder::u64(std::uint64_t v)
{
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
}

void
Encoder::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Encoder::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
Encoder::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
Encoder::patchU32(std::size_t offset, std::uint32_t v)
{
    if (offset + 4 > buf_.size())
        panic("patchU32 out of range (offset %zu, size %zu)", offset,
              buf_.size());
    for (int i = 0; i < 4; ++i)
        buf_[offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

bool
Decoder::take(void *out, std::size_t n)
{
    if (!ok_ || len_ - pos_ < n) {
        ok_ = false;
        std::memset(out, 0, n);
        return false;
    }
    std::memcpy(out, p_ + pos_, n);
    pos_ += n;
    return true;
}

std::uint8_t
Decoder::u8()
{
    std::uint8_t v;
    take(&v, 1);
    return v;
}

std::uint16_t
Decoder::u16()
{
    std::uint8_t b[2];
    take(b, 2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t
Decoder::u32()
{
    std::uint8_t b[4];
    take(b, 4);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t
Decoder::u64()
{
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
}

double
Decoder::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Decoder::str()
{
    const std::uint32_t n = u32();
    if (!ok_ || len_ - pos_ < n) {
        ok_ = false;
        return std::string();
    }
    std::string s(reinterpret_cast<const char *>(p_ + pos_), n);
    pos_ += n;
    return s;
}

// ---------------------------------------------------------------------
// ChunkWriter / ChunkReader.
// ---------------------------------------------------------------------

bool
ChunkWriter::begin(const char *format_tag, std::uint32_t schema_version)
{
    if (std::strlen(format_tag) != 4)
        panic("chunk format tag must be 4 characters: '%s'", format_tag);
    Encoder header;
    header.bytes(kMagic, 4);
    header.bytes(format_tag, 4);
    header.u32(kContainerVersion);
    header.u32(schema_version);
    ok_ = sink_.write(header.data().data(), header.size());
    return ok_;
}

bool
ChunkWriter::chunk(const char *tag, const Encoder &payload)
{
    if (std::strlen(tag) != 4)
        panic("chunk tag must be 4 characters: '%s'", tag);
    if (!ok_)
        return false;
    Encoder frame;
    frame.bytes(tag, 4);
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.data().data(), payload.size()));
    ok_ = sink_.write(frame.data().data(), frame.size()) &&
          sink_.write(payload.data().data(), payload.size());
    return ok_;
}

bool
ChunkReader::readHeader(const char *expect_format,
                        std::uint32_t &schema_version, std::string &err)
{
    last_error_ = ChunkError::None;
    std::uint8_t raw[16];
    if (src_.read(raw, sizeof(raw)) != sizeof(raw)) {
        err = "short read in container header";
        last_error_ = ChunkError::ShortHeader;
        return false;
    }
    if (std::memcmp(raw, kMagic, 4) != 0) {
        err = "bad magic (not a THIO container)";
        last_error_ = ChunkError::BadMagic;
        return false;
    }
    if (std::memcmp(raw + 4, expect_format, 4) != 0) {
        err = strformat("format tag mismatch: got '%.4s', want '%s'",
                        reinterpret_cast<const char *>(raw + 4),
                        expect_format);
        last_error_ = ChunkError::FormatMismatch;
        return false;
    }
    Decoder d(raw + 8, 8);
    const std::uint32_t container = d.u32();
    schema_version = d.u32();
    if (container != kContainerVersion) {
        err = strformat("unsupported container version %u", container);
        last_error_ = ChunkError::BadVersion;
        return false;
    }
    return true;
}

ChunkReader::Next
ChunkReader::next(std::string &tag, std::vector<std::uint8_t> &payload,
                  std::string &err)
{
    last_error_ = ChunkError::None;
    std::uint8_t raw[12];
    const std::size_t got = src_.read(raw, sizeof(raw));
    if (got == 0)
        return Next::End;
    if (got != sizeof(raw)) {
        err = "truncated chunk header";
        last_error_ = ChunkError::TruncatedHeader;
        return Next::Corrupt;
    }
    tag.assign(reinterpret_cast<const char *>(raw), 4);
    Decoder d(raw + 4, 8);
    const std::uint32_t len = d.u32();
    const std::uint32_t want_crc = d.u32();
    // Reject the declared length BEFORE resizing the payload buffer: a
    // hostile frame must not be able to trigger a huge allocation.
    if (len > max_chunk_bytes_) {
        err = strformat("chunk '%s' length %u exceeds cap %u",
                        tag.c_str(), len, max_chunk_bytes_);
        last_error_ = ChunkError::Oversize;
        return Next::Corrupt;
    }
    if (len == 0) {
        err = strformat("chunk '%s' has a zero-length payload",
                        tag.c_str());
        last_error_ = ChunkError::EmptyChunk;
        return Next::Corrupt;
    }
    payload.resize(len);
    if (src_.read(payload.data(), len) != len) {
        err = "truncated chunk payload";
        last_error_ = ChunkError::TruncatedPayload;
        return Next::Corrupt;
    }
    const std::uint32_t got_crc = crc32(payload.data(), payload.size());
    if (got_crc != want_crc) {
        err = strformat("chunk '%s' CRC mismatch (%08x != %08x)",
                        tag.c_str(), got_crc, want_crc);
        last_error_ = ChunkError::CrcMismatch;
        return Next::Corrupt;
    }
    return Next::Chunk;
}

// ---------------------------------------------------------------------
// File wrappers.
// ---------------------------------------------------------------------

ChunkFileWriter::~ChunkFileWriter()
{
    if (f_)
        std::fclose(f_);
}

bool
ChunkFileWriter::open(const std::string &path, const char *format_tag,
                      std::uint32_t schema_version)
{
    if (f_)
        return false;
    f_ = std::fopen(path.c_str(), "wb");
    if (!f_)
        return false;
    sink_.setFile(f_);
    return writer_.begin(format_tag, schema_version);
}

bool
ChunkFileWriter::chunk(const char *tag, const Encoder &payload)
{
    return f_ != nullptr && writer_.chunk(tag, payload);
}

bool
ChunkFileWriter::close()
{
    if (!f_)
        return false;
    bool ok = writer_.ok();
    ok = std::fflush(f_) == 0 && ok;
    ok = std::fclose(f_) == 0 && ok;
    f_ = nullptr;
    sink_.setFile(nullptr);
    return ok;
}

ChunkFileReader::~ChunkFileReader()
{
    close();
}

bool
ChunkFileReader::open(const std::string &path, const char *expect_format,
                      std::uint32_t &schema_version, std::string &err)
{
    if (f_)
        close();
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_) {
        err = strformat("cannot open '%s'", path.c_str());
        last_error_ = ChunkError::NotOpen;
        return false;
    }
    src_.setFile(f_);
    if (!reader_.readHeader(expect_format, schema_version, err)) {
        last_error_ = reader_.lastError();
        close();
        return false;
    }
    last_error_ = ChunkError::None;
    return true;
}

ChunkReader::Next
ChunkFileReader::next(std::string &tag, std::vector<std::uint8_t> &payload,
                      std::string &err)
{
    if (!f_) {
        err = "reader is not open";
        last_error_ = ChunkError::NotOpen;
        return ChunkReader::Next::Corrupt;
    }
    const ChunkReader::Next r = reader_.next(tag, payload, err);
    last_error_ = reader_.lastError();
    return r;
}

void
ChunkFileReader::close()
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
        src_.setFile(nullptr);
    }
}

} // namespace th
