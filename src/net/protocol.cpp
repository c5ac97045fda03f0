#include "net/protocol.h"

#include <utility>

#include "io/serialize.h"

namespace th {

WireConn::WireConn(Socket sock)
    : sock_(std::move(sock)), sink_(sock_), src_(sock_), writer_(sink_),
      reader_(src_)
{
}

bool WireConn::sendHello(const std::string &build)
{
    if (!writer_.begin(kServerFormatTag, kWireSchemaVersion))
        return false;
    Encoder enc;
    enc.str(build);
    return writer_.chunk(kHelloTag, enc);
}

bool WireConn::recvHello(std::string &peer_build, std::string &err)
{
    std::uint32_t schema = 0;
    if (!reader_.readHeader(kServerFormatTag, schema, err))
        return false;
    if (schema != kWireSchemaVersion) {
        err = "peer speaks wire schema v" + std::to_string(schema) +
              ", this build speaks v" + std::to_string(kWireSchemaVersion);
        return false;
    }
    bool clean_eof = false;
    std::vector<std::uint8_t> payload;
    if (!recvChunk(kHelloTag, payload, clean_eof, err)) {
        if (clean_eof)
            err = "peer closed during handshake";
        return false;
    }
    Decoder dec(payload);
    peer_build = dec.str();
    if (!dec.ok()) {
        err = "malformed HELO payload";
        return false;
    }
    return true;
}

bool WireConn::helloAsClient(const std::string &build,
                             std::string &peer_build, std::string &err)
{
    // Both sides send before reading, so neither order deadlocks; the
    // frames are far smaller than any socket buffer.
    if (!sendHello(build)) {
        err = "failed to send handshake";
        return false;
    }
    return recvHello(peer_build, err);
}

bool WireConn::sendRequest(const SimRequest &req)
{
    Encoder enc;
    encodeSimRequest(enc, req);
    return writer_.chunk(kRequestTag, enc);
}

bool WireConn::recvChunk(const char *want_tag,
                         std::vector<std::uint8_t> &payload, bool &clean_eof,
                         std::string &err)
{
    clean_eof = false;
    std::string tag;
    switch (reader_.next(tag, payload, err)) {
    case ChunkReader::Next::Chunk:
        break;
    case ChunkReader::Next::End:
        clean_eof = true;
        err = "connection closed";
        return false;
    case ChunkReader::Next::Corrupt:
        return false;
    }
    if (tag != want_tag) {
        err = "expected chunk '" + std::string(want_tag) + "', got '" + tag +
              "'";
        return false;
    }
    return true;
}

bool WireConn::recvResponse(SimResponse &rsp, std::string &err)
{
    // Responses carry rendered sweep tables; allow the larger cap.
    reader_.setMaxChunkBytes(kMaxResponseBytes);
    bool clean_eof = false;
    std::vector<std::uint8_t> payload;
    if (!recvChunk(kResponseTag, payload, clean_eof, err))
        return false;
    Decoder dec(payload);
    if (!decodeSimResponse(dec, rsp) || !dec.atEnd()) {
        err = "malformed response payload";
        return false;
    }
    return true;
}

} // namespace th
