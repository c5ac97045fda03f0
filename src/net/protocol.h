/**
 * @file
 * Wire protocol for th_serve. A connection is a pair of THIO chunk
 * streams, one per direction, each beginning with the standard
 * container header (format tag "TSRV", schema kWireSchemaVersion)
 * followed by a HELO chunk carrying the sender's build string. After
 * the handshake the client sends SREQ chunks (encoded SimRequest) and
 * the server answers each with one SRSP chunk (encoded SimResponse).
 * Every frame rides the existing CRC-32 chunk machinery, so a
 * corrupted or truncated frame is detected exactly like a corrupted
 * artifact file.
 */

#ifndef TH_NET_PROTOCOL_H
#define TH_NET_PROTOCOL_H

#include <memory>
#include <string>

#include "io/chunkio.h"
#include "io/request.h"
#include "net/socket.h"

namespace th {

/** Container format tag for the serving protocol. */
inline constexpr char kServerFormatTag[] = "TSRV";

/** Chunk tags: handshake, request, response. */
inline constexpr char kHelloTag[] = "HELO";
inline constexpr char kRequestTag[] = "SREQ";
inline constexpr char kResponseTag[] = "SRSP";

/**
 * Per-chunk caps, applied by whichever side is reading. Requests are
 * tiny (a few strings and scalars), so the server caps hard; response
 * text can carry multi-benchmark sweep tables, so clients allow more.
 */
inline constexpr std::uint32_t kMaxRequestBytes = 1u << 20;
inline constexpr std::uint32_t kMaxResponseBytes = 16u << 20;

/**
 * The client side of an established connection: owns the socket plus
 * the chunk writer/reader running over it; helloAsClient performs the
 * handshake. (The server side is the event loop's per-connection
 * buffers, see net/event_loop.h.) Not thread-safe; SimClient is
 * single-threaded by construction.
 */
class WireConn
{
  public:
    explicit WireConn(Socket sock);

    /**
     * Handshake from the client side: send header+HELO, then read and
     * validate the server's. On success @p peer_build holds the
     * server's build string.
     */
    bool helloAsClient(const std::string &build, std::string &peer_build,
                       std::string &err);

    bool sendRequest(const SimRequest &req);
    bool recvResponse(SimResponse &rsp, std::string &err);

    /** Unblock a blocked read/write from another thread. */
    void shutdownBoth() { sock_.shutdownBoth(); }
    void close() { sock_.close(); }

  private:
    bool sendHello(const std::string &build);
    bool recvHello(std::string &peer_build, std::string &err);
    /** Read one chunk and require @p want_tag. */
    bool recvChunk(const char *want_tag, std::vector<std::uint8_t> &payload,
                   bool &clean_eof, std::string &err);

    Socket sock_;
    SocketSink sink_;
    SocketSource src_;
    ChunkWriter writer_;
    ChunkReader reader_;
};

} // namespace th

#endif // TH_NET_PROTOCOL_H
