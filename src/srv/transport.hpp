// TCP transport for the decision service (DESIGN.md section 10; the wire
// format is specified in docs/PROTOCOL.md).
//
// TcpServer is the NDJSON framing on the shared connection loop
// (srv/loop.hpp, which also carries the metrics HTTP server) in front of
// an AmsRouter. The loop thread owns every socket and frames
// newline-delimited requests. It answers cache hits itself:
// DecisionService::submit() completes a hit on the calling thread, so the
// loop runs the hit's context gather, cache probe, PEP, flight record and
// audit write. Misses run on the router's worker pools — the loop never
// blocks on a solve, and never waits out a model adoption (submit() then
// queues the request). Every completion callback serializes the reply and
// posts it to the connection's outbox; only a worker's completion also
// wakes the loop.
//
// Robustness rules (each has a counter in TransportStats, exported as
// `agenp_srv_conn_*` by srv::serve_metrics):
//  - a line longer than max_line_bytes gets a bad_request reply; nothing
//    more is read, and the connection closes once every reply owed on it
//    (earlier lines' included) has flushed;
//  - a client that reads slower than it submits is disconnected when its
//    write buffer exceeds max_write_buffer_bytes;
//  - a connection idle longer than idle_timeout — no request read, no
//    reply written, nothing in flight or still queued in its outbox —
//    is closed;
//  - a half-closed connection (client shutdown(SHUT_WR)) still receives
//    every reply for requests already read, then is closed.
//
// shutdown() drains gracefully: stop accepting, stop reading, discard
// buffered-but-unprocessed input, let in-flight decisions complete
// (router drain), flush replies until drain_timeout, then close.
//
// dispatch_line is the one front door shared by `agenp serve` stdin mode
// and this transport, so a line behaves identically on both (including
// `!stats` / `!flight` / `!trace` control lines).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "srv/router.hpp"
#include "srv/wire.hpp"

namespace agenp::srv {

// How a line that is neither a JSON object nor a `!` control line is
// treated.
enum class LineMode {
    Text,  // stdin REPL: the line is a request; the reply is the outcome name
    Json,  // TCP: anything but JSON / control is a bad_request error reply
};

struct DispatchResult {
    bool deferred = false;     // the reply arrives later through `reply`
    bool bad_request = false;  // the immediate reply is a bad_request error
    std::string immediate;     // non-empty: reply now (newline not included)
};

// Routes one input line:
//   `!...`  -> control(line); replied immediately (may be multi-line)
//   `{...}` -> wire request: ping answers immediately, a decision is
//              submitted to the router and `reply` is called exactly once
//              with the serialized response (from a worker thread, or
//              inline for a cache hit or an immediate rejection)
//   other   -> Text mode: deferred plain-text outcome-name reply;
//              Json mode: immediate bad_request error
// Empty lines produce neither a deferred nor an immediate reply. Invalid
// UTF-8 is answered with a bad_request error in either mode.
DispatchResult dispatch_line(AmsRouter& router, std::string_view line, LineMode mode,
                             std::uint64_t client_id,
                             const std::function<std::string(std::string_view)>& control,
                             std::function<void(std::string)> reply);

struct TransportOptions {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; read back via TcpServer::port()
    std::size_t max_connections = 256;
    // Longest accepted request line, terminator included.
    std::size_t max_line_bytes = kDefaultMaxLineBytes;
    // Per-connection outbound backlog cap; crossing it disconnects the
    // (slow) client rather than buffering without bound.
    std::size_t max_write_buffer_bytes = 256 * 1024;
    // Close connections with nothing in flight that have been silent this
    // long. Zero disables the idle check.
    std::chrono::milliseconds idle_timeout{0};
    // shutdown(): how long to keep flushing replies for in-flight
    // requests before force-closing sockets.
    std::chrono::milliseconds drain_timeout{5000};
};

struct TransportStats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t active = 0;  // currently open connections
    std::uint64_t lines_in = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t slow_client_disconnects = 0;
    std::uint64_t idle_disconnects = 0;
    std::uint64_t oversized_disconnects = 0;
};

std::string transport_stats_json(const TransportStats& stats);

class TcpServer {
public:
    // Binds and listens immediately — throws std::runtime_error when the
    // address is unavailable — then serves on one background loop thread.
    // `control` handles `!`-prefixed lines (empty = control lines get a
    // bad_request reply). The router must outlive the server.
    TcpServer(AmsRouter& router, TransportOptions options,
              std::function<std::string(std::string_view)> control = {});
    ~TcpServer();  // implies shutdown()

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    // The bound port (resolves an ephemeral request for port 0).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    // Graceful drain (see file comment). Idempotent; returns once the
    // loop thread has exited and every socket is closed.
    void shutdown();

    [[nodiscard]] TransportStats stats() const;

private:
    struct Impl;

    std::uint16_t port_ = 0;
    std::unique_ptr<Impl> impl_;
};

// Minimal blocking client for the same wire protocol: used by
// `agenp loadgen --connect`, the protocol round-trip tests, the CI smoke,
// and http_get. One instance serves one thread.
class TcpClient {
public:
    // Connects (IPv4; `host` is a dotted quad or a resolvable name).
    // Throws std::runtime_error on failure.
    TcpClient(const std::string& host, std::uint16_t port);
    ~TcpClient();

    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    // Writes `bytes` as they are; throws on a broken pipe.
    void send(std::string_view bytes);
    // Writes `line` plus a terminating newline; throws on a broken pipe.
    void send_line(std::string_view line);

    // Next reply line (CR/LF stripped), or nullopt on EOF, error or
    // timeout; closed() tells the first two from the last.
    std::optional<std::string> recv_line(
        std::chrono::milliseconds timeout = std::chrono::milliseconds{10000});
    // Every byte not yet returned, up to EOF or the timeout.
    std::string recv_to_eof(std::chrono::milliseconds timeout);

    // Half-close: no more requests, but replies still flow back.
    void shutdown_write();

    // True once a read saw the peer close the connection (EOF) or an
    // error; false after a read that only timed out.
    [[nodiscard]] bool closed() const { return closed_; }

    [[nodiscard]] int fd() const { return fd_; }

private:
    // Waits until `deadline` for bytes and appends them to buf_; false on
    // EOF, error (both set closed_) or timeout.
    bool receive(std::chrono::steady_clock::time_point deadline);

    int fd_ = -1;
    bool closed_ = false;
    std::string buf_;  // bytes received but not yet returned as lines
};

}  // namespace agenp::srv
