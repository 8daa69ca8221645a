// The connection loop behind both listeners (DESIGN.md section 10): the
// NDJSON decision transport (srv::TcpServer) and the metrics HTTP server
// (srv::HttpServer) run this one single-threaded poll(2) loop and differ
// only in their framing, which a subclass supplies as on_input().
//
// The loop thread owns every socket: it accepts under max_connections,
// reads without blocking, hands the bytes to the framing, moves replies
// other threads posted into per-connection write buffers, and flushes
// them with non-blocking writes. Buffer rules (each close has a counter
// in TransportStats):
//  - a write buffer over max_write_buffer_bytes disconnects the slow
//    client rather than buffering without bound;
//  - once the framing decides to close a connection (close_after_flush),
//    nothing more is read from it; it closes once every reply owed on it
//    has flushed;
//  - a connection the framing paused is neither read from nor handed its
//    buffered input again until its write buffer has flushed;
//  - a connection idle longer than idle_timeout — nothing read, nothing
//    written, nothing in flight or still queued in its outbox — is closed;
//  - a half-closed connection (client shutdown(SHUT_WR)) still receives
//    every reply for requests already read, then is closed;
//  - a close reads and discards the input still queued on the socket (up
//    to 64 KiB) and shuts down its write side first, so the peer gets a
//    FIN after the last reply rather than a reset that can discard it.
//
// shutdown() drains gracefully: stop accepting, stop reading, discard
// buffered-but-unprocessed input, let in-flight work complete
// (on_drain()), flush replies until drain_timeout, then close.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/lockprof.hpp"
#include "srv/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::srv {

// Disables Nagle's algorithm on a connected socket: requests and replies
// are small and latency-bound.
void set_nodelay(int fd);

class ConnectionLoop {
public:
    // `reply_end` is appended to every queued reply;
    // `over_capacity_reply` is written, best effort, to a connection
    // accepted over max_connections before it is closed.
    ConnectionLoop(TransportOptions options, std::string reply_end,
                   std::string over_capacity_reply);
    // The owner calls shutdown() first: the loop thread calls into the
    // subclass.
    virtual ~ConnectionLoop();

    ConnectionLoop(const ConnectionLoop&) = delete;
    ConnectionLoop& operator=(const ConnectionLoop&) = delete;

    // Binds, listens and starts the loop thread, once the subclass is
    // constructed. Throws std::runtime_error when the address is
    // unavailable.
    void start();

    // The bound port (resolves an ephemeral request for port 0).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    // Graceful drain (see file comment). Idempotent; returns once the
    // loop thread has exited and every socket is closed.
    void shutdown();

    [[nodiscard]] TransportStats stats() const;

protected:
    // One accepted socket. The loop thread owns fd / read_buf / write_buf /
    // flags; post() (from a worker, or inline on the loop thread) only
    // touches the outbox (under outbox_mu) and the pending counter. A
    // reply callback holds a shared_ptr, so a Connection outlives its
    // socket until the last in-flight reply lands.
    struct Connection {
        int fd = -1;
        std::uint64_t id = 0;
        std::string read_buf;
        std::string write_buf;
        std::chrono::steady_clock::time_point last_activity;
        bool read_closed = false;  // no more reads (EOF, close decision, drain)
        bool paused = false;       // no reads or input until write_buf flushes
        std::atomic<std::size_t> pending{0};  // replies owed through post()

        obs::ProfiledMutex outbox_mu{"srv.conn.outbox"};
        std::vector<std::string> outbox GUARDED_BY(outbox_mu);  // posted replies
        bool closed GUARDED_BY(outbox_mu) = false;
    };
    using ConnectionPtr = std::shared_ptr<Connection>;

    struct AtomicStats {
        std::atomic<std::uint64_t> accepted{0};
        std::atomic<std::uint64_t> closed{0};
        std::atomic<std::uint64_t> active{0};
        std::atomic<std::uint64_t> lines_in{0};
        std::atomic<std::uint64_t> bytes_in{0};
        std::atomic<std::uint64_t> bytes_out{0};
        std::atomic<std::uint64_t> bad_requests{0};
        std::atomic<std::uint64_t> slow{0};
        std::atomic<std::uint64_t> idle{0};
        std::atomic<std::uint64_t> oversized{0};
    };

    // The framing, on the loop thread: consumes complete messages at the
    // front of conn->read_buf. Runs after every read, and again when a
    // paused connection's write buffer has flushed.
    virtual void on_input(const ConnectionPtr& conn) = 0;
    // Shutdown, on the loop thread, after reads stop and before the last
    // flush: lets work whose replies are still owed complete.
    virtual void on_drain() {}

    // Loop thread: appends `reply` and reply_end to the write buffer;
    // enforces the write-buffer cap.
    void queue_output(const ConnectionPtr& conn, std::string_view reply);
    // Loop thread: stop reading and drop unparsed input; the connection
    // closes once every reply owed on it has flushed.
    void close_after_flush(const ConnectionPtr& conn);
    // Any thread: delivers one reply owed on `conn` (counted in pending)
    // through its outbox, and wakes the loop unless called on it.
    void post(const ConnectionPtr& conn, std::string reply);

    [[nodiscard]] const TransportOptions& options() const { return options_; }

    AtomicStats stats_;

private:
    void wake();
    void close_conn(const ConnectionPtr& conn);
    void reap();
    void flush(const ConnectionPtr& conn);
    void read_from(const ConnectionPtr& conn);
    void accept_new();
    void service_connections();
    void check_idle();
    void graceful_drain();
    void run();

    TransportOptions options_;
    const std::string reply_end_;
    const std::string over_capacity_reply_;
    int listen_fd_ = -1;
    int wake_r_ = -1;  // self-pipe: other threads wake the poll loop
    int wake_w_ = -1;
    std::uint16_t port_ = 0;
    // Set by run() before it reads a request; post() compares against it
    // (workers see it through the queue hand-off).
    std::thread::id loop_thread_;
    std::atomic<bool> stopping_{false};
    util::Mutex shutdown_mu_;
    bool shut_down_ GUARDED_BY(shutdown_mu_) = false;

    std::vector<ConnectionPtr> conns_;  // loop thread only
    std::uint64_t next_conn_id_ = 1;
    std::thread loop_;  // last: it uses every member above
};

}  // namespace agenp::srv
