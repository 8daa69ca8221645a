#include "srv/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cfg/grammar.hpp"
#include "obs/lockprof.hpp"
#include "util/errors.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::srv {

DispatchResult dispatch_line(AmsRouter& router, std::string_view line, LineMode mode,
                             std::uint64_t client_id,
                             const std::function<std::string(std::string_view)>& control,
                             std::function<void(std::string)> reply) {
    DispatchResult out;
    if (line.empty()) return out;
    if (!valid_utf8(line)) {
        out.bad_request = true;
        out.immediate = wire_error_json(std::nullopt, "bad_request", "line is not valid UTF-8");
        return out;
    }
    if (line.front() == '!') {
        if (control) {
            out.immediate = control(line);
        } else {
            out.bad_request = true;
            out.immediate =
                wire_error_json(std::nullopt, "bad_request", "control lines are not enabled");
        }
        return out;
    }
    if (mode == LineMode::Json || line.front() == '{') {
        std::string error;
        std::optional<std::uint64_t> id;
        std::optional<WireRequest> request = parse_wire_request(line, &error, &id);
        if (!request) {
            out.bad_request = true;
            out.immediate = wire_error_json(id, "bad_request", error);
            return out;
        }
        if (!request->op.empty()) {  // the only op today is ping
            out.immediate = wire_ping_json(
                request->has_id ? std::optional<std::uint64_t>(request->id) : std::nullopt,
                router.replicas(), router.model_version());
            return out;
        }
        DecisionService::SubmitOptions submit_options;
        submit_options.timeout = std::chrono::microseconds(request->timeout_ms * 1000);
        submit_options.client_id = client_id;
        WireRequest echoed = *request;
        submit_options.on_complete = [echoed, reply = std::move(reply)](const Decision& decision) {
            reply(wire_decision_json(echoed, decision));
        };
        router.submit(cfg::tokenize(request->decide), std::move(submit_options));
        out.deferred = true;
        return out;
    }
    DecisionService::SubmitOptions submit_options;
    submit_options.client_id = client_id;
    submit_options.on_complete = [reply = std::move(reply)](const Decision& decision) {
        reply(std::string(outcome_name(decision.outcome)));
    };
    router.submit(cfg::tokenize(line), std::move(submit_options));
    out.deferred = true;
    return out;
}

std::string transport_stats_json(const TransportStats& stats) {
    std::string out = "{";
    out += "\"accepted\":" + std::to_string(stats.accepted);
    out += ",\"closed\":" + std::to_string(stats.closed);
    out += ",\"active\":" + std::to_string(stats.active);
    out += ",\"lines_in\":" + std::to_string(stats.lines_in);
    out += ",\"bytes_in\":" + std::to_string(stats.bytes_in);
    out += ",\"bytes_out\":" + std::to_string(stats.bytes_out);
    out += ",\"bad_requests\":" + std::to_string(stats.bad_requests);
    out += ",\"slow_client_disconnects\":" + std::to_string(stats.slow_client_disconnects);
    out += ",\"idle_disconnects\":" + std::to_string(stats.idle_disconnects);
    out += ",\"oversized_disconnects\":" + std::to_string(stats.oversized_disconnects);
    out += "}";
    return out;
}

namespace {

void set_nonblocking(int fd) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// One accepted socket. The loop thread owns fd / read_buf / write_buf /
// flags; completion callbacks (on a worker, or inline on the loop thread
// for a cache hit) only touch the outbox (under outbox_mu) and the pending
// counter. The callback holds a shared_ptr, so a Connection outlives its
// socket until the last in-flight reply lands.
struct TcpServer::Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string read_buf;
    std::string write_buf;
    std::chrono::steady_clock::time_point last_activity;
    bool read_closed = false;       // no more reads (EOF, oversize, drain)
    bool kill_after_flush = false;  // close once write_buf is flushed
    std::atomic<std::size_t> pending{0};  // submitted, reply not yet in outbox

    obs::ProfiledMutex outbox_mu{"srv.conn.outbox"};
    std::vector<std::string> outbox GUARDED_BY(outbox_mu);  // replies from workers
    bool closed GUARDED_BY(outbox_mu) = false;
};

struct TcpServer::Impl {
    AmsRouter& router;
    TransportOptions options;
    std::function<std::string(std::string_view)> control;

    int listen_fd = -1;
    int wake_r = -1;  // self-pipe: workers wake the poll loop
    int wake_w = -1;
    std::uint16_t port = 0;
    std::thread loop;
    // Set by run() before it reads a request; completion callbacks compare
    // against it (workers see it through the queue hand-off).
    std::thread::id loop_thread;
    std::atomic<bool> stopping{false};
    util::Mutex shutdown_mu;
    bool shut_down GUARDED_BY(shutdown_mu) = false;

    std::vector<std::shared_ptr<Connection>> conns;  // loop thread only
    std::uint64_t next_conn_id = 1;

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
    } stats;

    Impl(AmsRouter& router_in, TransportOptions options_in,
         std::function<std::string(std::string_view)> control_in)
        : router(router_in), options(std::move(options_in)), control(std::move(control_in)) {
        if (options.max_connections == 0) options.max_connections = 1;
        if (options.max_line_bytes == 0) options.max_line_bytes = kDefaultMaxLineBytes;
        if (options.max_write_buffer_bytes == 0) options.max_write_buffer_bytes = 1;
    }

    ~Impl() {
        if (listen_fd >= 0) ::close(listen_fd);
        if (wake_r >= 0) ::close(wake_r);
        if (wake_w >= 0) ::close(wake_w);
    }

    void open_listener() {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0) throw std::runtime_error("socket: " + util::errno_string());
        int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(options.port);
        if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
            throw std::runtime_error("bad bind address: " + options.bind_address);
        }
        if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            throw std::runtime_error("bind " + options.bind_address + ":" +
                                     std::to_string(options.port) + ": " + util::errno_string());
        }
        if (::listen(listen_fd, 64) != 0) {
            throw std::runtime_error("listen: " + util::errno_string());
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
        port = ntohs(bound.sin_port);
        set_nonblocking(listen_fd);

        int pipefd[2];
        if (::pipe(pipefd) != 0) throw std::runtime_error("pipe: " + util::errno_string());
        wake_r = pipefd[0];
        wake_w = pipefd[1];
        set_nonblocking(wake_r);
        set_nonblocking(wake_w);
    }

    void wake() {
        char b = 1;
        // A full pipe means a wakeup is already pending — that's enough.
        [[maybe_unused]] ssize_t n = ::write(wake_w, &b, 1);
    }

    void drain_wake() {
        char buf[64];
        while (::read(wake_r, buf, sizeof buf) > 0) {
        }
    }

    void close_conn(const std::shared_ptr<Connection>& conn) {
        if (conn->fd < 0) return;
        {
            obs::ProfiledMutexLock lock(conn->outbox_mu);
            conn->closed = true;
            conn->outbox.clear();
        }
        ::close(conn->fd);
        conn->fd = -1;
        stats.closed.fetch_add(1, std::memory_order_relaxed);
        stats.active.fetch_sub(1, std::memory_order_relaxed);
    }

    void reap() {
        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const std::shared_ptr<Connection>& c) { return c->fd < 0; }),
                    conns.end());
    }

    // Appends one reply line; enforces the slow-client backlog cap.
    void queue_output(const std::shared_ptr<Connection>& conn, std::string_view line) {
        if (conn->fd < 0) return;
        conn->write_buf.append(line);
        conn->write_buf.push_back('\n');
        if (conn->write_buf.size() > options.max_write_buffer_bytes) {
            stats.slow.fetch_add(1, std::memory_order_relaxed);
            close_conn(conn);
        }
    }

    void flush(const std::shared_ptr<Connection>& conn) {
        while (conn->fd >= 0 && !conn->write_buf.empty()) {
            ssize_t n =
                ::send(conn->fd, conn->write_buf.data(), conn->write_buf.size(), MSG_NOSIGNAL);
            if (n > 0) {
                stats.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                          std::memory_order_relaxed);
                // A delivered reply is activity: without this, a request
                // slower than idle_timeout gets its connection idle-closed
                // the moment (or before) the client sees the answer.
                conn->last_activity = std::chrono::steady_clock::now();
                conn->write_buf.erase(0, static_cast<std::size_t>(n));
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            close_conn(conn);
            return;
        }
    }

    void oversized(const std::shared_ptr<Connection>& conn) {
        stats.oversized.fetch_add(1, std::memory_order_relaxed);
        queue_output(conn,
                     wire_error_json(std::nullopt, "bad_request", "line exceeds maximum length"));
        conn->read_buf.clear();
        conn->read_closed = true;
        conn->kill_after_flush = true;
    }

    void handle_line(const std::shared_ptr<Connection>& conn, std::string_view line) {
        stats.lines_in.fetch_add(1, std::memory_order_relaxed);
        if (line.empty()) return;
        conn->pending.fetch_add(1, std::memory_order_relaxed);
        DispatchResult result = dispatch_line(
            router, line, LineMode::Json, conn->id, control,
            [this, conn](std::string reply) {
                {
                    obs::ProfiledMutexLock lock(conn->outbox_mu);
                    if (!conn->closed) conn->outbox.push_back(std::move(reply));
                }
                conn->pending.fetch_sub(1, std::memory_order_release);
                // A reply completed on the loop thread (a cache hit, or an
                // immediate Overloaded) is flushed by this same loop pass;
                // only a worker's completion has to wake the loop.
                if (std::this_thread::get_id() != loop_thread) wake();
            });
        if (!result.deferred) conn->pending.fetch_sub(1, std::memory_order_relaxed);
        if (result.bad_request) stats.bad_requests.fetch_add(1, std::memory_order_relaxed);
        if (!result.immediate.empty()) queue_output(conn, result.immediate);
    }

    void process_read_buf(const std::shared_ptr<Connection>& conn) {
        while (conn->fd >= 0 && !conn->read_closed) {
            std::size_t pos = conn->read_buf.find('\n');
            if (pos == std::string::npos) {
                if (conn->read_buf.size() >= options.max_line_bytes) oversized(conn);
                return;
            }
            if (pos + 1 > options.max_line_bytes) {
                oversized(conn);
                return;
            }
            std::string line = conn->read_buf.substr(0, pos);
            conn->read_buf.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            handle_line(conn, line);
        }
    }

    void read_from(const std::shared_ptr<Connection>& conn) {
        char buf[4096];
        while (conn->fd >= 0 && !conn->read_closed) {
            ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
            if (n > 0) {
                stats.bytes_in.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
                conn->last_activity = std::chrono::steady_clock::now();
                conn->read_buf.append(buf, static_cast<std::size_t>(n));
                process_read_buf(conn);
                if (static_cast<std::size_t>(n) < sizeof buf) return;
                continue;
            }
            if (n == 0) {  // half-close: replies still flush, then we close
                conn->read_closed = true;
                conn->read_buf.clear();
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            close_conn(conn);  // reset / hard error
            return;
        }
    }

    void accept_new() {
        while (true) {
            int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR) continue;
                return;  // EAGAIN or transient accept error: try next wakeup
            }
            if (conns.size() >= options.max_connections) {
                std::string reply =
                    wire_error_json(std::nullopt, "overloaded", "too many connections");
                reply.push_back('\n');
                [[maybe_unused]] ssize_t n = ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
                ::close(fd);
                continue;
            }
            set_nonblocking(fd);
            set_nodelay(fd);
            auto conn = std::make_shared<Connection>();
            conn->fd = fd;
            conn->id = next_conn_id++;
            conn->last_activity = std::chrono::steady_clock::now();
            conns.push_back(std::move(conn));
            stats.accepted.fetch_add(1, std::memory_order_relaxed);
            stats.active.fetch_add(1, std::memory_order_relaxed);
        }
    }

    // Moves completed replies into write buffers, flushes, and applies the
    // close state machine.
    void service_connections() {
        std::vector<std::string> ready;
        for (auto& conn : conns) {
            if (conn->fd < 0) continue;
            ready.clear();
            {
                obs::ProfiledMutexLock lock(conn->outbox_mu);
                ready.swap(conn->outbox);
            }
            for (const std::string& reply : ready) queue_output(conn, reply);
            flush(conn);
            if (conn->fd < 0) continue;
            if (conn->kill_after_flush && conn->write_buf.empty()) {
                close_conn(conn);
                continue;
            }
            if (conn->read_closed && conn->write_buf.empty() &&
                conn->pending.load(std::memory_order_acquire) == 0) {
                // pending hit zero after the outbox push (release/acquire on
                // pending), so one last empty-outbox check is authoritative;
                // with read_closed no new submit can repopulate it. Close
                // outside the lock — close_conn takes outbox_mu itself.
                bool outbox_empty;
                {
                    obs::ProfiledMutexLock lock(conn->outbox_mu);
                    outbox_empty = conn->outbox.empty();
                }
                if (outbox_empty) close_conn(conn);
            }
        }
        reap();
    }

    void check_idle() {
        if (options.idle_timeout.count() <= 0) return;
        auto now = std::chrono::steady_clock::now();
        for (auto& conn : conns) {
            if (conn->fd < 0 || conn->read_closed) continue;
            if (conn->pending.load(std::memory_order_acquire) != 0) continue;
            if (!conn->write_buf.empty()) continue;
            // A completed reply may be sitting in the outbox (pending is
            // decremented after the push) waiting for the next
            // service_connections() pass; closing now would drop it. The
            // acquire load on pending orders this check after the push.
            bool outbox_empty;
            {
                obs::ProfiledMutexLock lock(conn->outbox_mu);
                outbox_empty = conn->outbox.empty();
            }
            if (!outbox_empty) continue;
            if (now - conn->last_activity >= options.idle_timeout) {
                stats.idle.fetch_add(1, std::memory_order_relaxed);
                close_conn(conn);
            }
        }
        reap();
    }

    void graceful_drain() {
        ::close(listen_fd);
        listen_fd = -1;
        for (auto& conn : conns) {
            if (conn->fd < 0) continue;
            // Stop reading; buffered-but-unprocessed input is discarded.
            conn->read_closed = true;
            conn->read_buf.clear();
        }
        // Let every accepted decision complete. After this no completion
        // callback is outstanding, so outboxes are final.
        router.drain();
        auto deadline = std::chrono::steady_clock::now() + options.drain_timeout;
        while (true) {
            service_connections();
            bool any = false;
            for (auto& conn : conns) {
                if (conn->fd >= 0 && !conn->write_buf.empty()) any = true;
            }
            if (!any) break;
            auto now = std::chrono::steady_clock::now();
            if (now >= deadline) break;
            std::vector<pollfd> pfds;
            for (auto& conn : conns) {
                if (conn->fd >= 0 && !conn->write_buf.empty()) {
                    pfds.push_back({conn->fd, POLLOUT, 0});
                }
            }
            auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   static_cast<int>(std::min<long long>(remaining, 100)));
        }
        for (auto& conn : conns) close_conn(conn);
        reap();
    }

    int poll_timeout_ms() const {
        if (options.idle_timeout.count() <= 0) return -1;
        auto ms = options.idle_timeout.count();
        return static_cast<int>(std::clamp<long long>(ms, 1, 1000));
    }

    void run() {
        loop_thread = std::this_thread::get_id();
        std::vector<pollfd> pfds;
        std::vector<std::shared_ptr<Connection>> polled;
        while (!stopping.load(std::memory_order_acquire)) {
            pfds.clear();
            polled.clear();
            pfds.push_back({wake_r, POLLIN, 0});
            pfds.push_back({listen_fd, POLLIN, 0});
            for (auto& conn : conns) {
                short events = 0;
                if (!conn->read_closed) events |= POLLIN;
                if (!conn->write_buf.empty()) events |= POLLOUT;
                if (events == 0) continue;  // waiting on workers; wake pipe covers it
                pfds.push_back({conn->fd, events, 0});
                polled.push_back(conn);
            }
            int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), poll_timeout_ms());
            if (rc < 0 && errno != EINTR) break;
            if (pfds[0].revents != 0) drain_wake();
            if (pfds[1].revents != 0) accept_new();
            for (std::size_t i = 2; i < pfds.size(); ++i) {
                auto& conn = polled[i - 2];
                if (conn->fd < 0) continue;
                if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_from(conn);
            }
            service_connections();
            check_idle();
        }
        graceful_drain();
    }
};

TcpServer::TcpServer(AmsRouter& router, TransportOptions options,
                     std::function<std::string(std::string_view)> control)
    : impl_(std::make_unique<Impl>(router, std::move(options), std::move(control))) {
    impl_->open_listener();  // throws on bind failure; Impl dtor closes fds
    port_ = impl_->port;
    impl_->loop = std::thread([impl = impl_.get()] { impl->run(); });
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::shutdown() {
    if (impl_ == nullptr) return;
    util::MutexLock lock(impl_->shutdown_mu);
    if (impl_->shut_down) return;
    impl_->shut_down = true;
    impl_->stopping.store(true, std::memory_order_release);
    impl_->wake();
    if (impl_->loop.joinable()) impl_->loop.join();
}

TransportStats TcpServer::stats() const {
    const Impl::AtomicStats& s = impl_->stats;
    TransportStats out;
    out.accepted = s.accepted.load(std::memory_order_relaxed);
    out.closed = s.closed.load(std::memory_order_relaxed);
    out.active = s.active.load(std::memory_order_relaxed);
    out.lines_in = s.lines_in.load(std::memory_order_relaxed);
    out.bytes_in = s.bytes_in.load(std::memory_order_relaxed);
    out.bytes_out = s.bytes_out.load(std::memory_order_relaxed);
    out.bad_requests = s.bad_requests.load(std::memory_order_relaxed);
    out.slow_client_disconnects = s.slow.load(std::memory_order_relaxed);
    out.idle_disconnects = s.idle.load(std::memory_order_relaxed);
    out.oversized_disconnects = s.oversized.load(std::memory_order_relaxed);
    return out;
}

TcpClient::TcpClient(const std::string& host, std::uint16_t port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    std::string service = std::to_string(port);
    int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
    if (rc != 0) {
        throw std::runtime_error("cannot resolve " + host + ": " + ::gai_strerror(rc));
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        throw std::runtime_error("cannot connect to " + host + ":" + service + ": " +
                                 util::errno_string());
    }
    set_nodelay(fd);
    fd_ = fd;
}

TcpClient::~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
}

void TcpClient::send_line(std::string_view line) {
    std::string out(line);
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
        ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR) continue;
        throw std::runtime_error("send: " + util::errno_string());
    }
}

std::optional<std::string> TcpClient::recv_line(std::chrono::milliseconds timeout) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
        std::size_t pos = buf_.find('\n');
        if (pos != std::string::npos) {
            std::string line = buf_.substr(0, pos);
            buf_.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            return line;
        }
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return std::nullopt;
        auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(remaining, 60000)));
        if (rc < 0) {
            if (errno == EINTR) continue;
            return std::nullopt;
        }
        if (rc == 0) return std::nullopt;
        char tmp[4096];
        ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
        if (n > 0) {
            buf_.append(tmp, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) return std::nullopt;  // EOF
        if (errno != EINTR) return std::nullopt;
    }
}

void TcpClient::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

}  // namespace agenp::srv
