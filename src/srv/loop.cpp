#include "srv/loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "util/errors.hpp"

namespace agenp::srv {

namespace {

void set_nonblocking(int fd) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Closes a socket with a FIN, not a reset. A close() that leaves unread
// input on the socket makes the kernel answer with a reset, and a reset
// discards reply bytes the peer has not received yet. So the input
// already queued, up to a fixed bound, is read and discarded first, and
// the write side is shut down before the close.
void close_socket(int fd) {
    constexpr std::size_t kMaxDiscard = 64 * 1024;
    char buf[4096];
    for (std::size_t discarded = 0; discarded < kMaxDiscard;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
            discarded += static_cast<std::size_t>(n);
        } else if (n == 0 || errno != EINTR) {
            break;  // EOF, nothing queued, or an error
        }
    }
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
}

}  // namespace

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

ConnectionLoop::ConnectionLoop(TransportOptions options, std::string reply_end,
                               std::string over_capacity_reply)
    : options_(std::move(options)),
      reply_end_(std::move(reply_end)),
      over_capacity_reply_(std::move(over_capacity_reply)) {
    if (options_.max_connections == 0) options_.max_connections = 1;
    if (options_.max_write_buffer_bytes == 0) options_.max_write_buffer_bytes = 1;
}

ConnectionLoop::~ConnectionLoop() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_r_ >= 0) ::close(wake_r_);
    if (wake_w_ >= 0) ::close(wake_w_);
}

void ConnectionLoop::start() {
    // On a throw the destructor closes whatever was opened.
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket: " + util::errno_string());
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error("bad bind address: " + options_.bind_address);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error("bind " + options_.bind_address + ":" +
                                 std::to_string(options_.port) + ": " + util::errno_string());
    }
    if (::listen(listen_fd_, 64) != 0) {
        throw std::runtime_error("listen: " + util::errno_string());
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    set_nonblocking(listen_fd_);

    int pipefd[2];
    if (::pipe(pipefd) != 0) throw std::runtime_error("pipe: " + util::errno_string());
    wake_r_ = pipefd[0];
    wake_w_ = pipefd[1];
    set_nonblocking(wake_r_);
    set_nonblocking(wake_w_);
    loop_ = std::thread([this] { run(); });
}

void ConnectionLoop::shutdown() {
    util::MutexLock lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    stopping_.store(true, std::memory_order_release);
    wake();
    if (loop_.joinable()) loop_.join();
}

TransportStats ConnectionLoop::stats() const {
    TransportStats out;
    out.accepted = stats_.accepted.load(std::memory_order_relaxed);
    out.closed = stats_.closed.load(std::memory_order_relaxed);
    out.active = stats_.active.load(std::memory_order_relaxed);
    out.lines_in = stats_.lines_in.load(std::memory_order_relaxed);
    out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
    out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
    out.bad_requests = stats_.bad_requests.load(std::memory_order_relaxed);
    out.slow_client_disconnects = stats_.slow.load(std::memory_order_relaxed);
    out.idle_disconnects = stats_.idle.load(std::memory_order_relaxed);
    out.oversized_disconnects = stats_.oversized.load(std::memory_order_relaxed);
    return out;
}

void ConnectionLoop::wake() {
    char b = 1;
    // A full pipe means a wakeup is already pending — that's enough.
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
}

void ConnectionLoop::close_conn(const ConnectionPtr& conn) {
    if (conn->fd < 0) return;
    {
        obs::ProfiledMutexLock lock(conn->outbox_mu);
        conn->closed = true;
        conn->outbox.clear();
    }
    close_socket(conn->fd);
    conn->fd = -1;
    stats_.closed.fetch_add(1, std::memory_order_relaxed);
    stats_.active.fetch_sub(1, std::memory_order_relaxed);
}

void ConnectionLoop::reap() {
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const ConnectionPtr& c) { return c->fd < 0; }),
                 conns_.end());
}

void ConnectionLoop::queue_output(const ConnectionPtr& conn, std::string_view reply) {
    if (conn->fd < 0) return;
    conn->write_buf.append(reply);
    conn->write_buf.append(reply_end_);
    if (conn->write_buf.size() > options_.max_write_buffer_bytes) {
        stats_.slow.fetch_add(1, std::memory_order_relaxed);
        close_conn(conn);
    }
}

void ConnectionLoop::close_after_flush(const ConnectionPtr& conn) {
    conn->read_closed = true;
    conn->read_buf.clear();
}

void ConnectionLoop::post(const ConnectionPtr& conn, std::string reply) {
    {
        obs::ProfiledMutexLock lock(conn->outbox_mu);
        if (!conn->closed) conn->outbox.push_back(std::move(reply));
    }
    conn->pending.fetch_sub(1, std::memory_order_release);
    // A reply completed on the loop thread (a cache hit, or an immediate
    // Overloaded) is flushed by this same loop pass; only a worker's
    // completion has to wake the loop.
    if (std::this_thread::get_id() != loop_thread_) wake();
}

void ConnectionLoop::flush(const ConnectionPtr& conn) {
    while (conn->fd >= 0 && !conn->write_buf.empty()) {
        ssize_t n = ::send(conn->fd, conn->write_buf.data(), conn->write_buf.size(), MSG_NOSIGNAL);
        if (n > 0) {
            stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
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

void ConnectionLoop::read_from(const ConnectionPtr& conn) {
    char buf[4096];
    while (conn->fd >= 0 && !conn->read_closed && !conn->paused) {
        ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            conn->last_activity = std::chrono::steady_clock::now();
            conn->read_buf.append(buf, static_cast<std::size_t>(n));
            on_input(conn);
            if (static_cast<std::size_t>(n) < sizeof buf) return;
            continue;
        }
        if (n == 0) {  // half-close: replies still flush, then we close
            close_after_flush(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close_conn(conn);  // reset / hard error
        return;
    }
}

void ConnectionLoop::accept_new() {
    while (true) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN or transient accept error: try next wakeup
        }
        if (conns_.size() >= options_.max_connections) {
            if (!over_capacity_reply_.empty()) {
                [[maybe_unused]] ssize_t n = ::send(fd, over_capacity_reply_.data(),
                                                    over_capacity_reply_.size(), MSG_NOSIGNAL);
            }
            close_socket(fd);
            continue;
        }
        set_nonblocking(fd);
        set_nodelay(fd);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->id = next_conn_id_++;
        conn->last_activity = std::chrono::steady_clock::now();
        conns_.push_back(std::move(conn));
        stats_.accepted.fetch_add(1, std::memory_order_relaxed);
        stats_.active.fetch_add(1, std::memory_order_relaxed);
    }
}

// Moves posted replies into write buffers, flushes, resumes paused
// framings, and applies the close state machine.
void ConnectionLoop::service_connections() {
    std::vector<std::string> ready;
    for (auto& conn : conns_) {
        if (conn->fd < 0) continue;
        ready.clear();
        {
            obs::ProfiledMutexLock lock(conn->outbox_mu);
            ready.swap(conn->outbox);
        }
        for (const std::string& reply : ready) queue_output(conn, reply);
        flush(conn);
        // A paused framing gets the input it already holds once its
        // replies are out (HTTP: the next pipelined request).
        while (conn->fd >= 0 && conn->paused && conn->write_buf.empty()) {
            conn->paused = false;
            on_input(conn);
            flush(conn);
        }
        if (conn->fd < 0) continue;
        if (conn->read_closed && conn->write_buf.empty() &&
            conn->pending.load(std::memory_order_acquire) == 0) {
            // pending hit zero after the outbox push (release/acquire on
            // pending), so one last empty-outbox check is authoritative;
            // with read_closed no new request can repopulate it. Close
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

void ConnectionLoop::check_idle() {
    if (options_.idle_timeout.count() <= 0) return;
    auto now = std::chrono::steady_clock::now();
    for (auto& conn : conns_) {
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
        if (now - conn->last_activity >= options_.idle_timeout) {
            stats_.idle.fetch_add(1, std::memory_order_relaxed);
            close_conn(conn);
        }
    }
    reap();
}

void ConnectionLoop::graceful_drain() {
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Stop reading; buffered-but-unprocessed input is discarded.
    for (auto& conn : conns_) close_after_flush(conn);
    // After this no reply is owed, so outboxes are final.
    on_drain();
    auto deadline = std::chrono::steady_clock::now() + options_.drain_timeout;
    while (true) {
        service_connections();
        bool any = false;
        for (auto& conn : conns_) {
            if (conn->fd >= 0 && !conn->write_buf.empty()) any = true;
        }
        if (!any) break;
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        std::vector<pollfd> pfds;
        for (auto& conn : conns_) {
            if (conn->fd >= 0 && !conn->write_buf.empty()) pfds.push_back({conn->fd, POLLOUT, 0});
        }
        auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
               static_cast<int>(std::min<long long>(remaining, 100)));
    }
    for (auto& conn : conns_) close_conn(conn);
    reap();
}

void ConnectionLoop::run() {
    loop_thread_ = std::this_thread::get_id();
    const int poll_timeout_ms =
        options_.idle_timeout.count() <= 0
            ? -1
            : static_cast<int>(std::clamp<long long>(options_.idle_timeout.count(), 1, 1000));
    std::vector<pollfd> pfds;
    std::vector<ConnectionPtr> polled;
    while (!stopping_.load(std::memory_order_acquire)) {
        pfds.clear();
        polled.clear();
        pfds.push_back({wake_r_, POLLIN, 0});
        pfds.push_back({listen_fd_, POLLIN, 0});
        for (auto& conn : conns_) {
            short events = 0;
            if (!conn->read_closed && !conn->paused) events |= POLLIN;
            if (!conn->write_buf.empty()) events |= POLLOUT;
            if (events == 0) continue;  // waiting on workers; wake pipe covers it
            pfds.push_back({conn->fd, events, 0});
            polled.push_back(conn);
        }
        int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), poll_timeout_ms);
        if (rc < 0 && errno != EINTR) break;
        if (pfds[0].revents != 0) {
            char buf[64];
            while (::read(wake_r_, buf, sizeof buf) > 0) {
            }
        }
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

}  // namespace agenp::srv
