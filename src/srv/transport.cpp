#include "srv/transport.hpp"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "cfg/grammar.hpp"
#include "srv/loop.hpp"
#include "util/errors.hpp"

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
        SubmitOptions submit_options;
        submit_options.timeout = std::chrono::microseconds(request->timeout_ms * 1000);
        submit_options.client_id = client_id;
        router.submit(
            cfg::tokenize(request->decide),
            [echoed = *request, reply = std::move(reply)](const Decision& decision) {
                reply(wire_decision_json(echoed, decision));
            },
            submit_options);
        out.deferred = true;
        return out;
    }
    SubmitOptions submit_options;
    submit_options.client_id = client_id;
    router.submit(
        cfg::tokenize(line),
        [reply = std::move(reply)](const Decision& decision) {
            reply(std::string(outcome_name(decision.outcome)));
        },
        submit_options);
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

// The NDJSON framing on the shared connection loop: every complete line
// goes to dispatch_line; a line longer than max_line_bytes gets a
// bad_request reply and ends the reading.
struct TcpServer::Impl final : ConnectionLoop {
    AmsRouter& router;
    std::function<std::string(std::string_view)> control;

    Impl(AmsRouter& router_in, TransportOptions options,
         std::function<std::string(std::string_view)> control_in)
        : ConnectionLoop(with_line_cap(std::move(options)), /*reply_end=*/"\n",
                         wire_error_json(std::nullopt, "overloaded", "too many connections") +
                             "\n"),
          router(router_in),
          control(std::move(control_in)) {}

    static TransportOptions with_line_cap(TransportOptions options) {
        if (options.max_line_bytes == 0) options.max_line_bytes = kDefaultMaxLineBytes;
        return options;
    }

    void oversized(const ConnectionPtr& conn) {
        stats_.oversized.fetch_add(1, std::memory_order_relaxed);
        queue_output(conn,
                     wire_error_json(std::nullopt, "bad_request", "line exceeds maximum length"));
        close_after_flush(conn);
    }

    void handle_line(const ConnectionPtr& conn, std::string_view line) {
        stats_.lines_in.fetch_add(1, std::memory_order_relaxed);
        if (line.empty()) return;
        conn->pending.fetch_add(1, std::memory_order_relaxed);
        DispatchResult result =
            dispatch_line(router, line, LineMode::Json, conn->id, control,
                          [this, conn](std::string reply) { post(conn, std::move(reply)); });
        if (!result.deferred) conn->pending.fetch_sub(1, std::memory_order_relaxed);
        if (result.bad_request) stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
        if (!result.immediate.empty()) queue_output(conn, result.immediate);
    }

    void on_input(const ConnectionPtr& conn) override {
        const std::size_t max_line_bytes = options().max_line_bytes;
        while (conn->fd >= 0 && !conn->read_closed) {
            std::size_t pos = conn->read_buf.find('\n');
            if (pos == std::string::npos) {
                if (conn->read_buf.size() >= max_line_bytes) oversized(conn);
                return;
            }
            if (pos + 1 > max_line_bytes) {
                oversized(conn);
                return;
            }
            std::string line = conn->read_buf.substr(0, pos);
            conn->read_buf.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            handle_line(conn, line);
        }
    }

    // Every accepted decision completes before the last flush.
    void on_drain() override { router.drain(); }
};

TcpServer::TcpServer(AmsRouter& router, TransportOptions options,
                     std::function<std::string(std::string_view)> control)
    : impl_(std::make_unique<Impl>(router, std::move(options), std::move(control))) {
    impl_->start();
    port_ = impl_->port();
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::shutdown() {
    if (impl_ != nullptr) impl_->shutdown();
}

TransportStats TcpServer::stats() const { return impl_->stats(); }

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

void TcpClient::send(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR) continue;
        throw std::runtime_error("send: " + util::errno_string());
    }
}

void TcpClient::send_line(std::string_view line) {
    std::string out(line);
    out.push_back('\n');
    send(out);
}

bool TcpClient::receive(std::chrono::steady_clock::time_point deadline) {
    while (true) {
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return false;
        auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(remaining, 60000)));
        if (rc < 0 && errno == EINTR) continue;
        if (rc == 0) return false;  // timeout
        if (rc > 0) {
            char tmp[4096];
            ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
            if (n > 0) {
                buf_.append(tmp, static_cast<std::size_t>(n));
                return true;
            }
            if (n < 0 && errno == EINTR) continue;
        }
        closed_ = true;  // EOF, or a poll or read error
        return false;
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
        if (!receive(deadline)) return std::nullopt;
    }
}

std::string TcpClient::recv_to_eof(std::chrono::milliseconds timeout) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (receive(deadline)) {
    }
    return std::exchange(buf_, {});
}

void TcpClient::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

}  // namespace agenp::srv
