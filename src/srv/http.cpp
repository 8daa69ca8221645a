#include "srv/http.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "srv/loop.hpp"
#include "srv/transport.hpp"

namespace agenp::srv {

namespace {

const char* status_text(int status) {
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 503: return "Service Unavailable";
        default: return "Status";
    }
}

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

std::string_view trim_sp(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
        s.remove_suffix(1);
    }
    return s;
}

// Length of the first head in `in`: everything before the first empty
// line, ended by CRLF or a bare LF. npos when no complete head is there;
// `*next` is where the bytes after the head's empty line start.
std::size_t head_length(std::string_view in, std::size_t* next) {
    for (std::size_t nl = in.find('\n'); nl != std::string_view::npos; nl = in.find('\n', nl + 1)) {
        if (nl + 1 < in.size() && in[nl + 1] == '\n') {
            *next = nl + 2;
            return nl;
        }
        if (nl + 2 < in.size() && in[nl + 1] == '\r' && in[nl + 2] == '\n') {
            *next = nl + 3;
            return nl;
        }
    }
    return std::string_view::npos;
}

// Splits a head into its start line and the header lines after it.
std::pair<std::string_view, std::string_view> split_start_line(std::string_view head) {
    std::size_t nl = head.find('\n');
    if (nl == std::string_view::npos) return {trim_sp(head), {}};
    return {trim_sp(head.substr(0, nl)), head.substr(nl + 1)};
}

// Trimmed value of the last `key` header among `headers`; empty when absent.
std::string_view header_value(std::string_view headers, std::string_view key) {
    std::string_view value;
    while (!headers.empty()) {
        std::size_t nl = headers.find('\n');
        std::string_view line = headers.substr(0, nl);
        headers = nl == std::string_view::npos ? std::string_view{} : headers.substr(nl + 1);
        std::size_t colon = line.find(':');
        if (colon != std::string_view::npos && iequals(trim_sp(line.substr(0, colon)), key)) {
            value = trim_sp(line.substr(colon + 1));
        }
    }
    return value;
}

std::string render_response(const HttpResponse& response, bool keep_alive) {
    std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      status_text(response.status) + "\r\n";
    out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
    out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
    out += "\r\n";
    out += response.body;
    return out;
}

TransportOptions loop_options(const HttpServerOptions& options) {
    TransportOptions out;
    out.bind_address = options.bind_address;
    out.port = options.port;
    out.max_connections = options.max_connections;
    // The framing's message bound: here a request head.
    out.max_line_bytes = options.max_header_bytes == 0 ? 1024 : options.max_header_bytes;
    // One response at a time: the write buffer holds at most the response
    // being sent, whatever its size.
    out.max_write_buffer_bytes = std::numeric_limits<std::size_t>::max();
    out.idle_timeout = options.idle_timeout;
    // shutdown() closes at once: a scraper that stopped reading must not
    // hold up the process.
    out.drain_timeout = std::chrono::milliseconds{0};
    return out;
}

}  // namespace

// The HTTP framing on the shared connection loop: answers the head at the
// front of the read buffer, then pauses the connection until the response
// has flushed.
struct HttpServer::Impl final : ConnectionLoop {
    HttpHandler handler;

    Impl(const HttpServerOptions& options, HttpHandler handler_in)
        : ConnectionLoop(loop_options(options), /*reply_end=*/"", /*over_capacity_reply=*/""),
          handler(std::move(handler_in)) {}

    void respond(const ConnectionPtr& conn, const HttpResponse& response, bool keep_alive) {
        queue_output(conn, render_response(response, keep_alive));
        if (keep_alive) {
            conn->paused = true;
        } else {
            close_after_flush(conn);
        }
    }

    void on_input(const ConnectionPtr& conn) override {
        const std::size_t max_header_bytes = options().max_line_bytes;
        std::size_t next = 0;
        std::size_t length = head_length(conn->read_buf, &next);
        // The bound counts the head's ending empty line, so a prefix that
        // already exceeds it can only belong to a head that does too.
        if (length == std::string::npos ? conn->read_buf.size() > max_header_bytes
                                        : next > max_header_bytes) {
            respond(conn, {400, "text/plain; charset=utf-8", "header too large\n"}, false);
            return;
        }
        if (length == std::string::npos) return;
        std::string head = conn->read_buf.substr(0, length);
        conn->read_buf.erase(0, next);

        // Request line: METHOD SP TARGET SP HTTP/1.x
        auto [request_line, headers] = split_start_line(head);
        std::size_t sp1 = request_line.find(' ');
        std::size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                        : request_line.find(' ', sp1 + 1);
        if (sp2 == std::string_view::npos) {
            respond(conn, {400, "text/plain; charset=utf-8", "malformed request line\n"}, false);
            return;
        }
        HttpRequest request;
        request.method = std::string(request_line.substr(0, sp1));
        std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
        std::string_view version = trim_sp(request_line.substr(sp2 + 1));
        if (std::size_t q = target.find('?'); q != std::string_view::npos) {
            request.query = std::string(target.substr(q + 1));
            target = target.substr(0, q);
        }
        request.path = std::string(target);

        // HTTP/1.1 defaults to keep-alive; 1.0 and `Connection: close`
        // close after the response.
        bool keep_alive = version == "HTTP/1.1";
        std::string_view connection = header_value(headers, "connection");
        if (iequals(connection, "close")) keep_alive = false;
        if (iequals(connection, "keep-alive")) keep_alive = true;

        if (request.method != "GET") {
            respond(conn, {405, "text/plain; charset=utf-8", "only GET is supported\n"},
                    keep_alive);
            return;
        }
        respond(conn, handler(request), keep_alive);
    }
};

HttpServer::HttpServer(HttpServerOptions options, HttpHandler handler)
    : impl_(std::make_unique<Impl>(options, std::move(handler))) {
    impl_->start();
    port_ = impl_->port();
}

HttpServer::~HttpServer() { shutdown(); }

void HttpServer::shutdown() {
    if (impl_ != nullptr) impl_->shutdown();
}

std::optional<HttpResult> http_get(const std::string& host, std::uint16_t port,
                                   const std::string& path, std::chrono::milliseconds timeout) {
    std::string raw;
    try {
        TcpClient client(host, port);
        client.send("GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n");
        // The server closes after the response (Connection: close).
        raw = client.recv_to_eof(timeout);
    } catch (const std::runtime_error&) {
        return std::nullopt;
    }

    std::size_t body_start = 0;
    std::size_t length = head_length(raw, &body_start);
    if (length == std::string::npos) return std::nullopt;
    auto [status_line, headers] = split_start_line(std::string_view(raw).substr(0, length));

    HttpResult result;
    // Status line: HTTP/1.1 NNN Reason
    std::size_t sp = status_line.find(' ');
    if (sp == std::string_view::npos || sp + 4 > status_line.size()) return std::nullopt;
    result.status = std::atoi(std::string(status_line.substr(sp + 1, 3)).c_str());
    if (result.status < 100 || result.status > 599) return std::nullopt;
    result.content_type = std::string(header_value(headers, "content-type"));
    result.body = raw.substr(body_start);
    return result;
}

std::string http_query_param(std::string_view query, std::string_view key) {
    while (!query.empty()) {
        std::size_t amp = query.find('&');
        std::string_view pair = amp == std::string_view::npos ? query : query.substr(0, amp);
        query = amp == std::string_view::npos ? std::string_view{} : query.substr(amp + 1);
        std::size_t eq = pair.find('=');
        std::string_view k = eq == std::string_view::npos ? pair : pair.substr(0, eq);
        if (k == key) {
            return eq == std::string_view::npos ? std::string{}
                                                : std::string(pair.substr(eq + 1));
        }
    }
    return {};
}

}  // namespace agenp::srv
