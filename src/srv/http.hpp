// Minimal HTTP/1.1 server for the telemetry surface (`/metrics`,
// `/healthz`, `/statz`, `/buildz`, `/profz`): the HTTP framing on the
// shared connection loop (srv/loop.hpp). Each server is its own loop
// instance and thread, independent of the NDJSON listener, so metrics stay
// reachable in stdin serve mode and while the NDJSON listener drains.
//
// Scope is exactly what a scraper needs and nothing more: GET requests,
// keep-alive with Content-Length framing, `Connection: close` honored,
// bounded header size, bounded concurrent connections. A connection is
// served one request at a time: nothing more is read from it while a
// response is unsent, so its write buffer never holds more than one
// response. Anything else (other methods, malformed request lines,
// oversized heads) earns a one-shot error response; a malformed or
// oversized head also closes the connection, and nothing more is read
// from it. The handler runs on the loop thread; it must be fast
// (rendering an exposition snapshot is).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace agenp::srv {

struct HttpRequest {
    std::string method;  // uppercase, e.g. "GET"
    std::string path;    // as sent, query string stripped
    std::string query;   // raw query string, without the leading '?'
};

struct HttpResponse {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
    std::size_t max_connections = 32;
    // Longest accepted request head, its ending empty line included.
    std::size_t max_header_bytes = 8 * 1024;
    // Close keep-alive connections idle longer than this.
    std::chrono::milliseconds idle_timeout{30000};
};

class HttpServer {
public:
    // Binds and listens immediately (throws std::runtime_error when the
    // address is unavailable), then serves on one background loop thread.
    HttpServer(HttpServerOptions options, HttpHandler handler);
    ~HttpServer();  // implies shutdown()

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }

    // Stops accepting, closes every connection, joins the loop thread.
    // Idempotent.
    void shutdown();

private:
    struct Impl;
    std::uint16_t port_ = 0;
    std::unique_ptr<Impl> impl_;
};

// Blocking one-shot GET for tests and tooling: connects, sends the
// request with `Connection: close`, reads to EOF. Returns nullopt on
// connect failure, timeout, or an unparsable response.
struct HttpResult {
    int status = 0;
    std::string content_type;
    std::string body;
};
std::optional<HttpResult> http_get(const std::string& host, std::uint16_t port,
                                   const std::string& path,
                                   std::chrono::milliseconds timeout = std::chrono::milliseconds{
                                       10000});

// Value of `key` in an `a=1&b=2` query string; empty string when absent
// or valueless. No percent-decoding — the telemetry endpoints only take
// numeric parameters.
std::string http_query_param(std::string_view query, std::string_view key);

}  // namespace agenp::srv
