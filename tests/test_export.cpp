// End-to-end tests for the observability export surface: the Prometheus
// text exposition served on --metrics-listen, the /healthz drain signal,
// and the NDJSON decision audit log (rotation, sampling, and trace_id
// cross-correlation with the flight recorder).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "asp/parser.hpp"
#include "mutate.hpp"
#include "obs/export/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/window.hpp"
#include "srv/audit.hpp"
#include "srv/export.hpp"
#include "srv/http.hpp"
#include "srv/loadgen.hpp"
#include "srv/server.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"
#include "util/strings.hpp"

namespace {

using agenp::srv::Server;
using agenp::srv::ServerOptions;

// The same tiny serving grammar the CLI tests use: "do patrol" permits
// under maxloa(3), "do strike" denies.
const char* kServeGrammar = R"asg(
request -> "do" task {
  :- requires(L)@2, maxloa(M), L > M.
}
task -> "patrol" { requires(2). }
task -> "strike" { requires(5). }
)asg";

agenp::srv::AmsRouter::AmsFactory serve_factory() {
    return agenp::srv::policy_factory(kServeGrammar, agenp::asp::parse_program("maxloa(3)."));
}

ServerOptions base_serve_options() {
    ServerOptions options;
    options.router.service.threads = 2;
    return options;
}

// ---------------------------------------------------------------------------
// Exposition grammar validation helpers.

bool valid_prometheus_name(const std::string& name) {
    if (name.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_' || name[0] == ':')) {
        return false;
    }
    for (char c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) return false;
    }
    return true;
}

struct Sample {
    std::string name;    // full series name including any suffix
    std::string labels;  // raw label block without braces ("" when bare)
    double value = 0;
};

// Minimal checker for the text exposition format 0.0.4: validates the
// HELP/TYPE/sample structure and returns the samples for inspection.
// On a violation, fills `error` and returns an empty vector.
std::vector<Sample> parse_exposition(const std::string& body, std::string* error) {
    std::vector<Sample> samples;
    std::map<std::string, std::string> types;  // family -> type
    std::istringstream in(body);
    std::string line;
    auto fail = [&](const std::string& why) {
        if (error != nullptr) *error = why + ": " + line;
        return std::vector<Sample>{};
    };
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
            std::istringstream meta(line);
            std::string hash;
            std::string kind;
            std::string family;
            meta >> hash >> kind >> family;
            if (!valid_prometheus_name(family)) return fail("bad family name in comment");
            if (kind == "TYPE") {
                std::string type;
                meta >> type;
                if (type != "counter" && type != "gauge" && type != "histogram") {
                    return fail("unknown TYPE");
                }
                if (types.count(family) != 0) return fail("duplicate TYPE");
                types[family] = type;
            }
            continue;
        }
        if (line[0] == '#') continue;
        Sample sample;
        auto brace = line.find('{');
        auto space = line.rfind(' ');
        if (space == std::string::npos) return fail("sample line without value");
        if (brace != std::string::npos && brace < space) {
            auto close = line.rfind('}');
            if (close == std::string::npos || close > space) return fail("unterminated label block");
            sample.name = line.substr(0, brace);
            sample.labels = line.substr(brace + 1, close - brace - 1);
        } else {
            sample.name = line.substr(0, space);
        }
        if (!valid_prometheus_name(sample.name)) return fail("bad sample name");
        try {
            sample.value = std::stod(line.substr(space + 1));
        } catch (const std::exception&) {
            return fail("unparseable sample value");
        }
        // Every sample must belong to a family announced by a TYPE line;
        // histogram/counter samples match after stripping their suffix.
        std::string base = sample.name;
        for (const char* suffix : {"_total", "_bucket", "_sum", "_count"}) {
            std::string s(suffix);
            if (base.size() > s.size() && base.compare(base.size() - s.size(), s.size(), s) == 0 &&
                types.count(base.substr(0, base.size() - s.size())) != 0) {
                base = base.substr(0, base.size() - s.size());
                break;
            }
        }
        if (types.count(base) == 0) return fail("sample without TYPE line");
        samples.push_back(std::move(sample));
    }
    if (error != nullptr) error->clear();
    return samples;
}

std::string label_value(const std::string& labels, const std::string& key) {
    auto pos = labels.find(key + "=\"");
    if (pos == std::string::npos) return {};
    auto start = pos + key.size() + 2;
    auto end = labels.find('"', start);
    return labels.substr(start, end - start);
}

std::optional<agenp::srv::HttpResult> get(std::uint16_t port, const std::string& path,
                                          std::chrono::milliseconds timeout =
                                              std::chrono::milliseconds{10000}) {
    return agenp::srv::http_get("127.0.0.1", port, path, timeout);
}

// Checks a /metrics body against the /statz document scraped right after
// it, once traffic has stopped: every serving family appears once and
// equals the /statz field read from the same object, every queue-depth
// sample reads 0, and the duplicate families are gone.
void expect_idle_metrics_match_statz(const std::string& metrics,
                                     const agenp::srv::JsonValue& statz) {
    std::string error;
    auto samples = parse_exposition(metrics, &error);
    ASSERT_TRUE(error.empty()) << error;
    std::map<std::string, std::vector<double>> by_name;
    for (const Sample& sample : samples) by_name[sample.name].push_back(sample.value);
    auto expect_one = [&](const std::string& name, const agenp::srv::JsonValue& object,
                          const char* field) {
        const agenp::srv::JsonValue* value = object.find(field);
        ASSERT_NE(value, nullptr) << field;
        double want = value->type == agenp::srv::JsonValue::Type::Bool
                          ? (value->boolean ? 1.0 : 0.0)
                          : value->number;
        auto it = by_name.find(name);
        ASSERT_NE(it, by_name.end()) << name;
        ASSERT_EQ(it->second.size(), 1U) << name;
        EXPECT_EQ(it->second[0], want) << name << " vs /statz " << field;
    };
    expect_one("agenp_srv_requests_total", statz, "submitted");
    expect_one("agenp_srv_decisions_total", statz, "completed");
    expect_one("agenp_srv_permitted_total", statz, "permitted");
    expect_one("agenp_srv_denied_total", statz, "denied");
    expect_one("agenp_srv_overloaded_total", statz, "overloaded");
    expect_one("agenp_srv_expired_total", statz, "expired");
    expect_one("agenp_srv_errors_total", statz, "errors");
    expect_one("agenp_srv_traces_captured_total", statz, "traces_captured");
    const agenp::srv::JsonValue& cache = *statz.find("cache");
    expect_one("agenp_srv_cache_hits_total", cache, "hits");
    expect_one("agenp_srv_cache_misses_total", cache, "misses");
    expect_one("agenp_srv_cache_entries", cache, "entries");
    const agenp::srv::JsonValue& memo = *statz.find("memo");
    for (const char* field : {"hits", "misses", "sat_hits", "evictions", "invalidations"}) {
        expect_one(std::string("agenp_memo_") + field + "_total", memo, field);
    }
    if (const agenp::srv::JsonValue* conn = statz.find("conn"); conn != nullptr) {
        for (const char* field : {"accepted", "closed", "lines_in", "bytes_in", "bytes_out",
                                  "bad_requests", "idle_disconnects", "oversized_disconnects"}) {
            expect_one(std::string("agenp_srv_conn_") + field + "_total", *conn, field);
        }
        expect_one("agenp_srv_conn_slow_disconnects_total", *conn, "slow_client_disconnects");
        expect_one("agenp_srv_conn_active", *conn, "active");
    }
    if (const agenp::srv::JsonValue* store = statz.find("store"); store != nullptr) {
        expect_one("agenp_store_snapshot_failures_total", *store, "snapshot_failures");
        for (const char* field : {"snapshot_bytes", "snapshot_policies", "restored"}) {
            expect_one(std::string("agenp_store_") + field, *store, field);
        }
        expect_one("agenp_store_snapshots_total", *store, "snapshots");
    }

    // Every queue-depth sample is read when scraped, so an idle server's
    // read 0; the one family has a sample per replica.
    EXPECT_EQ(statz.find("queue_depth")->as_uint(), 0U);
    for (const Sample& sample : samples) {
        if (sample.name.find("queue_depth") == std::string::npos) continue;
        EXPECT_EQ(sample.value, 0.0) << sample.name << "{" << sample.labels << "}";
    }
    EXPECT_EQ(by_name["agenp_srv_replica_queue_depth"].size(),
              statz.find("replicas")->array.size());

    // One family per number: the duplicates are gone, and so are the
    // families of the decision cache's persistence.
    for (const char* gone :
         {"agenp_srv_queue_depth", "agenp_srv_router_queue_depth", "agenp_srv_router_model_version",
          "agenp_store_snapshot_size_bytes", "agenp_store_snapshot_cache_entries",
          "agenp_store_restores_total", "agenp_store_snapshot_entries",
          "agenp_store_wal_appends_total", "agenp_store_wal_bytes",
          "agenp_store_restored_entries_total", "agenp_store_wal_replayed_entries_total",
          "agenp_store_wal_discarded_bytes_total"}) {
        EXPECT_EQ(by_name.count(gone), 0U) << gone;
    }
    EXPECT_EQ(metrics.find("agenp_asg_memo_"), std::string::npos);
}

// ---------------------------------------------------------------------------

TEST(ExpositionTest, RendersValidPrometheusText) {
    agenp::obs::Exposition exposition;
    exposition.add_counter("srv.requests", {}, 42, "Requests");
    exposition.add_gauge("srv.queue_depth", {{"replica", "0"}}, 3);
    agenp::obs::Histogram hist;
    hist.observe(1);
    hist.observe(100);
    hist.observe(100000);
    exposition.add_histogram("srv.latency_us", {}, hist.snapshot(), "Latency");
    std::string body = exposition.prometheus();
    std::string error;
    auto samples = parse_exposition(body, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_FALSE(samples.empty());
    EXPECT_NE(body.find("# HELP agenp_srv_requests_total Requests"), std::string::npos);
    EXPECT_NE(body.find("# TYPE agenp_srv_requests_total counter"), std::string::npos);
    EXPECT_NE(body.find("agenp_srv_requests_total 42"), std::string::npos);
    EXPECT_NE(body.find("agenp_srv_queue_depth{replica=\"0\"} 3"), std::string::npos);
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeAndEndAtInf) {
    agenp::obs::Exposition exposition;
    agenp::obs::Histogram hist;
    for (std::uint64_t v : {0ULL, 1ULL, 3ULL, 3ULL, 200ULL}) hist.observe(v);
    exposition.add_histogram("srv.latency_us", {}, hist.snapshot());
    std::string body = exposition.prometheus();
    std::string error;
    auto samples = parse_exposition(body, &error);
    ASSERT_TRUE(error.empty()) << error;

    double previous = 0;
    double inf_value = -1;
    double count_value = -1;
    double sum_value = -1;
    for (const auto& sample : samples) {
        if (sample.name == "agenp_srv_latency_us_bucket") {
            EXPECT_GE(sample.value, previous) << "buckets must be cumulative";
            previous = sample.value;
            if (label_value(sample.labels, "le") == "+Inf") inf_value = sample.value;
        } else if (sample.name == "agenp_srv_latency_us_count") {
            count_value = sample.value;
        } else if (sample.name == "agenp_srv_latency_us_sum") {
            sum_value = sample.value;
        }
    }
    EXPECT_EQ(inf_value, 5);
    EXPECT_EQ(count_value, 5);
    EXPECT_EQ(sum_value, 207);
}

TEST(ExpositionTest, RegistryLabelsSurviveRoundTrip) {
    auto& counter = agenp::obs::metrics().counter("test.export.labeled", {{"shard", "3"}});
    counter.add(9);
    agenp::obs::Exposition exposition;
    exposition.append_snapshot(agenp::obs::metrics().snapshot());
    std::string body = exposition.prometheus();
    EXPECT_NE(body.find("agenp_test_export_labeled_total{shard=\"3\"}"), std::string::npos);
}

// ---------------------------------------------------------------------------

TEST(HttpServerTest, ServesHandlerAndStripsQueryStrings) {
    agenp::srv::HttpServerOptions options;
    options.port = 0;
    agenp::srv::HttpServer server(options, [](const agenp::srv::HttpRequest& request) {
        agenp::srv::HttpResponse response;
        response.body = "path=" + request.path + "\n";
        return response;
    });
    ASSERT_NE(server.port(), 0);
    auto result = get(server.port(), "/metrics");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, 200);
    EXPECT_EQ(result->body, "path=/metrics\n");
    result = get(server.port(), "/metrics?ts=1");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->body, "path=/metrics\n");
    server.shutdown();
}

TEST(HttpServerTest, ExposesQueryStringAndParams) {
    agenp::srv::HttpServerOptions options;
    options.port = 0;
    agenp::srv::HttpServer server(options, [](const agenp::srv::HttpRequest& request) {
        agenp::srv::HttpResponse response;
        response.body = "seconds=" + agenp::srv::http_query_param(request.query, "seconds") +
                        " hz=" + agenp::srv::http_query_param(request.query, "hz") + "\n";
        return response;
    });
    auto result = get(server.port(), "/profz?seconds=2&hz=99");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->body, "seconds=2 hz=99\n");
    result = get(server.port(), "/profz");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->body, "seconds= hz=\n");
    server.shutdown();

    // The free-function parser handles valueless and missing keys.
    EXPECT_EQ(agenp::srv::http_query_param("a=1&b=2", "b"), "2");
    EXPECT_EQ(agenp::srv::http_query_param("a=1&b", "b"), "");
    EXPECT_EQ(agenp::srv::http_query_param("", "b"), "");
    EXPECT_EQ(agenp::srv::http_query_param("bb=3", "b"), "");
}

// --- the HTTP framing on the connection loop ---------------------------------

// One response read off a raw connection.
struct RawResponse {
    int status = 0;
    bool keep_alive = false;
    std::string body;
};

// A client connection that sends raw bytes and reads HTTP responses,
// framed by Content-Length, and can tell a close from a timeout.
class RawHttp {
public:
    explicit RawHttp(std::uint16_t port) : client_("127.0.0.1", port) {}

    void send(std::string_view bytes) { client_.send(bytes); }
    [[nodiscard]] int fd() const { return client_.fd(); }

    // The next response; nullopt once the server has closed the
    // connection, or after 10 s.
    std::optional<RawResponse> next() {
        auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (true) {
            std::size_t end = buf_.find("\r\n\r\n");
            if (end != std::string::npos) {
                std::string head = buf_.substr(0, end);
                std::size_t at = head.find("Content-Length: ");
                std::size_t length =
                    at == std::string::npos ? 0 : std::stoul(head.substr(at + 16));
                if (buf_.size() >= end + 4 + length) {
                    RawResponse response;
                    response.status = std::stoi(head.substr(9, 3));  // "HTTP/1.1 NNN"
                    response.keep_alive = head.find("Connection: keep-alive") != std::string::npos;
                    response.body = buf_.substr(end + 4, length);
                    buf_.erase(0, end + 4 + length);
                    return response;
                }
            }
            if (read_some(deadline) != Read::Data) return std::nullopt;
        }
    }

    // Whether the server closes the connection, sending nothing more,
    // within 10 s.
    bool server_closes() {
        auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        return buf_.empty() && read_some(deadline) == Read::Closed;
    }

private:
    enum class Read { Data, Closed, Timeout };

    Read read_some(std::chrono::steady_clock::time_point deadline) {
        auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        pollfd pfd{client_.fd(), POLLIN, 0};
        if (remaining.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(remaining.count())) <= 0) {
            return Read::Timeout;
        }
        char chunk[4096];
        ssize_t n = ::recv(client_.fd(), chunk, sizeof chunk, 0);
        if (n <= 0) return Read::Closed;  // EOF, or a reset
        buf_.append(chunk, static_cast<std::size_t>(n));
        return Read::Data;
    }

    agenp::srv::TcpClient client_;
    std::string buf_;
};

// A server whose handler echoes the request path.
std::unique_ptr<agenp::srv::HttpServer> echo_server(agenp::srv::HttpServerOptions options = {}) {
    return std::make_unique<agenp::srv::HttpServer>(
        options, [](const agenp::srv::HttpRequest& request) {
            agenp::srv::HttpResponse response;
            response.body = "path=" + request.path + "\n";
            return response;
        });
}

TEST(HttpServerTest, KeepAliveServesTwoRequestsOnOneConnection) {
    auto server = echo_server();
    RawHttp conn(server->port());
    conn.send("GET /a HTTP/1.1\r\nHost: t\r\n\r\n");
    auto first = conn.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->status, 200);
    EXPECT_TRUE(first->keep_alive);
    EXPECT_EQ(first->body, "path=/a\n");
    conn.send("GET /b HTTP/1.1\r\nHost: t\r\n\r\n");
    auto second = conn.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->body, "path=/b\n");
    EXPECT_TRUE(second->keep_alive);
}

TEST(HttpServerTest, ConnectionCloseAndHttp10CloseAfterTheResponse) {
    auto server = echo_server();
    for (const char* request : {"GET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
                                "GET /c HTTP/1.0\r\n\r\n"}) {
        RawHttp conn(server->port());
        conn.send(request);
        auto response = conn.next();
        ASSERT_TRUE(response.has_value()) << request;
        EXPECT_EQ(response->status, 200) << request;
        EXPECT_FALSE(response->keep_alive) << request;
        EXPECT_EQ(response->body, "path=/c\n") << request;
        EXPECT_TRUE(conn.server_closes()) << request;
    }
}

TEST(HttpServerTest, UnreadInputAtCloseStillEndsInEofNotReset) {
    // The Connection: close request ends the reading; 16 KiB more follows
    // in the same write and is never read. A close over unread input makes
    // the kernel send a reset, which over a real link can discard the
    // response, so the server must end the connection with a FIN after it.
    auto server = echo_server();
    RawHttp conn(server->port());
    std::string more;
    while (more.size() < 16 * 1024) more += "GET /more HTTP/1.1\r\nHost: t\r\n\r\n";
    conn.send("GET /c HTTP/1.1\r\nConnection: close\r\n\r\n" + more);
    auto response = conn.next();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->body, "path=/c\n");
    pollfd pfd{conn.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    char byte;
    ssize_t n = ::recv(conn.fd(), &byte, 1, 0);
    EXPECT_EQ(n, 0) << (n < 0 ? std::strerror(errno) : "more bytes");  // EOF, not a reset
}

TEST(HttpServerTest, PostGets405AndTheConnectionStaysUp) {
    auto server = echo_server();
    RawHttp conn(server->port());
    conn.send("POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    auto refused = conn.next();
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->status, 405);
    EXPECT_EQ(refused->body, "only GET is supported\n");
    EXPECT_TRUE(refused->keep_alive);
    conn.send("GET /after HTTP/1.1\r\n\r\n");
    auto served = conn.next();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->body, "path=/after\n");
}

TEST(HttpServerTest, HeadOverMaxHeaderBytesGets400AndClose) {
    agenp::srv::HttpServerOptions options;
    options.max_header_bytes = 256;
    auto server = echo_server(options);
    RawHttp conn(server->port());
    conn.send("GET /x HTTP/1.1\r\nX-Pad: " + std::string(1024, 'p') + "\r\n\r\n");
    auto response = conn.next();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_EQ(response->body, "header too large\n");
    EXPECT_FALSE(response->keep_alive);
    EXPECT_TRUE(conn.server_closes());
}

TEST(HttpServerTest, PipelinedRequestsAreAnsweredInOrder) {
    auto server = echo_server();
    RawHttp conn(server->port());
    conn.send("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\nHost: t\n\n");
    auto first = conn.next();
    auto second = conn.next();
    ASSERT_TRUE(first.has_value() && second.has_value());
    EXPECT_EQ(first->body, "path=/1\n");
    EXPECT_EQ(second->body, "path=/2\n");
}

// A handler that answers `mib` MiB, about or over what loopback socket
// buffers take for a client that reads nothing, counting its calls.
std::unique_ptr<agenp::srv::HttpServer> big_response_server(std::atomic<int>& calls,
                                                            std::size_t mib) {
    return std::make_unique<agenp::srv::HttpServer>(
        agenp::srv::HttpServerOptions{}, [&calls, mib](const agenp::srv::HttpRequest&) {
            calls.fetch_add(1);
            agenp::srv::HttpResponse response;
            response.body = std::string(mib << 20, 'x');
            return response;
        });
}

TEST(HttpServerTest, AClientThatReadsNothingGetsOneResponseAtATime) {
    std::atomic<int> calls{0};
    auto server = big_response_server(calls, 4);
    RawHttp conn(server->port());
    std::string requests;
    for (int i = 0; i < 64; ++i) requests += "GET /big HTTP/1.1\r\nHost: t\r\n\r\n";
    conn.send(requests);
    // Wait for the first call, then until the count has held still for
    // 300 ms.
    for (int tick = 0; tick < 1000 && calls.load() == 0; ++tick) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    int seen = -1;
    for (int round = 0; round < 50 && calls.load() != seen; ++round) {
        seen = calls.load();
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    // The next request is parsed only once a response has flushed, and
    // the kernel's socket buffers take a few MiB at most: a server that
    // kept reading would run the handler 64 times and buffer 256 MiB.
    EXPECT_GE(calls.load(), 1);
    EXPECT_LE(calls.load(), 4);
    server->shutdown();
}

TEST(HttpServerTest, NothingIsReadAfterTheCloseDecision) {
    std::atomic<int> calls{0};
    auto server = big_response_server(calls, 16);
    RawHttp conn(server->port());
    conn.send("GET /big HTTP/1.1\r\nConnection: close\r\n\r\n");
    // The response cannot flush to a client that reads nothing (the
    // kernel takes a few MiB of it), so the connection stays open;
    // everything sent after the close decision must stay unread, which
    // stalls the sender once socket buffers fill.
    const std::size_t kJunk = std::size_t{64} << 20;
    const std::string chunk(std::size_t{64} << 10, 'j');
    std::size_t sent = 0;
    while (sent < kJunk) {
        ssize_t n = ::send(conn.fd(), chunk.data(), chunk.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd{conn.fd(), POLLOUT, 0};
            if (::poll(&pfd, 1, 300) > 0) continue;
        }
        break;  // stalled for 300 ms, or the connection is gone
    }
    EXPECT_LT(sent, kJunk);
    EXPECT_EQ(calls.load(), 1);
    server->shutdown();
}

// Valid request heads the framing fuzz starts from.
const char* const kHeadCorpus[] = {
    "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:9464\r\nAccept: */*\r\n\r\n",
    "GET /statz?window=60 HTTP/1.1\r\nHost: t\r\n\r\n",
    "GET /buildz HTTP/1.1\nConnection: keep-alive\n\n",
    "GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
    "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "GET /profz?seconds=1&hz=99 HTTP/1.1\r\nUser-Agent: curl/8\r\n\r\n",
};

// Fragments worth splicing into a head: line ends, empty lines, header
// syntax, versions and methods, and bytes that are not UTF-8.
const char* const kHeadFragments[] = {
    "\r\n", "\n", "\r", "\r\n\r\n", "\n\n", " ", "\t", ":", "?", "&", "=", "/",
    "Connection: close\r\n", "Connection: keep-alive\r\n", "HTTP/1.0", "HTTP/1.1", "GET ",
    "POST ", "\xff", "\xc3\xa9",
};

const agenp::fuzz::Alphabet kHeadAlphabet{kHeadFragments, '<', '>'};

// Splits a stream the way the HTTP framing does: a head ends at its first
// empty line (CRLF or bare LF). Returns each complete head's size, ending
// empty line included, and leaves the unterminated rest in *rest.
std::vector<std::size_t> head_sizes(std::string_view stream, std::size_t* rest) {
    std::vector<std::size_t> sizes;
    std::size_t start = 0;
    for (std::size_t nl = stream.find('\n'); nl != std::string_view::npos;
         nl = stream.find('\n', nl + 1)) {
        std::size_t end = 0;
        if (nl + 1 < stream.size() && stream[nl + 1] == '\n') end = nl + 2;
        if (nl + 2 < stream.size() && stream[nl + 1] == '\r' && stream[nl + 2] == '\n') end = nl + 3;
        if (end == 0) continue;
        sizes.push_back(end - start);
        start = end;
        nl = end - 1;
    }
    *rest = stream.size() - start;
    return sizes;
}

TEST(HttpServerTest, MutatedHeadStreamsKeepTheFramingContract) {
    agenp::srv::HttpServerOptions options;
    options.max_header_bytes = 512;
    auto server = echo_server(options);
    std::vector<std::string> corpus(std::begin(kHeadCorpus), std::end(kHeadCorpus));
    std::size_t answered = 0;
    std::size_t closed_early = 0;
    // 120 fixed seeds, one connection each: the same streams on every run.
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        std::mt19937_64 rng(seed);
        std::string stream;
        for (int i = 0; i < 8; ++i) {
            const std::string& base = corpus[rng() % corpus.size()];
            stream += rng() % 3 == 0 ? agenp::fuzz::mutate(base, corpus, kHeadAlphabet, rng) : base;
        }
        if (seed % 5 == 0) stream += "GET /" + std::string(600, 'a');  // an oversized last head
        std::size_t rest = 0;
        std::vector<std::size_t> heads = head_sizes(stream, &rest);

        RawHttp conn(server->port());
        try {
            for (std::size_t at = 0; at < stream.size();) {  // random split points
                std::size_t piece = 1 + rng() % 200;
                conn.send(std::string_view(stream).substr(at, piece));
                at += piece;
            }
            ::shutdown(conn.fd(), SHUT_WR);
        } catch (const std::runtime_error&) {
            // The server decided to close and reset the connection over
            // bytes it will never read; the responses before are intact.
        }

        // One response per complete head, in order; only the last may
        // close the connection. A close before the last head is the
        // documented error for that head, or the head asked for it.
        std::vector<RawResponse> responses;
        while (auto response = conn.next()) responses.push_back(*response);
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const RawResponse& r = responses[i];
            EXPECT_TRUE(r.status == 200 || r.status == 400 || r.status == 405)
                << "seed " << seed << " response " << i << ": " << r.status;
            if (r.status == 400) {
                EXPECT_FALSE(r.keep_alive) << "seed " << seed;
            }
            if (r.body == "header too large\n") {
                EXPECT_GT(i < heads.size() ? heads[i] : rest, options.max_header_bytes)
                    << "seed " << seed;
            }
            if (i + 1 < responses.size()) {
                EXPECT_TRUE(r.keep_alive) << "seed " << seed;
            }
        }
        if (responses.empty() || responses.back().keep_alive) {
            EXPECT_EQ(responses.size(), heads.size()) << "seed " << seed;
            EXPECT_LE(rest, options.max_header_bytes) << "seed " << seed;
        } else {
            EXPECT_LE(responses.size(), heads.size() + 1) << "seed " << seed;
            if (responses.size() < heads.size()) ++closed_early;
        }
        answered += responses.size();
        if (::testing::Test::HasFailure()) FAIL() << "seed " << seed;
    }
    // Both sides of the contract are exercised.
    EXPECT_GT(answered, 200u);
    EXPECT_GT(closed_early, 10u);

    // A fresh connection is served afterwards.
    auto result = get(server->port(), "/fresh");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->body, "path=/fresh\n");
}

// ---------------------------------------------------------------------------

TEST(AuditLogTest, WritesOneValidJsonLinePerRecord) {
    std::string path = std::string(::testing::TempDir()) + "/agenp_audit_basic.ndjson";
    std::remove(path.c_str());
    std::uint64_t hash = agenp::util::fnv1a_hash("do patrol");
    {
        agenp::srv::AuditOptions options;
        options.path = path;
        agenp::srv::AuditLog audit(options);
        for (int i = 0; i < 3; ++i) {
            agenp::srv::AuditEntry entry;
            entry.trace_id = 100 + static_cast<std::uint64_t>(i);
            entry.client_id = 7;
            entry.request_hash = hash;
            entry.outcome = "Permit";
            entry.strategy = "repository";
            entry.cache_hit = (i > 0);
            entry.model_version = 1;
            entry.replica = 0;
            entry.latency_us = 42;
            audit.record(std::move(entry));
        }
        EXPECT_EQ(audit.stats().records, 3U);
    }
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        auto parsed = agenp::srv::parse_json(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        ASSERT_TRUE(parsed->is_object());
        EXPECT_EQ(parsed->find("outcome")->string, "Permit");
        EXPECT_EQ(parsed->find("strategy")->string, "repository");
        EXPECT_EQ(parsed->find("request_hash")->string, std::to_string(hash));
        EXPECT_GT(parsed->find("ts_ms")->number, 0);
        EXPECT_EQ(parsed->find("latency_us")->as_uint(), 42U);
    }
    EXPECT_EQ(lines, 3U);
    std::remove(path.c_str());
}

TEST(AuditLogTest, RotatesWhenSizeCapIsCrossed) {
    std::string path = std::string(::testing::TempDir()) + "/agenp_audit_rotate.ndjson";
    std::string rotated = path + ".1";
    std::remove(path.c_str());
    std::remove(rotated.c_str());
    agenp::srv::AuditOptions options;
    options.path = path;
    options.max_bytes = 512;  // a handful of lines per file
    agenp::srv::AuditLog audit(options);
    for (int i = 0; i < 50; ++i) {
        agenp::srv::AuditEntry entry;
        entry.trace_id = static_cast<std::uint64_t>(i);
        entry.outcome = "Permit";
        entry.strategy = "membership";
        audit.record(std::move(entry));
    }
    EXPECT_GE(audit.stats().rotations, 1U);
    EXPECT_EQ(audit.stats().records, 50U);
    std::ifstream current(path);
    std::ifstream previous(rotated);
    EXPECT_TRUE(current.good());
    EXPECT_TRUE(previous.good());
    // The live file holds the newest records and every line still parses.
    std::size_t lines = 0;
    std::string line;
    std::uint64_t last_trace = 0;
    while (std::getline(current, line)) {
        ++lines;
        auto parsed = agenp::srv::parse_json(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        last_trace = parsed->find("trace_id")->as_uint();
    }
    EXPECT_GT(lines, 0U);
    EXPECT_EQ(last_trace, 49U);
    std::remove(path.c_str());
    std::remove(rotated.c_str());
}

TEST(AuditLogTest, SamplingKeepsEveryNth) {
    std::string path = std::string(::testing::TempDir()) + "/agenp_audit_sample.ndjson";
    std::remove(path.c_str());
    agenp::srv::AuditOptions options;
    options.path = path;
    options.sample_every = 4;
    agenp::srv::AuditLog audit(options);
    for (int i = 0; i < 20; ++i) {
        agenp::srv::AuditEntry entry;
        entry.outcome = "Deny";
        audit.record(std::move(entry));
    }
    EXPECT_EQ(audit.stats().records, 5U);
    EXPECT_EQ(audit.stats().sampled_out, 15U);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// /statz costs: the phase_ns histograms read through the rolling window.

TEST(ServeStats, CostsComeFromThePhaseHistograms) {
    namespace obs = agenp::obs;
    using agenp::srv::PhaseCost;
    using agenp::srv::phase_costs;
    constexpr std::uint64_t kSolveCalls = 40;
    constexpr std::uint64_t kSolveNs = 2'500'700;
    constexpr std::uint64_t kProbeCalls = 1000;
    constexpr std::uint64_t kProbeNs = 400;  // well under a microsecond

    obs::RollingWindow window([] { return obs::metrics().snapshot(); });
    // Before the first bucket the window is empty: every row reads 0.
    for (const PhaseCost& cost : phase_costs(window.window_at(std::chrono::seconds(60), 0))) {
        EXPECT_EQ(cost.calls, 0U) << cost.check;
        EXPECT_EQ(cost.mean_us, 0.0) << cost.check;
        EXPECT_EQ(cost.hz, 0.0) << cost.check;
        EXPECT_EQ(cost.us_per_s, 0.0) << cost.check;
    }

    auto sum_ns = [](obs::PhaseId id) { return obs::phase_histogram(id).snapshot().sum; };
    const std::uint64_t solve_before = sum_ns(obs::PhaseId::AspSolve);
    const std::uint64_t probe_before = sum_ns(obs::PhaseId::SrvCacheProbe);
    window.tick_at(1'000);  // bucket 0 at t = 1 s
    for (std::uint64_t i = 0; i < kSolveCalls; ++i) {
        obs::record_phase(obs::PhaseId::AspSolve, 0, kSolveNs, nullptr, nullptr);
    }
    for (std::uint64_t i = 0; i < kProbeCalls; ++i) {
        obs::record_phase(obs::PhaseId::SrvCacheProbe, 0, kProbeNs, nullptr, nullptr);
    }
    const double solve_us =
        static_cast<double>(sum_ns(obs::PhaseId::AspSolve) - solve_before) / 1000.0;
    const double probe_us =
        static_cast<double>(sum_ns(obs::PhaseId::SrvCacheProbe) - probe_before) / 1000.0;
    ASSERT_EQ(solve_us, static_cast<double>(kSolveCalls * kSolveNs) / 1000.0);
    ASSERT_EQ(probe_us, static_cast<double>(kProbeCalls * kProbeNs) / 1000.0);

    // Read at t = 11 s: a 10 s window over the 60 s span.
    obs::WindowDelta delta = window.window_at(std::chrono::seconds(60), 11'000);
    ASSERT_EQ(delta.seconds, 10.0);
    std::vector<PhaseCost> costs = phase_costs(delta);

    // One row per phase, ranked by wall-time share, ties by name.
    ASSERT_EQ(costs.size(), obs::kPhaseCount);
    std::set<std::string> names;
    for (const PhaseCost& cost : costs) names.insert(cost.check);
    EXPECT_EQ(names, std::set<std::string>(obs::kPhaseNames.begin(), obs::kPhaseNames.end()));
    for (std::size_t i = 1; i < costs.size(); ++i) {
        const PhaseCost& a = costs[i - 1];
        const PhaseCost& b = costs[i];
        EXPECT_TRUE(a.us_per_s > b.us_per_s || (a.us_per_s == b.us_per_s && a.check < b.check))
            << a.check << " before " << b.check;
    }
    ASSERT_EQ(costs[0].check, "asp.solve");
    ASSERT_EQ(costs[1].check, "srv.cache_probe");

    // Each driven row is its histogram's window delta, untruncated.
    const PhaseCost& solve = costs[0];
    EXPECT_EQ(solve.calls, kSolveCalls);
    EXPECT_DOUBLE_EQ(solve.mean_us * static_cast<double>(solve.calls), solve_us);
    EXPECT_DOUBLE_EQ(solve.us_per_s * delta.seconds, solve_us);
    EXPECT_DOUBLE_EQ(solve.hz, static_cast<double>(kSolveCalls) / delta.seconds);
    const PhaseCost& probe = costs[1];
    EXPECT_EQ(probe.calls, kProbeCalls);
    EXPECT_DOUBLE_EQ(probe.mean_us, 0.4);  // not truncated to 0
    EXPECT_DOUBLE_EQ(probe.mean_us * static_cast<double>(probe.calls), probe_us);
    EXPECT_DOUBLE_EQ(probe.us_per_s * delta.seconds, probe_us);
    for (std::size_t i = 2; i < costs.size(); ++i) {
        EXPECT_EQ(costs[i].calls, 0U) << costs[i].check;
        EXPECT_EQ(costs[i].us_per_s, 0.0) << costs[i].check;
    }
}

// ---------------------------------------------------------------------------
// Live serve-process tests: the srv::Server `agenp serve` runs.

TEST(ServeMetricsTest, LiveScrapeServesValidExpositionHealthzAndStatz) {
    ServerOptions options = base_serve_options();
    options.metrics_port = 0;
    std::ostringstream out;
    Server server(serve_factory(), options, out);
    const std::uint16_t metrics_port = server.metrics_port();
    ASSERT_NE(metrics_port, 0);

    // Answer 20 requests on the stdin front end, then scrape while the
    // server is alive: the srv.* phase histograms only exist once traffic
    // was processed.
    std::string input;
    for (int i = 0; i < 20; ++i) input += "do patrol\n";
    input += "!prof start 5abc\n";  // not wholly a number: the usage line
    std::istringstream in(input);
    server.serve_lines(in);

    auto healthz = get(metrics_port, "/healthz");
    ASSERT_TRUE(healthz.has_value());
    EXPECT_EQ(healthz->status, 200);
    EXPECT_NE(healthz->body.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(healthz->content_type.find("application/json"), std::string::npos);

    auto metrics = get(metrics_port, "/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->status, 200);
    EXPECT_NE(metrics->content_type.find("version=0.0.4"), std::string::npos);
    std::string error;
    auto samples = parse_exposition(metrics->body, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(samples.empty());
    EXPECT_NE(metrics->body.find("agenp_srv_up 1"), std::string::npos);
    EXPECT_NE(metrics->body.find("agenp_srv_draining 0"), std::string::npos);
    EXPECT_NE(metrics->body.find("# TYPE agenp_phase_ns histogram"), std::string::npos);
    EXPECT_NE(metrics->body.find("agenp_phase_ns_count{phase=\"srv.request\"}"),
              std::string::npos);
    EXPECT_NE(metrics->body.find("agenp_phase_ns_count{phase=\"srv.cache_probe\"}"),
              std::string::npos);
    // One histogram per phase: no second latency histogram, no cost table.
    EXPECT_EQ(metrics->body.find("agenp_srv_latency_us"), std::string::npos);
    EXPECT_EQ(metrics->body.find("_cost_"), std::string::npos);

    // Windowed families ride on the same exposition.
    EXPECT_NE(metrics->body.find("agenp_window_requests_per_s"), std::string::npos);
    EXPECT_NE(metrics->body.find("agenp_window_latency_p95_us"), std::string::npos);
    EXPECT_NE(metrics->body.find("span=\"60s\""), std::string::npos);

    // Grounding-memo gauges/counters (asg/memo.hpp) export alongside the
    // decision-cache families.
    EXPECT_NE(metrics->body.find("agenp_memo_hits"), std::string::npos);
    EXPECT_NE(metrics->body.find("agenp_memo_sat_hits"), std::string::npos);
    EXPECT_NE(metrics->body.find("agenp_memo_entries"), std::string::npos);

    auto statz = get(metrics_port, "/statz");
    ASSERT_TRUE(statz.has_value());
    EXPECT_EQ(statz->status, 200);
    auto stats = agenp::srv::parse_json(statz->body);
    ASSERT_TRUE(stats.has_value()) << statz->body;
    EXPECT_NE(stats->find("cache"), nullptr);
    EXPECT_NE(stats->find("memo"), nullptr);
    EXPECT_NE(stats->find("locks"), nullptr);
    EXPECT_NE(stats->find("window"), nullptr);
    const agenp::srv::JsonValue* costs = stats->find("costs");
    ASSERT_NE(costs, nullptr);
    // The 60s window starts at the server's first bucket, before the 20
    // requests, so the srv.request row counts exactly them.
    ASSERT_EQ(costs->array.size(), agenp::obs::kPhaseCount);
    bool request_row = false;
    for (const agenp::srv::JsonValue& row : costs->array) {
        for (const char* key : {"check", "calls", "mean_us", "hz", "us_per_s"}) {
            ASSERT_NE(row.find(key), nullptr) << key;
        }
        if (row.find("check")->string != "srv.request") continue;
        request_row = true;
        EXPECT_EQ(row.find("calls")->as_uint(), 20U);
        EXPECT_GT(row.find("mean_us")->number, 0.0);
    }
    EXPECT_TRUE(request_row);
    EXPECT_NE(statz->body.find("\"10s\":{"), std::string::npos);
    EXPECT_NE(statz->body.find("\"p95_us\":"), std::string::npos);
    EXPECT_NE(statz->body.find("\"hit_rate\":"), std::string::npos);
    expect_idle_metrics_match_statz(metrics->body, *stats);
    // The window reads the counts /statz reads, and its 10s span still
    // covers all 20 requests (one miss, then hits).
    EXPECT_EQ(stats->find("cache")->find("hit_rate")->number, 0.95);
    EXPECT_EQ(stats->find("window")->find("10s")->find("hit_rate")->number, 0.95);

    auto buildz = get(metrics_port, "/buildz");
    ASSERT_TRUE(buildz.has_value());
    EXPECT_EQ(buildz->status, 200);
    EXPECT_NE(buildz->body.find("\"git_sha\":\""), std::string::npos);
    EXPECT_NE(buildz->body.find("\"compiler\":\""), std::string::npos);
    EXPECT_NE(buildz->body.find("\"build_type\":\""), std::string::npos);
    EXPECT_NE(buildz->body.find("\"protocol_version\":1"), std::string::npos);
    EXPECT_NE(buildz->body.find("\"replicas\":1"), std::string::npos);

    // Short one-shot profile over the live server; stacks may be empty on
    // an idle process, but the endpoint itself must answer in both forms.
    auto profz = get(metrics_port, "/profz?seconds=0.2&hz=200&format=json");
    ASSERT_TRUE(profz.has_value());
    EXPECT_EQ(profz->status, 200);
    EXPECT_NE(profz->body.find("\"hz\":200"), std::string::npos);
    EXPECT_NE(profz->body.find("\"stacks\":["), std::string::npos);
    // Out of range, not a finite number, or not wholly a number: 400
    // before any sampling starts.
    for (const char* query : {"seconds=900", "seconds=nan", "seconds=inf", "hz=5abc"}) {
        auto bad = get(metrics_port, std::string("/profz?") + query);
        ASSERT_TRUE(bad.has_value()) << query;
        EXPECT_EQ(bad->status, 400) << query;
    }

    auto missing = get(metrics_port, "/nope");
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, 404);
    EXPECT_NE(missing->body.find("/profz"), std::string::npos);

    server.drain();
    EXPECT_NE(out.str().find("Permit"), std::string::npos);
    EXPECT_NE(out.str().find("usage: !prof start [hz 1..1000]"), std::string::npos) << out.str();
}

// Every request a distinct miss that holds the one worker for
// `miss_delay` in the PEP effector, so a pipelined burst queues.
agenp::srv::AmsRouter::AmsFactory slow_miss_factory(std::size_t distinct,
                                                    std::chrono::milliseconds miss_delay) {
    return [distinct, miss_delay] {
        auto ams = std::make_unique<agenp::framework::AutonomousManagedSystem>(
            agenp::srv::make_demo_ams(distinct, /*context_weight=*/0));
        ams->pep().set_effector([miss_delay](const agenp::cfg::TokenString&, bool) {
            std::this_thread::sleep_for(miss_delay);
        });
        return ams;
    };
}

TEST(ServeMetricsTest, ScrapeAfterABurstWithExpiriesMatchesStatz) {
    // Two ways /metrics can drift from /statz after a burst: a queue
    // depth that stays at the burst's peak once the queue drains, and a
    // miss count that leaves out the lookups of requests that expired.
    constexpr int kRequests = 40;
    const std::string dir = std::string(::testing::TempDir()) + "/agenp_burst_scrape";
    const std::string audit_path = dir + ".ndjson";
    std::remove(audit_path.c_str());
    ServerOptions options;
    options.router.service.threads = 1;
    options.port = 0;
    options.metrics_port = 0;
    options.audit.path = audit_path;
    options.state_dir = dir;
    std::ostringstream out;
    Server server(slow_miss_factory(kRequests, std::chrono::milliseconds(20)), options, out);
    const std::uint16_t metrics_port = server.metrics_port();

    agenp::srv::TcpClient client("127.0.0.1", server.port());
    for (int i = 0; i < kRequests; ++i) {
        std::string line = "{\"id\":" + std::to_string(i) + ",\"decide\":\"do task_" +
                           std::to_string(i) + "\"";
        if (i % 2 == 1) line += ",\"timeout_ms\":1";
        client.send_line(line + "}");
    }
    for (int i = 0; i < kRequests; ++i) ASSERT_TRUE(client.recv_line().has_value()) << i;
    server.router().drain();

    auto metrics = get(metrics_port, "/metrics");
    auto statz = get(metrics_port, "/statz");
    ASSERT_TRUE(metrics.has_value() && statz.has_value());
    auto stats = agenp::srv::parse_json(statz->body);
    ASSERT_TRUE(stats.has_value()) << statz->body;
    EXPECT_EQ(stats->find("submitted")->as_uint(), static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(stats->find("expired")->as_uint(), 0U);
    EXPECT_EQ(stats->find("cache")->find("misses")->as_uint(),
              static_cast<std::uint64_t>(kRequests));
    expect_idle_metrics_match_statz(metrics->body, *stats);
    EXPECT_NE(metrics->body.find("agenp_srv_audit_records_total " + std::to_string(kRequests)),
              std::string::npos);

    server.drain();
    std::remove(audit_path.c_str());
    std::remove((dir + "/snapshot.agenp").c_str());
    ::rmdir(dir.c_str());
}

TEST(ServeMetricsTest, AuditLinesCorrelateWithFlightRecorderTraceIds) {
    std::string audit_path = std::string(::testing::TempDir()) + "/agenp_audit_serve.ndjson";
    std::remove(audit_path.c_str());
    std::string input;
    for (int i = 0; i < 10; ++i) {
        input += "{\"decide\":\"do patrol\",\"id\":" + std::to_string(i + 1) + "}\n";
    }
    input += "!flight\n";
    ServerOptions options = base_serve_options();
    options.audit.path = audit_path;
    std::istringstream in(input);
    std::ostringstream out;
    {
        Server server(serve_factory(), options, out);
        server.serve_lines(in);
    }

    // Flight-recorder trace ids from the !flight control line (the flight
    // record `id` field carries the request's trace id).
    std::string text = out.str();
    auto flight_pos = text.find("FLIGHT_JSON ");
    ASSERT_NE(flight_pos, std::string::npos) << text;
    auto line_end = text.find('\n', flight_pos);
    std::string flight_line = text.substr(flight_pos + 12, line_end - flight_pos - 12);
    auto flight = agenp::srv::parse_json(flight_line);
    ASSERT_TRUE(flight.has_value()) << flight_line;
    std::vector<std::uint64_t> flight_traces;
    for (const auto& record : flight->array) {
        flight_traces.push_back(record.find("id")->as_uint());
    }
    ASSERT_EQ(flight_traces.size(), 10U);

    // Audit lines: every submitted request appears (sampling off), and the
    // flight recorder's trace ids all resolve to an audit line.
    std::ifstream audit_in(audit_path);
    std::vector<std::uint64_t> audit_traces;
    std::string line;
    while (std::getline(audit_in, line)) {
        auto parsed = agenp::srv::parse_json(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        audit_traces.push_back(parsed->find("trace_id")->as_uint());
        EXPECT_EQ(parsed->find("outcome")->string, "Permit");
        ASSERT_NE(parsed->find("strategy"), nullptr);
        const std::string& strategy = parsed->find("strategy")->string;
        bool cache_hit = parsed->find("cache_hit")->boolean;
        EXPECT_EQ(strategy, cache_hit ? "cache" : "membership") << line;
        ASSERT_NE(parsed->find("model_version"), nullptr);
        ASSERT_NE(parsed->find("latency_us"), nullptr);
        ASSERT_NE(parsed->find("replica"), nullptr);
    }
    EXPECT_EQ(audit_traces.size(), 10U);
    for (std::uint64_t trace : flight_traces) {
        EXPECT_NE(std::find(audit_traces.begin(), audit_traces.end(), trace), audit_traces.end())
            << "flight trace_id " << trace << " missing from audit log";
    }
    std::remove(audit_path.c_str());
}

// One attempt at observing the drain-mode 503: start a listen-mode
// server, queue a solve-bound backlog, start a tight /healthz poller,
// then trigger the graceful drain. Returns true when a poll saw the 503
// draining body. The drain window is wide (one worker, no cache, a
// backlog of full solves, replies unread by the client until the end)
// but scheduling can still collapse it, so the caller retries.
bool drain_attempt() {
    ServerOptions options = base_serve_options();
    options.port = 0;
    options.metrics_port = 0;
    options.router.service.threads = 1;
    options.router.service.use_cache = false;
    std::ostringstream out;
    Server server(serve_factory(), options, out);
    const std::uint16_t port = server.port();
    const std::uint16_t metrics_port = server.metrics_port();

    auto healthy = get(metrics_port, "/healthz");
    EXPECT_TRUE(healthy.has_value() && healthy->status == 200);

    // Queue a backlog and wait until the server has actually submitted it
    // (shutdown discards unread input, so the lines must be past the
    // event loop before the drain starts).
    agenp::srv::TcpClient client("127.0.0.1", port);
    constexpr int kBacklog = 400;
    for (int i = 0; i < kBacklog; ++i) {
        client.send_line("{\"decide\":\"do patrol\",\"id\":" + std::to_string(i + 1) + "}");
    }
    for (int i = 0; i < 2000; ++i) {
        auto statz = get(metrics_port, "/statz");
        if (!statz.has_value()) break;
        auto stats = agenp::srv::parse_json(statz->body);
        if (stats.has_value() &&
            stats->find("submitted")->as_uint() >= static_cast<std::uint64_t>(kBacklog)) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Poll continuously from a dedicated thread so a request is already
    // in flight the moment the draining flag flips.
    std::atomic<bool> saw_draining{false};
    std::atomic<bool> poller_stop{false};
    std::thread poller([&] {
        while (!poller_stop.load(std::memory_order_acquire)) {
            auto response = get(metrics_port, "/healthz", std::chrono::milliseconds(250));
            if (!response.has_value()) break;  // listener torn down
            if (response->status == 503 &&
                response->body.find("\"status\":\"draining\"") != std::string::npos) {
                saw_draining.store(true, std::memory_order_release);
                break;
            }
        }
    });
    std::thread drainer([&] { server.drain(); });
    // Let the drain finish: read the replies so the server can flush.
    while (client.recv_line(std::chrono::milliseconds(2000)).has_value()) {
    }
    drainer.join();
    poller_stop.store(true, std::memory_order_release);
    poller.join();
    return saw_draining.load();
}

TEST(ServeMetricsTest, ListenModeHealthzFlipsTo503WhileDraining) {
    // The 503 window is transient by design; each attempt stacks the odds
    // (solve-bound backlog, poll already in flight) but a loaded machine
    // can still blow through it, so allow a few fresh-server retries.
    bool saw_draining = false;
    for (int attempt = 0; attempt < 5 && !saw_draining; ++attempt) {
        saw_draining = drain_attempt();
    }
    EXPECT_TRUE(saw_draining);
}

// An output sink the test can read while the server's ticker thread
// writes to it.
class SharedSink : public std::streambuf {
public:
    std::string text() {
        std::lock_guard lock(mu_);
        return text_;
    }

protected:
    int overflow(int c) override {
        std::lock_guard lock(mu_);
        if (c != traits_type::eof()) text_.push_back(static_cast<char>(c));
        return c;
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        std::lock_guard lock(mu_);
        text_.append(s, static_cast<std::size_t>(n));
        return n;
    }

private:
    std::mutex mu_;
    std::string text_;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    for (auto pos = text.find(needle); pos != std::string::npos; pos = text.find(needle, pos + 1)) {
        ++count;
    }
    return count;
}

TEST(ServeMetricsTest, PeriodicWindowLinesAndSnapshotsRunOnTheTicker) {
    const std::string state_dir = std::string(::testing::TempDir()) + "/agenp_periodic_state";
    const std::string snapshot_path = state_dir + "/snapshot.agenp";
    std::remove(snapshot_path.c_str());
    ServerOptions options = base_serve_options();
    options.state_dir = state_dir;
    options.stats_every_s = 1;
    options.snapshot_every_s = 1;
    SharedSink sink;
    std::ostream out(&sink);
    Server server(serve_factory(), options, out);
    std::istringstream in("do patrol\n");
    server.serve_lines(in);

    // Ticks come once a second; allow generous slack for sanitizer builds.
    bool snapshot_written = false;
    for (int i = 0; i < 600; ++i) {
        snapshot_written = std::ifstream(snapshot_path).good();
        if (snapshot_written && count_of(sink.text(), "SERVE_WINDOW_JSON {") >= 2) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(snapshot_written) << "no periodic snapshot in " << state_dir;
    EXPECT_GE(count_of(sink.text(), "SERVE_WINDOW_JSON {"), 2U) << sink.text();
    EXPECT_EQ(sink.text().find("snapshot failed"), std::string::npos) << sink.text();

    server.drain();
    std::string text = sink.text();
    EXPECT_NE(text.find("SNAPSHOT_JSON {\"policies\":0,"), std::string::npos) << text;
    EXPECT_NE(text.find("SERVE_STATS_JSON {"), std::string::npos) << text;
    std::remove(snapshot_path.c_str());
    ::rmdir(state_dir.c_str());
}

}  // namespace
