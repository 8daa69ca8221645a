// srv::Server: one `agenp serve` process as an object (DESIGN.md section
// 10, "Server lifecycle"). The CLI and the tests both drive this class,
// so the path that is tested is the path that runs.
//
// The server owns everything around the AmsRouter: the decision audit
// log, the `--state-dir` state store (the model and the policy
// repository, never the decision cache), the rolling telemetry window
// and its ticker, the optional TCP listener (wire protocol,
// docs/PROTOCOL.md) and the optional metrics HTTP listener (/metrics,
// /healthz, /statz, /buildz, /profz), and the handler for '!' control
// lines shared by stdin and TCP. The periodic `--stats-every` window
// line and `--snapshot-every` snapshot run as every-N-ticks work on the
// ticker thread; a slow snapshot delays the next bucket, but buckets
// carry measured timestamps, so no rate skews.
//
// drain() is the one shutdown sequence for both front ends, in order:
// set the draining flag (/healthz turns 503), shut down TCP, drain the
// router, stop the periodic work, take the final snapshot, print the
// final SERVE_STATS_JSON line, stop the metrics listener, stop the
// profiler. It is idempotent and the destructor runs it.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/window.hpp"
#include "srv/audit.hpp"
#include "srv/router.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::store {
class StateStore;
}  // namespace agenp::store

namespace agenp::srv {

class HttpServer;
class TcpServer;
struct HttpRequest;
struct HttpResponse;
struct ServeSources;

struct ServerOptions {
    RouterOptions router;
    // Decision audit log; an empty path keeps none.
    AuditOptions audit;
    // TCP wire-protocol listener on 127.0.0.1; 0 binds an ephemeral port.
    std::optional<std::uint16_t> port;
    // Metrics HTTP listener on 127.0.0.1; 0 binds an ephemeral port.
    std::optional<std::uint16_t> metrics_port;
    // Restore the model and policies from this directory on start, and
    // snapshot them back to it. Empty = stateless.
    std::string state_dir;
    std::size_t stats_every_s = 0;     // SERVE_WINDOW_JSON period (0 = off)
    std::size_t snapshot_every_s = 0;  // periodic snapshot (0 = off; needs state_dir)
    std::size_t prof_hz = 0;           // SIGPROF sampling from start to drain (0 = off)
};

// The factory `agenp serve` runs: every replica parses its own AMS from
// `grammar_text` and reads `context` through its PIP. Replicas share no
// mutable state, so they stay version-aligned only through the router's
// broadcast update path.
AmsRouter::AmsFactory policy_factory(std::string grammar_text, asp::Program context);

class Server {
public:
    // Builds the router from `factory`, restores state, starts the
    // ticker, the listeners and the profiler, and prints the
    // AGENP_STATE_RESTORED / AGENP_LISTENING / AGENP_METRICS_LISTENING /
    // AGENP_PROFILING lines to `out`. Throws when a port cannot be bound
    // or the state dir or audit file cannot be opened.
    Server(const AmsRouter::AmsFactory& factory, ServerOptions options, std::ostream& out);
    ~Server();  // drain()

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    [[nodiscard]] AmsRouter& router() { return router_; }
    // Bound ports; 0 when that listener is off.
    [[nodiscard]] std::uint16_t port() const;
    [[nodiscard]] std::uint16_t metrics_port() const;

    // Stdin front end: answers each line of `in` in order — a token line
    // with the outcome name, a JSON line with the wire reply, a '!' line
    // with the control reply — until EOF.
    void serve_lines(std::istream& in);

    // The shutdown sequence in the file comment. Idempotent.
    void drain();

private:
    std::string control(std::string_view line);
    HttpResponse http(const HttpRequest& request) const;
    // The server's counting objects, for serve_metrics and /statz.
    ServeSources sources() const;
    std::string stats_json() const;
    std::string snapshot();
    void on_tick();
    void print(const std::string& line);

    ServerOptions options_;
    util::Mutex out_mu_;  // the ticker thread and the front ends share out_
    std::ostream* const out_ PT_GUARDED_BY(out_mu_);
    std::unique_ptr<AuditLog> audit_;
    std::unique_ptr<store::StateStore> state_;
    // One snapshot at a time: `!snapshot` can land while the periodic
    // tick writes, and both write the same temporary file.
    util::Mutex snapshot_mu_;
    AmsRouter router_;  // after audit_: its workers record through it
    obs::RollingWindow window_;
    std::atomic<bool> draining_{false};
    // tcp_ as the handlers see it: published once the listener exists,
    // read from the TCP and HTTP loop threads.
    std::atomic<const TcpServer*> tcp_view_{nullptr};
    std::uint64_t ticks_ = 0;  // ticker thread only
    // The threads last, so they stop before anything they use goes away.
    std::unique_ptr<obs::WindowTicker> ticker_;
    std::unique_ptr<TcpServer> tcp_;
    std::unique_ptr<HttpServer> http_;
};

}  // namespace agenp::srv
