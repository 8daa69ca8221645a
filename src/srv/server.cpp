#include "srv/server.hpp"

#include <fstream>
#include <future>
#include <istream>
#include <ostream>
#include <vector>

#include "obs/build.hpp"
#include "obs/prof.hpp"
#include "srv/export.hpp"
#include "srv/http.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"
#include "store/store.hpp"
#include "util/strings.hpp"

namespace agenp::srv {
namespace {

// The router options with the audit log wired in: every replica's
// service records through it.
RouterOptions with_audit(RouterOptions options, AuditLog* audit) {
    options.service.audit = audit;
    return options;
}

// Two-phase runtime profiling control. Control lines run on the transport
// event loop, so `!prof` never blocks to collect: `start` arms the
// sampler, traffic runs, `stop` disarms it and returns the folded report
// as one PROF_JSON line. Blocking collection lives on `/profz`, where it
// only stalls the single-threaded metrics HTTP loop.
std::string handle_prof_line(const std::vector<std::string>& words) {
    auto& profiler = obs::CpuProfiler::instance();
    const std::string& verb = words.size() > 1 ? words[1] : "status";
    if (verb == "start") {
        obs::ProfilerOptions options;
        if (words.size() > 2) options.hz = util::parse_number<int>(words[2]).value_or(0);
        if (options.hz < 1 || options.hz > 1000) return "usage: !prof start [hz 1..1000]";
        if (!profiler.start(options)) {
            return "profiler already running at " + std::to_string(profiler.hz()) + " Hz";
        }
        return "profiler started at " + std::to_string(profiler.hz()) + " Hz";
    }
    if (verb == "stop") {
        if (!profiler.running()) return "profiler not running";
        return "PROF_JSON " + profiler.stop().to_json();
    }
    if (verb == "status") {
        return std::string("PROF_JSON {\"running\":") +
               (profiler.running() ? "true" : "false") +
               ",\"hz\":" + std::to_string(profiler.hz()) + "}";
    }
    return "unknown !prof verb: " + verb + " (try start [hz], stop, status)";
}

// GET /profz: a blocking one-shot profile. It stalls only the
// single-threaded metrics loop; serving traffic is unaffected (beyond the
// sampling itself).
HttpResponse profz(const HttpRequest& request) {
    HttpResponse response;
    std::optional<double> seconds = 2.0;
    std::optional<int> hz = 99;
    if (std::string v = http_query_param(request.query, "seconds"); !v.empty()) {
        seconds = util::parse_number<double>(v);
    }
    if (std::string v = http_query_param(request.query, "hz"); !v.empty()) {
        hz = util::parse_number<int>(v);
    }
    if (!seconds || !hz || *seconds <= 0.0 || *seconds > 60.0 || *hz < 1 || *hz > 1000) {
        response.status = 400;
        response.body = "profz expects seconds in (0,60] and hz in [1,1000]\n";
        return response;
    }
    obs::ProfileReport report = obs::CpuProfiler::instance().collect(*seconds, *hz);
    if (http_query_param(request.query, "format") == "json") {
        response.content_type = "application/json";
        response.body = report.to_json() + "\n";
    } else {
        response.body = report.folded();
    }
    return response;
}

}  // namespace

AmsRouter::AmsFactory policy_factory(std::string grammar_text, asp::Program context) {
    return [grammar_text = std::move(grammar_text), context = std::move(context)] {
        auto ams = std::make_unique<framework::AutonomousManagedSystem>(
            "serve", asg::AnswerSetGrammar::parse(grammar_text), ilp::HypothesisSpace{});
        ams->pip().add_source("file", [context] { return context; });
        return ams;
    };
}

Server::Server(const AmsRouter::AmsFactory& factory, ServerOptions options, std::ostream& out)
    : options_(std::move(options)),
      out_(&out),
      audit_(options_.audit.path.empty() ? nullptr : std::make_unique<AuditLog>(options_.audit)),
      state_(options_.state_dir.empty()
                 ? nullptr
                 : std::make_unique<store::StateStore>(store::StoreOptions{options_.state_dir})),
      router_(factory, with_audit(options_.router, audit_.get())),
      window_([this] { return serve_metrics(sources()); }) {
    // Load the last snapshot's model and policies into the fresh router
    // before any traffic; the caches start empty.
    if (state_ != nullptr) {
        store::RestoreResult restored = state_->restore();
        StateRestoreReport report = router_.restore_state(restored.data);
        print("AGENP_STATE_RESTORED policies=" + std::to_string(report.policies_restored) +
              " model_version=" + std::to_string(report.model_version));
        if (!restored.warning.empty()) print("state restore warning: " + restored.warning);
        if (!report.warning.empty()) print("state restore warning: " + report.warning);
    }

    // One bucket per second over serve_metrics, shared by /statz, the
    // exposition and the periodic window line; each tick also runs the
    // periodic work.
    ticker_ = std::make_unique<obs::WindowTicker>(window_, [this] { on_tick(); });

    // TCP before metrics, so a script that waits for the metrics line can
    // read both ports.
    if (options_.port.has_value()) {
        TransportOptions transport;
        transport.port = *options_.port;
        tcp_ = std::make_unique<TcpServer>(router_, transport,
                                           [this](std::string_view line) { return control(line); });
        tcp_view_.store(tcp_.get(), std::memory_order_release);
        print("AGENP_LISTENING port=" + std::to_string(tcp_->port()));
    }

    // The metrics listener stays up through the drain so scrapers see it.
    if (options_.metrics_port.has_value()) {
        HttpServerOptions http_options;
        http_options.port = *options_.metrics_port;
        http_ = std::make_unique<HttpServer>(
            http_options, [this](const HttpRequest& request) { return http(request); });
        print("AGENP_METRICS_LISTENING port=" + std::to_string(http_->port()));
    }

    // Continuous profiling: sample until drain; /profz and `!prof stop`
    // share the same session.
    if (options_.prof_hz > 0) {
        obs::ProfilerOptions prof_options;
        prof_options.hz = static_cast<int>(options_.prof_hz);
        if (obs::CpuProfiler::instance().start(prof_options)) {
            print("AGENP_PROFILING hz=" + std::to_string(obs::CpuProfiler::instance().hz()));
        }
    }
}

Server::~Server() { drain(); }

std::uint16_t Server::port() const { return tcp_ != nullptr ? tcp_->port() : 0; }

std::uint16_t Server::metrics_port() const { return http_ != nullptr ? http_->port() : 0; }

void Server::serve_lines(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
        // Lockstep: one shared dispatch path with the TCP transport, and
        // each deferred reply is awaited before the next line is read.
        std::promise<std::string> reply_promise;
        std::future<std::string> reply_future = reply_promise.get_future();
        DispatchResult result = dispatch_line(
            router_, util::trim(line), LineMode::Text, 0,
            [this](std::string_view control_line) { return control(control_line); },
            [&reply_promise](std::string reply) { reply_promise.set_value(std::move(reply)); });
        std::string reply = result.deferred ? reply_future.get() : result.immediate;
        if (!reply.empty()) print(reply);
    }
}

void Server::drain() {
    if (draining_.exchange(true, std::memory_order_acq_rel)) return;
    if (tcp_ != nullptr) tcp_->shutdown();
    router_.drain();
    ticker_.reset();
    // A clean restart starts exactly where this process stopped.
    if (state_ != nullptr) print(snapshot());
    print("SERVE_STATS_JSON " + stats_json());
    if (http_ != nullptr) http_->shutdown();
    // Idempotent; also ends a session started with `!prof start`.
    (void)obs::CpuProfiler::instance().stop();
}

// Handles one '!'-prefixed control line (stdin or TCP); returns the
// reply, possibly multi-line, without a trailing newline.
std::string Server::control(std::string_view line) {
    auto words = util::split_ws(line);
    const std::string& command = words[0];
    if (command == "!stats") return "SERVE_STATS_JSON " + stats_json();
    if (command == "!prof") return handle_prof_line(words);
    if (command == "!snapshot") {
        if (state_ == nullptr) return "snapshot unavailable: serve started without --state-dir";
        return snapshot();
    }
    if (command == "!flight") {
        std::string json = "[";
        for (const auto& record : router_.flight_snapshot()) {
            if (json.size() > 1) json += ",";
            json += flight_record_json(record);
        }
        return "FLIGHT_JSON " + json + "]";
    }
    if (command == "!trace") {
        if (words.size() < 2) return "usage: !trace <file>";
        std::size_t captured = router_.captured_traces().size();
        std::ofstream file(words[1]);
        if (!file) return "cannot write trace file: " + words[1];
        file << router_.captured_traces_json();
        return "trace written to " + words[1] + " (" + std::to_string(captured) +
               " captured request" + (captured == 1 ? "" : "s") + ")";
    }
    return "unknown control line: " + command +
           " (try !stats, !flight, !trace <file>, !snapshot, !prof)";
}

// The metrics listener's routes; runs on its single loop thread.
HttpResponse Server::http(const HttpRequest& request) const {
    HttpResponse response;
    if (request.path == "/metrics") {
        response.content_type = "text/plain; version=0.0.4; charset=utf-8";
        response.body =
            serve_exposition(sources(), draining_.load(std::memory_order_acquire), &window_)
                .prometheus();
    } else if (request.path == "/healthz") {
        bool draining = draining_.load(std::memory_order_acquire);
        response.status = draining ? 503 : 200;
        response.content_type = "application/json";
        response.body = healthz_json(router_, draining) + "\n";
    } else if (request.path == "/statz") {
        response.content_type = "application/json";
        response.body = stats_json() + "\n";
    } else if (request.path == "/buildz") {
        response.content_type = "application/json";
        response.body = obs::build_info_json({{"protocol_version", std::to_string(kProtocolVersion)},
                                              {"replicas", std::to_string(router_.replicas())}}) +
                        "\n";
    } else if (request.path == "/profz") {
        return profz(request);
    } else {
        response.status = 404;
        response.body = "not found (try /metrics, /healthz, /statz, /buildz, /profz)\n";
    }
    return response;
}

ServeSources Server::sources() const {
    return {router_, tcp_view_.load(std::memory_order_acquire), audit_.get(), state_.get()};
}

std::string Server::stats_json() const { return serve_stats_json(sources(), &window_); }

// Writes a full snapshot and reports it in the one-line format shared by
// `!snapshot`, the periodic snapshot and the on-drain snapshot.
std::string Server::snapshot() {
    util::MutexLock lock(snapshot_mu_);
    store::SnapshotData data = router_.export_state();
    std::size_t policies = data.policies.size();
    std::string error;
    if (!state_->save_snapshot(std::move(data), &error)) return "snapshot failed: " + error;
    return "SNAPSHOT_JSON {\"policies\":" + std::to_string(policies) +
           ",\"bytes\":" + std::to_string(state_->status().snapshot_bytes) +
           ",\"model_version\":" + std::to_string(router_.model_version()) + "}";
}

// Runs on the ticker thread once per one-second bucket.
void Server::on_tick() {
    ++ticks_;
    if (options_.stats_every_s > 0 && ticks_ % options_.stats_every_s == 0) {
        // What happened over the last period — req/s, hit rate, latency
        // quantiles from the rolling window — not lifetime counters, which
        // stop moving visibly on a long-running server (`!stats` and
        // /statz keep those).
        std::string json = windowed_serve_stats_json(
            windowed_serve_stats(window_, std::chrono::seconds(options_.stats_every_s)));
        json.back() = ',';  // reopen to append the instantaneous depth
        json += "\"queue_depth\":" +
                std::to_string(router_.snapshot_stats().total.queue_depth) + "}";
        print("SERVE_WINDOW_JSON " + json);
    }
    if (state_ != nullptr && options_.snapshot_every_s > 0 &&
        ticks_ % options_.snapshot_every_s == 0) {
        // Failures are logged and retried next period; serving never stops
        // for them.
        std::string result = snapshot();
        if (!util::starts_with(result, "SNAPSHOT_JSON")) print(result);
    }
}

void Server::print(const std::string& line) {
    util::MutexLock lock(out_mu_);
    *out_ << line << "\n" << std::flush;
}

}  // namespace agenp::srv
