#include "cli/commands.hpp"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "agenp/ams.hpp"
#include "analysis/lint.hpp"
#include "asg/generate.hpp"
#include "asp/grounder.hpp"
#include "asp/parser.hpp"
#include "asp/solver.hpp"
#include "obs/build.hpp"
#include "obs/costtable.hpp"
#include "obs/export/http.hpp"
#include "obs/lockprof.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/reqtrace.hpp"
#include "obs/window.hpp"
#include "srv/audit.hpp"
#include "srv/export.hpp"
#include "srv/flight.hpp"
#include "srv/loadgen.hpp"
#include "srv/router.hpp"
#include "srv/service.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"
#include "store/store.hpp"
#include "util/strings.hpp"
#include "xacml/evaluator.hpp"
#include "xacml/text_format.hpp"

namespace agenp::cli {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw CliError("cannot read file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

namespace {

asp::Comparison::Op parse_op(const std::string& word) {
    if (word == "lt") return asp::Comparison::Op::Lt;
    if (word == "le") return asp::Comparison::Op::Le;
    if (word == "gt") return asp::Comparison::Op::Gt;
    if (word == "ge") return asp::Comparison::Op::Ge;
    if (word == "eq") return asp::Comparison::Op::Eq;
    if (word == "ne") return asp::Comparison::Op::Ne;
    throw CliError("unknown comparison op '" + word + "' (use lt le gt ge eq ne)");
}

// `body pred var(t) const(p) term @2 neg` -> ModeAtom.
ilp::ModeAtom parse_mode_atom(const std::vector<std::string>& words, std::size_t from) {
    if (from >= words.size()) throw CliError("mode atom needs a predicate");
    ilp::ModeAtom atom;
    atom.predicate = asp::Symbol(words[from]);
    for (std::size_t i = from + 1; i < words.size(); ++i) {
        const std::string& w = words[i];
        if (w == "neg") {
            atom.allow_negated = true;
        } else if (!w.empty() && w[0] == '@') {
            atom.annotation = std::stoi(w.substr(1));
        } else if (util::starts_with(w, "var(") && w.back() == ')') {
            atom.args.push_back(ilp::ArgSpec::var(w.substr(4, w.size() - 5)));
        } else if (util::starts_with(w, "const(") && w.back() == ')') {
            atom.args.push_back(ilp::ArgSpec::constant(w.substr(6, w.size() - 7)));
        } else {
            atom.args.push_back(ilp::ArgSpec::fixed_term(asp::parse_term(w)));
        }
    }
    return atom;
}

ilp::HypothesisSpace parse_bias(const std::vector<std::string>& lines,
                                const std::vector<int>& targets) {
    ilp::ModeBias bias;
    for (const auto& line : lines) {
        auto words = util::split_ws(line);
        if (words.empty()) continue;
        const std::string& kind = words[0];
        if (kind == "body") {
            bias.body.push_back(parse_mode_atom(words, 1));
        } else if (kind == "head") {
            bias.head.push_back(parse_mode_atom(words, 1));
        } else if (kind == "no_constraints") {
            bias.allow_constraints = false;
        } else if (kind == "compare") {
            if (words.size() < 3) throw CliError("compare needs: compare <type> <op>... [varvar] [varconst]");
            ilp::ComparisonMode cm;
            cm.type = asp::Symbol(words[1]);
            cm.var_vs_const = false;
            cm.var_vs_var = false;
            for (std::size_t i = 2; i < words.size(); ++i) {
                if (words[i] == "varvar") {
                    cm.var_vs_var = true;
                } else if (words[i] == "varconst") {
                    cm.var_vs_const = true;
                } else {
                    cm.ops.push_back(parse_op(words[i]));
                }
            }
            if (!cm.var_vs_var && !cm.var_vs_const) cm.var_vs_const = true;
            bias.comparisons.push_back(std::move(cm));
        } else if (kind == "const") {
            if (words.size() < 3) throw CliError("const needs: const <pool> <term>...");
            for (std::size_t i = 2; i < words.size(); ++i) {
                bias.constants[asp::Symbol(words[1])].push_back(asp::parse_term(words[i]));
            }
        } else if (kind == "max_body") {
            bias.max_body_atoms = std::stoi(words.at(1));
        } else if (kind == "min_body") {
            bias.min_body_atoms = std::stoi(words.at(1));
        } else if (kind == "max_vars") {
            bias.max_vars = std::stoi(words.at(1));
        } else if (kind == "max_comparisons") {
            bias.max_comparisons = std::stoi(words.at(1));
        } else {
            throw CliError("unknown bias directive '" + kind + "'");
        }
    }
    return ilp::generate_space(bias, targets);
}

ilp::Example parse_example(const std::string& line) {
    auto bar = line.find('|');
    std::string tokens = bar == std::string::npos ? line : line.substr(0, bar);
    std::string context = bar == std::string::npos ? "" : line.substr(bar + 1);
    return {cfg::tokenize(tokens), asp::parse_program(context)};
}

}  // namespace

ilp::LearningTask parse_task_file(std::string_view text) {
    std::map<std::string, std::vector<std::string>> sections;
    std::string current;
    for (const auto& raw : util::split(text, '\n')) {
        auto line = util::trim(raw);
        if (line.empty()) continue;
        if (line[0] == '#') {
            current = std::string(util::trim(line.substr(1)));
            continue;
        }
        if (current.empty()) throw CliError("content before the first #section header");
        sections[current].emplace_back(line);
    }
    if (!sections.contains("grammar")) throw CliError("missing #grammar section");
    if (!sections.contains("bias")) throw CliError("missing #bias section");

    ilp::LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(util::join(sections["grammar"], "\n"));
    // Targets: optional `#targets` section of production indices; default
    // is the start production 0.
    std::vector<int> targets = {0};
    if (sections.contains("targets")) {
        targets.clear();
        for (const auto& line : sections["targets"]) {
            for (const auto& w : util::split_ws(line)) targets.push_back(std::stoi(w));
        }
    }
    task.space = parse_bias(sections["bias"], targets);
    for (const auto& line : sections["positive"]) task.positive.push_back(parse_example(line));
    for (const auto& line : sections["negative"]) task.negative.push_back(parse_example(line));
    return task;
}

int cmd_solve(const std::string& program_path, std::size_t max_models, std::ostream& out) {
    auto program = asp::parse_program(read_file(program_path));
    auto gp = asp::ground(program);
    auto result = asp::solve(gp, {.max_models = max_models});
    if (result.models.empty()) {
        out << "UNSATISFIABLE\n";
        return 1;
    }
    for (std::size_t i = 0; i < result.models.size(); ++i) {
        out << "answer set " << (i + 1) << ": ";
        bool first = true;
        for (const auto& atom : asp::model_to_strings(gp, result.models[i])) {
            if (!first) out << " ";
            out << atom;
            first = false;
        }
        out << "\n";
    }
    return 0;
}

int cmd_membership(const std::string& grammar_path, const std::string& sentence,
                   const std::string& context_path, std::ostream& out) {
    auto grammar = asg::AnswerSetGrammar::parse(read_file(grammar_path));
    asp::Program context;
    if (!context_path.empty()) context = asp::parse_program(read_file(context_path));
    bool accepted = asg::in_language(grammar, cfg::tokenize(sentence), context);
    out << (accepted ? "ACCEPTED" : "REJECTED") << "\n";
    return accepted ? 0 : 1;
}

int cmd_generate(const std::string& grammar_path, const std::string& context_path,
                 std::size_t max_strings, std::ostream& out) {
    auto grammar = asg::AnswerSetGrammar::parse(read_file(grammar_path));
    asp::Program context;
    if (!context_path.empty()) context = asp::parse_program(read_file(context_path));
    asg::LanguageOptions options;
    options.enumeration.max_strings = max_strings;
    auto result = asg::language(grammar, context, options);
    for (const auto& s : result.strings) out << cfg::detokenize(s) << "\n";
    if (result.truncated) out << "(truncated)\n";
    return 0;
}

int cmd_learn(const std::string& task_path, const std::string& out_path, std::ostream& out) {
    auto task = parse_task_file(read_file(task_path));
    auto result = ilp::learn(task);
    if (!result.found) {
        out << "NO HYPOTHESIS: " << result.failure_reason << "\n";
        return 1;
    }
    out << "hypothesis (cost " << result.cost << "):\n" << result.hypothesis_to_string();
    if (!out_path.empty()) {
        auto learned = task.initial.with_rules(result.hypothesis);
        std::ofstream file(out_path);
        if (!file) throw CliError("cannot write: " + out_path);
        file << learned.to_string();
        out << "learned grammar written to " << out_path << "\n";
    }
    return 0;
}

int cmd_lint(const std::string& path, const std::string& context_path, bool json, bool strict,
             std::ostream& out) {
    analysis::LintOptions options;
    if (!context_path.empty()) {
        auto context = asp::parse_program(read_file(context_path));
        for (const auto& rule : context.rules()) {
            if (rule.head) options.external_predicates.push_back(rule.head->predicate);
        }
    }
    std::string text = read_file(path);
    analysis::DiagnosticSink sink = path.ends_with(".lp")
                                        ? analysis::lint_program(asp::parse_program(text), options)
                                        : analysis::lint_asg(asg::AnswerSetGrammar::parse(text), options);
    if (json) {
        out << sink.render_json() << "\n";
    } else {
        out << sink.render_text();
    }
    return sink.fails(strict) ? 1 : 0;
}

int cmd_quickstart(std::ostream& out) {
    // Step 0: the ASP substrate on a program with real search (three even
    // loops -> 8 answer sets), so solver decision/propagation counts are
    // nonzero in --stats.
    auto demo = asp::parse_program(R"(
        p0 :- not q0.  q0 :- not p0.
        p1 :- not q1.  q1 :- not p1.
        p2 :- not q2.  q2 :- not p2.
    )");
    auto solved = asp::solve(asp::ground(demo), {.max_models = 0});
    out << "ASP warm-up: " << solved.models.size() << " answer sets ("
        << solved.stats.decisions << " decisions, " << solved.stats.propagations
        << " propagations, " << solved.stats.backtracks << " backtracks)\n";

    // The quickstart domain (examples/quickstart.cpp), driven through the
    // full AGENP loop so every phase shows up in --stats/--trace-out.
    auto initial = asg::AnswerSetGrammar::parse(R"(
        request -> "do" task
        task -> "patrol"  { requires(2). }
        task -> "strike"  { requires(4). }
        task -> "observe" { requires(1). }
    )");
    ilp::ModeBias bias;
    bias.body.push_back(ilp::ModeAtom("requires", {ilp::ArgSpec::var("lvl")}, 2));
    bias.body.push_back(ilp::ModeAtom("maxloa", {ilp::ArgSpec::var("lvl")}));
    bias.comparisons.push_back(ilp::ComparisonMode(
        "lvl", {asp::Comparison::Op::Gt}, /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.max_body_atoms = 2;
    bias.max_vars = 2;

    framework::AutonomousManagedSystem ams("quickstart", initial, ilp::generate_space(bias, {0}));
    auto ctx = [](int maxloa) {
        return asp::parse_program("maxloa(" + std::to_string(maxloa) + ").");
    };
    ams.pip().add_source("env", [&ctx] { return ctx(3); });

    std::vector<ilp::Example> positive;
    positive.emplace_back(cfg::tokenize("do patrol"), ctx(3));
    positive.emplace_back(cfg::tokenize("do strike"), ctx(5));
    positive.emplace_back(cfg::tokenize("do observe"), ctx(1));
    std::vector<ilp::Example> negative;
    negative.emplace_back(cfg::tokenize("do strike"), ctx(3));
    negative.emplace_back(cfg::tokenize("do patrol"), ctx(1));

    auto outcome = ams.learn_model(positive, negative);
    if (!outcome.adapted) {
        out << "learning failed: " << outcome.reason << "\n";
        return 1;
    }
    out << "PAdaP adopted GPM v" << outcome.new_version << " (cost "
        << outcome.learn_result.cost << "):\n"
        << outcome.learn_result.hypothesis_to_string();

    auto report = ams.refresh_policies();
    out << "PReP materialized " << report.generated << " polic"
        << (report.generated == 1 ? "y" : "ies") << " under maxloa=3:\n";
    for (const auto& p : ams.policies().all()) {
        out << "  " << cfg::detokenize(p.policy) << "\n";
    }

    for (const char* request : {"do patrol", "do strike", "do observe"}) {
        auto [permitted, index] = ams.handle_request(cfg::tokenize(request));
        (void)index;
        out << "PDP: " << request << " -> " << (permitted ? "Permit" : "Deny") << "\n";
    }
    out << ams.monitor().render_audit();
    return 0;
}

namespace {

// Writes a full snapshot of the router through `state` and reports the
// result as the one-line reply/log format shared by `!snapshot`, the
// periodic snapshotter, and the on-drain snapshot.
std::string take_snapshot(srv::AmsRouter& router, store::StateStore& state) {
    store::SnapshotData data = router.export_state();
    std::size_t entries = data.entries.size();
    std::size_t policies = data.policies.size();
    std::string error;
    if (!state.save_snapshot(std::move(data), &error)) return "snapshot failed: " + error;
    store::StoreStatus status = state.status();
    return "SNAPSHOT_JSON {\"entries\":" + std::to_string(entries) +
           ",\"policies\":" + std::to_string(policies) +
           ",\"bytes\":" + std::to_string(status.snapshot_bytes) +
           ",\"model_version\":" + std::to_string(router.model_version()) + "}";
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
        if (words.size() > 2) options.hz = std::atoi(words[2].c_str());
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

// Handles one '!'-prefixed serve control line (stdin or TCP); returns the
// reply, possibly multi-line, without a trailing newline. `state` is null
// unless the server runs with --state-dir; `window` is the serve-lifetime
// rolling window behind the stats surfaces.
std::string handle_control_line(std::string_view line, srv::AmsRouter& router,
                                const srv::TcpServer* server, store::StateStore* state,
                                const obs::RollingWindow* window) {
    auto words = util::split_ws(std::string(line));
    const std::string& command = words[0];
    if (command == "!stats") {
        return "SERVE_STATS_JSON " + srv::serve_stats_json(router, server, state, window);
    }
    if (command == "!prof") {
        return handle_prof_line(words);
    }
    if (command == "!snapshot") {
        if (state == nullptr) return "snapshot unavailable: serve started without --state-dir";
        return take_snapshot(router, *state);
    }
    if (command == "!flight") {
        std::string json = "[";
        bool first = true;
        for (const auto& record : router.flight_snapshot()) {
            if (!first) json += ",";
            json += srv::flight_record_json(record);
            first = false;
        }
        json += "]";
        return "FLIGHT_JSON " + json;
    }
    if (command == "!trace") {
        if (words.size() < 2) return "usage: !trace <file>";
        std::size_t captured = router.captured_traces().size();
        std::ofstream file(words[1]);
        if (!file) return "cannot write trace file: " + words[1];
        file << router.captured_traces_json();
        return "trace written to " + words[1] + " (" + std::to_string(captured) +
               " captured request" + (captured == 1 ? "" : "s") + ")";
    }
    return "unknown control line: " + command +
           " (try !stats, !flight, !trace <file>, !snapshot, !prof)";
}

// Listen-mode SIGTERM/SIGINT handling: the handler may only do
// async-signal-safe work, so it writes one byte to a pipe the serve loop
// polls.
std::atomic<int> g_shutdown_pipe_w{-1};

void on_serve_signal(int) {
    int fd = g_shutdown_pipe_w.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char b = 1;
        [[maybe_unused]] ssize_t n = ::write(fd, &b, 1);
    }
}

}  // namespace

int cmd_serve(const ServeCliOptions& cli, std::istream& in, std::ostream& out) {
    std::string grammar_text = read_file(cli.grammar_path);
    asp::Program context;
    if (!cli.context_path.empty()) context = asp::parse_program(read_file(cli.context_path));
    // Surface grammar syntax errors once, before any replica spins up.
    (void)asg::AnswerSetGrammar::parse(grammar_text);

    // The audit log outlives the router: every replica's service holds a
    // pointer to it and records through finish() until the router stops.
    std::unique_ptr<srv::AuditLog> audit;
    if (!cli.audit_path.empty()) {
        srv::AuditOptions audit_options;
        audit_options.path = cli.audit_path;
        if (cli.audit_max_mb > 0) audit_options.max_bytes = std::uint64_t{cli.audit_max_mb} << 20;
        audit_options.sample_every = cli.audit_sample;
        audit = std::make_unique<srv::AuditLog>(audit_options);
    }

    // The state store also outlives the router: the cache's on_insert hook
    // appends to its WAL from every worker thread.
    std::unique_ptr<store::StateStore> state;
    if (!cli.state_dir.empty()) {
        state = std::make_unique<store::StateStore>(store::StoreOptions{cli.state_dir});
    }

    srv::RouterOptions router_options;
    router_options.replicas = cli.replicas;
    router_options.service.threads = cli.threads;
    router_options.service.use_cache = cli.use_cache;
    if (cli.cache_mb > 0) router_options.service.cache.capacity_bytes = cli.cache_mb << 20;
    if (cli.cache_shards > 0) router_options.service.cache.shards = cli.cache_shards;
    router_options.service.use_memo = cli.use_memo;
    if (cli.memo_mb > 0) router_options.service.memo.capacity_bytes = cli.memo_mb << 20;
    router_options.service.trace.slow_threshold_us = cli.trace_slow_ms * 1000;
    router_options.service.trace.sample_every = cli.trace_sample;
    router_options.service.audit = audit.get();
    if (state != nullptr) {
        router_options.service.cache.on_insert = [s = state.get()](const srv::CacheEntry& e) {
            s->append_wal({e.text, e.model_version, e.permitted});
        };
    }

    // Every replica parses its own AMS from the same text: replicas share
    // no mutable state, so they only stay version-aligned through the
    // router's broadcast update path.
    srv::AmsRouter router(
        [&grammar_text, &context] {
            auto ams = std::make_unique<framework::AutonomousManagedSystem>(
                "serve", asg::AnswerSetGrammar::parse(grammar_text), ilp::HypothesisSpace{});
            ams->pip().add_source("file", [context] { return context; });
            return ams;
        },
        router_options);

    // Warm restart: replay the last snapshot + WAL into the fresh router
    // before any traffic. No worker threads have requests yet, so the one
    // greppable AGENP_STATE_RESTORED line can print without out_mu.
    if (state != nullptr) {
        store::RestoreResult restored = state->restore();
        srv::StateRestoreReport report = router.restore_state(restored.data);
        out << "AGENP_STATE_RESTORED entries=" << report.entries_restored
            << " skipped=" << report.entries_skipped << " policies=" << report.policies_restored
            << " model_version=" << report.model_version
            << " wal_replayed=" << restored.wal_replayed
            << " wal_discarded_bytes=" << restored.wal_discarded_bytes << "\n"
            << std::flush;
        if (report.entries_skipped > 0) {
            out << "state restore truncated: snapshot exceeds the configured cache budget "
                << "(--cache-mb " << cli.cache_mb << "); restored " << report.entries_restored
                << " entries, dropped " << report.entries_skipped << "\n";
        }
        if (!restored.warning.empty()) out << "state restore warning: " << restored.warning << "\n";
        if (!report.warning.empty()) out << "state restore warning: " << report.warning << "\n";
    }

    // Windowed telemetry: one bucket per second over the process registry,
    // shared by /statz, the exposition, and the reporter. The ticker also
    // advances the cost table's frequency EWMA.
    obs::RollingWindow window(obs::metrics());
    obs::WindowTicker window_ticker(window, [] { obs::costs().tick(); });

    // Continuous profiling (--prof-hz): sample for the life of the serve
    // process; /profz and !prof stop share the same session.
    if (cli.prof_hz > 0) {
        obs::ProfilerOptions prof_options;
        prof_options.hz = static_cast<int>(cli.prof_hz);
        if (obs::CpuProfiler::instance().start(prof_options)) {
            out << "AGENP_PROFILING hz=" << obs::CpuProfiler::instance().hz() << "\n"
                << std::flush;
        }
    }

    // Written by the listen branch once the TCP server exists; read by the
    // control handler, the reporter, and the metrics HTTP handler — all of
    // which may run on other threads.
    std::atomic<const srv::TcpServer*> server_ptr{nullptr};
    std::atomic<bool> draining{false};
    auto control = [&router, &server_ptr, state_ptr = state.get(),
                    &window](std::string_view line) {
        return handle_control_line(line, router, server_ptr.load(std::memory_order_acquire),
                                   state_ptr, &window);
    };

    // The reporter thread and the request loop share `out`.
    std::mutex out_mu;
    std::mutex reporter_mu;
    std::condition_variable reporter_cv;
    bool reporter_stop = false;
    std::thread reporter;
    if (cli.stats_every_s > 0) {
        // The periodic line reports what happened over the last interval —
        // req/s, hit rate, latency quantiles from the rolling window — not
        // lifetime cumulative counters, which stop moving visibly on a
        // long-running server. Full cumulative state stays available via
        // `!stats` and /statz.
        reporter = std::thread([&] {
            std::unique_lock lock(reporter_mu);
            while (!reporter_cv.wait_for(lock, std::chrono::seconds(cli.stats_every_s),
                                         [&] { return reporter_stop; })) {
                srv::WindowedServeStats ws = srv::windowed_serve_stats(
                    window, std::chrono::seconds(cli.stats_every_s));
                srv::RouterStats rs = router.snapshot_stats();
                std::string json = srv::windowed_serve_stats_json(ws);
                json.back() = ',';  // reopen to append instantaneous depth
                json += "\"queue_depth\":" + std::to_string(rs.total.queue_depth) + "}";
                std::lock_guard out_lock(out_mu);
                out << "SERVE_WINDOW_JSON " << json << "\n" << std::flush;
            }
        });
    }

    // HTTP telemetry surface (--metrics-listen): /metrics (Prometheus),
    // /healthz (503 while draining), /statz (SERVE_STATS_JSON body). Stays
    // up through the NDJSON drain so scrapers see the drain happen.
    std::unique_ptr<obs::HttpServer> metrics_http;
    if (cli.metrics_listen) {
        obs::HttpServerOptions http_options;
        http_options.port = cli.metrics_listen_port;
        metrics_http = std::make_unique<obs::HttpServer>(
            http_options, [&router, &server_ptr, &draining, state_ptr = state.get(), &window,
                           replicas = cli.replicas](const obs::HttpRequest& request) {
                obs::HttpResponse response;
                if (request.path == "/metrics") {
                    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
                    response.body = srv::serve_exposition_prometheus(
                        router, draining.load(std::memory_order_acquire), state_ptr, &window);
                } else if (request.path == "/healthz") {
                    bool is_draining = draining.load(std::memory_order_acquire);
                    response.status = is_draining ? 503 : 200;
                    response.content_type = "application/json";
                    response.body = srv::healthz_json(router, is_draining) + "\n";
                } else if (request.path == "/statz") {
                    response.content_type = "application/json";
                    response.body =
                        srv::serve_stats_json(router, server_ptr.load(std::memory_order_acquire),
                                              state_ptr, &window) +
                        "\n";
                } else if (request.path == "/buildz") {
                    response.content_type = "application/json";
                    response.body =
                        obs::build_info_json(
                            {{"protocol_version", std::to_string(srv::kProtocolVersion)},
                             {"replicas", std::to_string(replicas)}}) +
                        "\n";
                } else if (request.path == "/profz") {
                    // Blocking one-shot profile. This stalls only the
                    // single-threaded metrics loop — serving traffic is
                    // unaffected (beyond the sampling itself).
                    double seconds = 2.0;
                    int hz = 99;
                    if (std::string v = obs::http_query_param(request.query, "seconds");
                        !v.empty()) {
                        seconds = std::atof(v.c_str());
                    }
                    if (std::string v = obs::http_query_param(request.query, "hz"); !v.empty()) {
                        hz = std::atoi(v.c_str());
                    }
                    if (seconds <= 0.0 || seconds > 60.0 || hz < 1 || hz > 1000) {
                        response.status = 400;
                        response.body = "profz expects seconds in (0,60] and hz in [1,1000]\n";
                        return response;
                    }
                    obs::ProfileReport report =
                        obs::CpuProfiler::instance().collect(seconds, hz);
                    if (obs::http_query_param(request.query, "format") == "json") {
                        response.content_type = "application/json";
                        response.body = report.to_json() + "\n";
                    } else {
                        response.body = report.folded();
                    }
                } else {
                    response.status = 404;
                    response.body =
                        "not found (try /metrics, /healthz, /statz, /buildz, /profz)\n";
                }
                return response;
            });
        if (cli.metrics_announce_port != nullptr) {
            cli.metrics_announce_port->store(metrics_http->port());
        }
        std::lock_guard out_lock(out_mu);
        out << "AGENP_METRICS_LISTENING port=" << metrics_http->port() << "\n" << std::flush;
    }

    auto stop_reporter = [&] {
        if (reporter.joinable()) {
            {
                std::lock_guard lock(reporter_mu);
                reporter_stop = true;
            }
            reporter_cv.notify_all();
            reporter.join();
        }
    };

    // Periodic snapshotter (--snapshot-every S, needs --state-dir): the
    // same full snapshot `!snapshot` takes, on a timer. Failures are
    // logged and retried next interval; serving never stops for them.
    std::mutex snapshot_mu;
    std::condition_variable snapshot_cv;
    bool snapshot_stop = false;
    std::thread snapshotter;
    if (state != nullptr && cli.snapshot_every_s > 0) {
        snapshotter = std::thread([&] {
            std::unique_lock lock(snapshot_mu);
            while (!snapshot_cv.wait_for(lock, std::chrono::seconds(cli.snapshot_every_s),
                                         [&] { return snapshot_stop; })) {
                std::string result = take_snapshot(router, *state);
                if (!util::starts_with(result, "SNAPSHOT_JSON")) {
                    std::lock_guard out_lock(out_mu);
                    out << result << "\n" << std::flush;
                }
            }
        });
    }
    auto stop_snapshotter = [&] {
        if (snapshotter.joinable()) {
            {
                std::lock_guard lock(snapshot_mu);
                snapshot_stop = true;
            }
            snapshot_cv.notify_all();
            snapshotter.join();
        }
    };
    // On-drain snapshot: both exit paths persist the final state so a
    // clean restart starts exactly where this process stopped.
    auto drain_snapshot = [&] {
        if (state == nullptr) return;
        std::lock_guard out_lock(out_mu);
        out << take_snapshot(router, *state) << "\n" << std::flush;
    };

    auto start = std::chrono::steady_clock::now();
    std::size_t served = 0;
    auto print_summary = [&](std::size_t count) {
        auto seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        srv::RouterStats rs = router.snapshot_stats();
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%.1f req/s, cache hit rate %.3f",
                      seconds > 0 ? static_cast<double>(count) / seconds : 0.0,
                      rs.total.cache.hit_rate());
        out << "served " << count << " requests (" << rs.total.permitted << " permit, "
            << rs.total.denied << " deny, " << rs.total.rejected_overload << " overloaded, "
            << rs.total.expired << " expired): " << buf << "\n";
    };

    if (cli.listen) {
        srv::TransportOptions transport;
        transport.port = cli.listen_port;
        srv::TcpServer server(router, transport, control);
        server_ptr.store(&server, std::memory_order_release);
        if (cli.announce_port != nullptr) cli.announce_port->store(server.port());
        {
            std::lock_guard out_lock(out_mu);
            out << "AGENP_LISTENING port=" << server.port() << "\n" << std::flush;
        }
        // Block until a shutdown byte or EOF on the hook fd, or a
        // SIGTERM/SIGINT delivered through the signal pipe.
        int wait_fd = cli.shutdown_fd;
        int pipe_fds[2] = {-1, -1};
        if (wait_fd < 0 && ::pipe(pipe_fds) == 0) {
            wait_fd = pipe_fds[0];
            g_shutdown_pipe_w.store(pipe_fds[1], std::memory_order_relaxed);
            std::signal(SIGTERM, on_serve_signal);
            std::signal(SIGINT, on_serve_signal);
        }
        if (wait_fd >= 0) {
            pollfd pfd{wait_fd, POLLIN, 0};
            while (true) {
                int rc = ::poll(&pfd, 1, -1);
                if (rc > 0 || (rc < 0 && errno != EINTR)) break;
            }
        }
        if (pipe_fds[0] >= 0) {
            std::signal(SIGTERM, SIG_DFL);
            std::signal(SIGINT, SIG_DFL);
            g_shutdown_pipe_w.store(-1, std::memory_order_relaxed);
            ::close(pipe_fds[0]);
            ::close(pipe_fds[1]);
        }
        // Mark draining first so /healthz flips to 503 and the last
        // scrapes see srv.draining=1 while the NDJSON listener drains.
        draining.store(true, std::memory_order_release);
        server.shutdown();
        stop_reporter();
        stop_snapshotter();
        drain_snapshot();
        srv::RouterStats rs = router.snapshot_stats();
        served = rs.total.completed + rs.total.rejected_overload + rs.total.expired;
        {
            std::lock_guard out_lock(out_mu);
            out << "SERVE_STATS_JSON "
                << srv::serve_stats_json(router, &server, state.get(), &window) << "\n";
            print_summary(served);
        }
        // Stop the exporter before `server` leaves scope: the /statz
        // handler reads server_ptr, so it must be quiesced first.
        metrics_http.reset();
        server_ptr.store(nullptr, std::memory_order_release);
        // Idempotent; also ends a session started via !prof.
        (void)obs::CpuProfiler::instance().stop();
        return 0;
    }

    std::string line;
    while (std::getline(in, line)) {
        auto trimmed = std::string(util::trim(line));
        if (trimmed.empty()) continue;
        // One shared dispatch path with the TCP transport; stdin stays
        // lockstep by waiting on each deferred reply before reading on.
        std::promise<std::string> reply_promise;
        std::future<std::string> reply_future = reply_promise.get_future();
        srv::DispatchResult result = srv::dispatch_line(
            router, trimmed, srv::LineMode::Text, 0, control,
            [&reply_promise](std::string reply) { reply_promise.set_value(std::move(reply)); });
        std::string reply = result.deferred ? reply_future.get() : result.immediate;
        if (result.deferred) ++served;
        if (!reply.empty()) {
            std::lock_guard out_lock(out_mu);
            out << reply << "\n";
        }
    }
    draining.store(true, std::memory_order_release);
    router.drain();
    stop_reporter();
    stop_snapshotter();
    drain_snapshot();
    metrics_http.reset();
    (void)obs::CpuProfiler::instance().stop();
    print_summary(served);
    return 0;
}

int cmd_loadgen(const LoadgenCliOptions& cli, std::ostream& out) {
    srv::LoadgenOptions load;
    load.clients = cli.clients;
    load.requests_per_client = cli.requests_per_client;

    if (!cli.connect_host.empty()) {
        auto report = srv::run_loadgen_tcp(cli.connect_host, cli.connect_port,
                                           srv::demo_workload(cli.distinct), load);
        out << "loadgen: " << cli.clients << " clients x " << cli.requests_per_client
            << " requests, " << cli.distinct << " distinct, tcp " << cli.connect_host << ":"
            << cli.connect_port << "\n";
        out << report.render_text();
        out << "LOADGEN_JSON " << report.to_json() << "\n";
        return report.dropped == 0 ? 0 : 1;
    }

    auto ams = srv::make_demo_ams(cli.distinct);
    srv::ServiceOptions options;
    options.threads = cli.threads;
    options.use_cache = cli.use_cache;
    if (cli.cache_mb > 0) options.cache.capacity_bytes = cli.cache_mb << 20;
    if (cli.cache_shards > 0) options.cache.shards = cli.cache_shards;
    options.use_memo = cli.use_memo;
    if (cli.memo_mb > 0) options.memo.capacity_bytes = cli.memo_mb << 20;
    srv::DecisionService service(ams, options);

    auto report = srv::run_loadgen(service, srv::demo_workload(cli.distinct), load);
    out << "loadgen: " << cli.clients << " clients x " << cli.requests_per_client << " requests, "
        << cli.distinct << " distinct, " << cli.threads << " threads, cache "
        << (cli.use_cache ? "on" : "off") << ", memo " << (cli.use_memo ? "on" : "off") << "\n";
    out << report.render_text();
    out << "LOADGEN_JSON " << report.to_json() << "\n";
    return 0;
}

int cmd_evaluate(const std::string& schema_path, const std::string& policy_path,
                 const std::string& request_text, std::ostream& out) {
    auto schema = xacml::parse_schema(read_file(schema_path));
    auto policy = xacml::parse_policy(read_file(policy_path), schema);
    auto request = xacml::parse_request(request_text, schema);
    auto decision = xacml::evaluate(policy, request);
    out << xacml::decision_name(decision) << "\n";
    return decision == xacml::Decision::Permit ? 0 : 1;
}

namespace {

// Pulls `--flag value` out of an argument list.
std::string take_flag(std::vector<std::string>& args, const std::string& flag,
                      const std::string& fallback) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag) {
            std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            return value;
        }
    }
    return fallback;
}

// Pulls a boolean `--flag` out of an argument list.
bool take_bool_flag(std::vector<std::string>& args, const std::string& flag) {
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == flag) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
            return true;
        }
    }
    return false;
}

// Splits `--flag=value` arguments into `--flag value` pairs so both
// spellings work with take_flag.
std::vector<std::string> normalize_flags(const std::vector<std::string>& argv) {
    std::vector<std::string> out;
    out.reserve(argv.size());
    for (const auto& a : argv) {
        auto eq = a.find('=');
        if (util::starts_with(a, "--") && eq != std::string::npos) {
            out.push_back(a.substr(0, eq));
            out.push_back(a.substr(eq + 1));
        } else {
            out.push_back(a);
        }
    }
    return out;
}

// Applies the telemetry flags around one command dispatch; writes the
// trace file and stats dump after the command finishes. --trace-out
// installs one TraceContext on this thread, so it records the phases the
// command runs here (serve's worker threads keep their own request trees,
// see --trace-sample / !trace).
class TelemetryScope {
public:
    TelemetryScope(bool stats, std::string trace_path, std::ostream& out)
        : stats_(stats),
          trace_path_(std::move(trace_path)),
          out_(out),
          trace_scope_(trace_path_.empty() ? nullptr : &trace_) {}

    ~TelemetryScope() {
        if (!trace_path_.empty()) {
            std::ofstream file(trace_path_);
            if (file) {
                file << trace_.chrome_trace_json();
                out_ << "trace written to " << trace_path_ << " (open in chrome://tracing)\n";
                out_ << trace_.flat_profile();
            } else {
                out_ << "cannot write trace file: " << trace_path_ << "\n";
            }
        }
        if (stats_) {
            out_ << "--- metrics ---\n" << obs::metrics().render_text();
        }
    }

private:
    bool stats_;
    std::string trace_path_;
    std::ostream& out_;
    obs::TraceContext trace_{0};
    obs::TraceContextScope trace_scope_;
};

}  // namespace

int run(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
    try {
        if (argv.empty()) {
            err << "usage: agenp <solve|membership|generate|learn|lint|evaluate|quickstart|serve|"
                   "loadgen> [--stats] [--trace-out=FILE] ...\n";
            return 2;
        }
        std::vector<std::string> normalized = normalize_flags(argv);
        std::vector<std::string> args(normalized.begin() + 1, normalized.end());
        const std::string command = normalized[0];
        bool stats = take_bool_flag(args, "--stats");
        std::string trace_out = take_flag(args, "--trace-out", "");
        TelemetryScope telemetry(stats, trace_out, out);
        if (command == "solve") {
            auto models = std::stoull(take_flag(args, "--models", "1"));
            if (args.size() != 1) throw CliError("usage: agenp solve <program.lp> [--models N]");
            return cmd_solve(args[0], models, out);
        }
        if (command == "membership") {
            auto sentence = take_flag(args, "--string", "");
            auto context = take_flag(args, "--context", "");
            if (args.size() != 1 || sentence.empty()) {
                throw CliError("usage: agenp membership <grammar.asg> --string \"...\" [--context ctx.lp]");
            }
            return cmd_membership(args[0], sentence, context, out);
        }
        if (command == "generate") {
            auto context = take_flag(args, "--context", "");
            auto max_strings = std::stoull(take_flag(args, "--max", "1000"));
            if (args.size() != 1) throw CliError("usage: agenp generate <grammar.asg> [--context ctx.lp] [--max N]");
            return cmd_generate(args[0], context, max_strings, out);
        }
        if (command == "learn") {
            auto out_path = take_flag(args, "--out", "");
            if (args.size() != 1) throw CliError("usage: agenp learn <task.agenp> [--out learned.asg]");
            return cmd_learn(args[0], out_path, out);
        }
        if (command == "lint") {
            auto context = take_flag(args, "--context", "");
            bool json = take_bool_flag(args, "--json");
            bool strict = take_bool_flag(args, "--strict");
            if (args.size() != 1) {
                throw CliError(
                    "usage: agenp lint <file.asg|file.lp> [--context ctx.lp] [--json] [--strict]");
            }
            return cmd_lint(args[0], context, json, strict, out);
        }
        if (command == "quickstart") {
            if (!args.empty()) throw CliError("usage: agenp quickstart [--stats] [--trace-out=FILE]");
            return cmd_quickstart(out);
        }
        if (command == "serve") {
            ServeCliOptions serve;
            serve.context_path = take_flag(args, "--context", "");
            serve.threads = std::stoull(take_flag(args, "--threads", "4"));
            serve.cache_mb = std::stoull(take_flag(args, "--cache-mb", "64"));
            serve.use_cache = !take_bool_flag(args, "--no-cache");
            // Tail-capture knobs default from the environment; flags win.
            // getenv is single-threaded startup here, before any worker
            // exists, so concurrency-mt-unsafe does not apply.
            const char* env_slow = std::getenv("AGENP_TRACE_SLOW_MS");  // NOLINT(concurrency-mt-unsafe)
            const char* env_sample = std::getenv("AGENP_TRACE_SAMPLE");  // NOLINT(concurrency-mt-unsafe)
            serve.trace_slow_ms =
                std::stoull(take_flag(args, "--trace-slow-ms", env_slow ? env_slow : "0"));
            serve.trace_sample =
                std::stoull(take_flag(args, "--trace-sample", env_sample ? env_sample : "0"));
            serve.stats_every_s = std::stoull(take_flag(args, "--stats-every", "0"));
            auto listen_port = take_flag(args, "--listen", "");
            if (!listen_port.empty()) {
                serve.listen = true;
                serve.listen_port = static_cast<std::uint16_t>(std::stoul(listen_port));
            }
            serve.replicas = std::stoull(take_flag(args, "--replicas", "1"));
            auto metrics_port = take_flag(args, "--metrics-listen", "");
            if (!metrics_port.empty()) {
                serve.metrics_listen = true;
                serve.metrics_listen_port = static_cast<std::uint16_t>(std::stoul(metrics_port));
            }
            serve.audit_path = take_flag(args, "--audit-log", "");
            serve.audit_max_mb = std::stoull(take_flag(args, "--audit-max-mb", "64"));
            serve.audit_sample = std::stoull(take_flag(args, "--audit-sample", "1"));
            serve.state_dir = take_flag(args, "--state-dir", "");
            serve.snapshot_every_s = std::stoull(take_flag(args, "--snapshot-every", "0"));
            serve.cache_shards = std::stoull(take_flag(args, "--cache-shards", "0"));
            serve.use_memo = !take_bool_flag(args, "--no-memo");
            serve.memo_mb = std::stoull(take_flag(args, "--memo-mb", "32"));
            serve.prof_hz = std::stoull(take_flag(args, "--prof-hz", "0"));
            if (serve.prof_hz > 1000) throw CliError("--prof-hz expects 0..1000");
            if (args.size() != 1) {
                throw CliError(
                    "usage: agenp serve <grammar.asg> [--context ctx.lp] [--threads N] "
                    "[--cache-mb M] [--no-cache] [--cache-shards N] [--no-memo] "
                    "[--memo-mb M] [--trace-slow-ms MS] "
                    "[--trace-sample N] [--stats-every SEC] [--listen PORT] [--replicas N] "
                    "[--metrics-listen PORT] "
                    "[--audit-log FILE] [--audit-max-mb M] [--audit-sample N] "
                    "[--state-dir DIR] [--snapshot-every SEC] [--prof-hz HZ]");
            }
            serve.grammar_path = args[0];
            return cmd_serve(serve, std::cin, out);
        }
        if (command == "loadgen") {
            LoadgenCliOptions load;
            load.threads = std::stoull(take_flag(args, "--threads", "4"));
            load.clients = std::stoull(take_flag(args, "--clients", "4"));
            load.requests_per_client = std::stoull(take_flag(args, "--requests", "250"));
            load.distinct = std::stoull(take_flag(args, "--distinct", "8"));
            load.cache_mb = std::stoull(take_flag(args, "--cache-mb", "64"));
            load.use_cache = !take_bool_flag(args, "--no-cache");
            load.cache_shards = std::stoull(take_flag(args, "--cache-shards", "0"));
            load.use_memo = !take_bool_flag(args, "--no-memo");
            load.memo_mb = std::stoull(take_flag(args, "--memo-mb", "32"));
            auto connect = take_flag(args, "--connect", "");
            if (!connect.empty()) {
                auto colon = connect.rfind(':');
                if (colon == std::string::npos || colon == 0 || colon + 1 == connect.size()) {
                    throw CliError("--connect expects HOST:PORT");
                }
                load.connect_host = connect.substr(0, colon);
                load.connect_port =
                    static_cast<std::uint16_t>(std::stoul(connect.substr(colon + 1)));
            }
            if (!args.empty()) {
                throw CliError(
                    "usage: agenp loadgen [--threads N] [--clients N] [--requests N] "
                    "[--distinct K] [--cache-mb M] [--no-cache] [--cache-shards N] "
                    "[--no-memo] [--memo-mb M] [--connect HOST:PORT]");
            }
            return cmd_loadgen(load, out);
        }
        if (command == "evaluate") {
            auto request = take_flag(args, "--request", "");
            if (args.size() != 2 || request.empty()) {
                throw CliError(
                    "usage: agenp evaluate <schema.xs> <policy.xp> --request \"attr=value ...\"");
            }
            return cmd_evaluate(args[0], args[1], request, out);
        }
        err << "unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }
}

}  // namespace agenp::cli
