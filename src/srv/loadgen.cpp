#include "srv/loadgen.hpp"

#include <cstdio>
#include <future>
#include <thread>

#include "asp/parser.hpp"
#include "obs/metrics.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"
#include "util/rng.hpp"

namespace agenp::srv {

namespace {

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

}  // namespace

void LoadgenReport::fill_latency(const obs::Histogram::Snapshot& latency) {
    mean_us = latency.mean();
    p50_us = latency.quantile(0.5);
    p95_us = latency.quantile(0.95);
    p99_us = latency.quantile(0.99);
}

std::string LoadgenReport::to_json() const {
    std::string out = "{";
    out += "\"requests\":" + std::to_string(requests);
    out += ",\"permitted\":" + std::to_string(permitted);
    out += ",\"denied\":" + std::to_string(denied);
    out += ",\"overloaded\":" + std::to_string(overloaded);
    out += ",\"expired\":" + std::to_string(expired);
    out += ",\"seconds\":" + format_double(seconds);
    out += ",\"throughput_rps\":" + format_double(throughput_rps);
    out += ",\"mean_us\":" + format_double(mean_us);
    out += ",\"p50_us\":" + format_double(p50_us);
    out += ",\"p95_us\":" + format_double(p95_us);
    out += ",\"p99_us\":" + format_double(p99_us);
    out += ",\"hit_rate\":" + format_double(hit_rate);
    out += ",\"dropped\":" + std::to_string(dropped);
    out += "}";
    return out;
}

std::string LoadgenReport::render_text() const {
    std::string out;
    out += "requests: " + std::to_string(requests) + " (" + std::to_string(permitted) +
           " permit, " + std::to_string(denied) + " deny, " + std::to_string(overloaded) +
           " overloaded, " + std::to_string(expired) + " expired, " + std::to_string(dropped) +
           " dropped)\n";
    out += "throughput: " + format_double(throughput_rps) + " req/s over " +
           format_double(seconds) + " s\n";
    out += "latency us: mean " + format_double(mean_us) + ", p50 " + format_double(p50_us) +
           ", p95 " + format_double(p95_us) + ", p99 " + format_double(p99_us) + "\n";
    out += "cache hit rate: " + format_double(hit_rate) + "\n";
    return out;
}

LoadgenReport run_loadgen(DecisionService& service, const std::vector<cfg::TokenString>& workload,
                          const LoadgenOptions& options) {
    LoadgenReport report;
    if (workload.empty() || options.clients == 0) return report;

    CacheStats before = service.cache().stats();

    struct ClientResult {
        std::size_t requests = 0;
        std::size_t permitted = 0, denied = 0, overloaded = 0, expired = 0, dropped = 0;
    };
    std::vector<ClientResult> results(options.clients);
    // Clients observe into one histogram concurrently (lock-free).
    obs::Histogram latency_hist;

    util::Rng seeder(options.seed);
    std::vector<util::Rng> rngs;
    rngs.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) rngs.push_back(seeder.split());

    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) {
        clients.emplace_back([&, c] {
            ClientResult& r = results[c];
            util::Rng& rng = rngs[c];
            for (std::size_t i = 0; i < options.requests_per_client; ++i) {
                std::promise<Decision> done;
                std::future<Decision> decided = done.get_future();
                service.submit(rng.choice(workload),
                               [&done](const Decision& decision) { done.set_value(decision); });
                Decision d = decided.get();
                ++r.requests;
                latency_hist.observe(d.latency_us);
                switch (d.outcome) {
                    case Outcome::Permit: ++r.permitted; break;
                    case Outcome::Deny: ++r.denied; break;
                    case Outcome::Overloaded: ++r.overloaded; break;
                    case Outcome::Expired: ++r.expired; break;
                    case Outcome::Error: ++r.dropped; break;
                }
            }
        });
    }
    for (auto& t : clients) t.join();
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);

    for (auto& r : results) {
        report.requests += r.requests;
        report.permitted += r.permitted;
        report.denied += r.denied;
        report.overloaded += r.overloaded;
        report.expired += r.expired;
        report.dropped += r.dropped;
    }
    report.seconds = elapsed.count();
    report.throughput_rps =
        report.seconds > 0 ? static_cast<double>(report.requests) / report.seconds : 0;
    report.fill_latency(latency_hist.snapshot());

    CacheStats after = service.cache().stats();
    std::uint64_t hits = after.hits - before.hits;
    std::uint64_t misses = after.misses - before.misses;
    report.hit_rate =
        hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
    return report;
}

LoadgenReport run_loadgen_tcp(const std::string& host, std::uint16_t port,
                              const std::vector<cfg::TokenString>& workload,
                              const LoadgenOptions& options) {
    LoadgenReport report;
    if (workload.empty() || options.clients == 0) return report;

    // Render request lines once; the hot loop only swaps the id in.
    std::vector<std::string> texts;
    texts.reserve(workload.size());
    for (const auto& tokens : workload) texts.push_back(cfg::detokenize(tokens));

    struct ClientResult {
        std::size_t requests = 0;
        std::size_t permitted = 0, denied = 0, overloaded = 0, expired = 0, dropped = 0;
        std::uint64_t hits = 0, lookups = 0;
    };
    std::vector<ClientResult> results(options.clients);
    obs::Histogram latency_hist;

    util::Rng seeder(options.seed);
    std::vector<util::Rng> rngs;
    rngs.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) rngs.push_back(seeder.split());

    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) {
        clients.emplace_back([&, c] {
            ClientResult& r = results[c];
            util::Rng& rng = rngs[c];
            try {
                TcpClient conn(host, port);
                for (std::size_t i = 0; i < options.requests_per_client; ++i) {
                    const std::string& text = rng.choice(texts);
                    std::string line = "{\"id\":" + std::to_string(i) + ",\"decide\":\"" +
                                       obs::json_escape(text) + "\"}";
                    auto sent = std::chrono::steady_clock::now();
                    conn.send_line(line);
                    std::optional<std::string> reply = conn.recv_line();
                    ++r.requests;
                    if (!reply) {  // timeout or dead server: this client gives up
                        ++r.dropped;
                        break;
                    }
                    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - sent)
                                  .count();
                    latency_hist.observe(static_cast<std::uint64_t>(us));
                    std::optional<JsonValue> json = parse_json(*reply);
                    if (!json || !json->is_object()) {
                        ++r.dropped;
                        continue;
                    }
                    if (const JsonValue* err = json->find("error"); err != nullptr) {
                        if (err->string == "overloaded") {
                            ++r.overloaded;
                        } else if (err->string == "expired") {
                            ++r.expired;
                        } else {
                            ++r.dropped;
                        }
                        continue;
                    }
                    const JsonValue* outcome = json->find("outcome");
                    if (outcome == nullptr || !outcome->is_string()) {
                        ++r.dropped;
                        continue;
                    }
                    ++(outcome->string == "permit" ? r.permitted : r.denied);
                    ++r.lookups;
                    const JsonValue* hit = json->find("cache_hit");
                    if (hit != nullptr && hit->boolean) ++r.hits;
                }
            } catch (const std::exception&) {
                // Connect or send failed; what this client already sent
                // without an answer is the only honest drop count.
                ++r.dropped;
            }
        });
    }
    for (auto& t : clients) t.join();
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);

    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (auto& r : results) {
        report.requests += r.requests;
        report.permitted += r.permitted;
        report.denied += r.denied;
        report.overloaded += r.overloaded;
        report.expired += r.expired;
        report.dropped += r.dropped;
        hits += r.hits;
        lookups += r.lookups;
    }
    report.seconds = elapsed.count();
    report.throughput_rps =
        report.seconds > 0 ? static_cast<double>(report.requests) / report.seconds : 0;
    report.fill_latency(latency_hist.snapshot());
    report.hit_rate = lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups);
    return report;
}

asg::AnswerSetGrammar demo_grammar(std::size_t distinct_tasks, std::size_t context_weight) {
    if (distinct_tasks == 0) distinct_tasks = 1;
    std::string text = "request -> \"do\" task {\n  :- requires(L)@2, maxloa(M), L > M.\n";
    if (context_weight > 0) text += "  stress(X, Y) :- load(X), load(Y).\n";
    text += "}\n";
    for (std::size_t i = 0; i < distinct_tasks; ++i) {
        text += "task -> \"task_" + std::to_string(i) + "\" { requires(" +
                std::to_string(i % 5 + 1) + "). }\n";
    }
    return asg::AnswerSetGrammar::parse(text);
}

framework::AutonomousManagedSystem make_demo_ams(std::size_t distinct_tasks,
                                                 std::size_t context_weight) {
    framework::AutonomousManagedSystem ams(
        "serve-demo", demo_grammar(distinct_tasks, context_weight), ilp::HypothesisSpace{});
    std::string context_text = "maxloa(3).\n";
    for (std::size_t i = 1; i <= context_weight; ++i) {
        context_text += "load(" + std::to_string(i) + ").\n";
    }
    asp::Program context = asp::parse_program(context_text);
    ams.pip().add_source("env", [context] { return context; });
    return ams;
}

std::vector<cfg::TokenString> demo_workload(std::size_t distinct_tasks) {
    if (distinct_tasks == 0) distinct_tasks = 1;
    std::vector<cfg::TokenString> out;
    out.reserve(distinct_tasks);
    for (std::size_t i = 0; i < distinct_tasks; ++i) {
        out.push_back(cfg::tokenize("do task_" + std::to_string(i)));
    }
    return out;
}

}  // namespace agenp::srv
