// Benchmark-owned decision server: one AmsRouter (one replica, two decision
// workers) behind a TcpServer, a PIP source the load generator can switch
// between context epochs, and an operator thread that re-learns the model
// when a drift is announced.
//
//   pb_server --seed N
//
// Prints `PB_READY port=<port> pid=<pid>` once the model is parsed, the
// bootstrap GPM is learned and the listener is up. Control lines (one JSON
// reply line each):
//   !ctx <epoch>    switch the PIP to that epoch's context
//   !drift <phase>  hand the phase's labelled feedback to the operator
//   !drifts         finished drifts: handed time, version, lock hold, learn stats
//   !model <v>      grammar text of model version v
//   !cpu            process CPU time and peak RSS
//   !stats          router counters (decisions, cache, memo)
//   !flight         the flight-recorder ring
//   !quit           shut down
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "asp/parser.hpp"
#include "domain.hpp"
#include "obs/metrics.hpp"
#include "srv/transport.hpp"
#include "stats.hpp"

namespace {

namespace asg = agenp::asg;
namespace asp = agenp::asp;
namespace srv = agenp::srv;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count());
}

struct DriftRecord {
    std::uint64_t phase = 0;
    std::uint64_t handed_ns = 0;  // labelled feedback handed to update_model
    std::uint64_t version = 0;
    bool adapted = false;
    double hold_ms = 0;  // time inside the update_model callback
    std::size_t coverage_checks = 0;
    std::size_t search_nodes = 0;
};

std::uint64_t parse_u64(std::string_view s) {
    std::uint64_t v = 0;
    auto first = s.find_first_not_of(" \t");
    if (first == std::string_view::npos) return 0;
    std::from_chars(s.data() + first, s.data() + s.size(), v);
    return v;
}

std::uint64_t peak_rss_kb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return parse_u64(std::string_view(line).substr(6));
    }
    return 0;
}

std::uint64_t process_cpu_us() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto us = [](const timeval& tv) {
        return static_cast<std::uint64_t>(tv.tv_sec) * 1000000u + static_cast<std::uint64_t>(tv.tv_usec);
    };
    return us(ru.ru_utime) + us(ru.ru_stime);
}

class Server {
public:
    explicit Server(std::uint64_t seed)
        : domain_(pb::make_domain(seed)),
          context_(asp::parse_program(pb::context_text(*domain_, 0))),
          router_(
              [this] {
                  // Loaded from text, as `agenp serve` loads its grammar file.
                  auto ams = pb::make_ams(*domain_, asg::AnswerSetGrammar::parse(domain_->grammar_text));
                  ams->pip().add_source("roster", [this] { return context_.get(); });
                  return ams;
              },
              router_options()) {
        auto bootstrap = adopt(0, pb::labelled_feedback(*domain_, 0));
        if (!bootstrap.adapted) throw std::runtime_error("bootstrap learning did not adopt a model");
    }

    void serve() {
        srv::TransportOptions transport;
        srv::TcpServer tcp(router_, transport, [this](std::string_view line) { return control(line); });
        std::thread operator_thread([this] { operator_loop(); });
        std::printf("PB_READY port=%u pid=%ld\n", static_cast<unsigned>(tcp.port()),
                    static_cast<long>(getpid()));
        std::fflush(stdout);
        {
            std::unique_lock lock(mu_);
            cv_.wait(lock, [this] { return quit_; });
        }
        operator_thread.join();
        tcp.shutdown();
    }

private:
    static srv::RouterOptions router_options() {
        srv::RouterOptions options;
        options.replicas = 1;
        options.service.threads = pb::kServerWorkers;
        return options;
    }

    // Labels are handed over, then the model is re-learned and adopted
    // under the router's model write lock.
    DriftRecord adopt(std::uint64_t phase, const pb::LabelledFeedback& feedback) {
        DriftRecord record;
        record.phase = phase;
        record.handed_ns = now_ns();
        std::string text;
        record.version = router_.update_model([&](agenp::framework::AutonomousManagedSystem& ams) {
            auto start = Clock::now();
            auto outcome = ams.learn_model(feedback.positive, feedback.negative,
                                           "perfbench-phase-" + std::to_string(phase));
            record.hold_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
            record.adapted = outcome.adapted;
            record.coverage_checks = outcome.learn_result.stats.coverage_checks;
            record.search_nodes = outcome.learn_result.stats.search_nodes;
            text = ams.model().to_string();
        });
        std::lock_guard lock(mu_);
        models_[record.version] = std::move(text);
        drifts_.push_back(record);
        return record;
    }

    void operator_loop() {
        while (true) {
            std::uint64_t phase = 0;
            {
                std::unique_lock lock(mu_);
                cv_.wait(lock, [this] { return quit_ || !pending_.empty(); });
                if (quit_) return;
                phase = pending_.front();
            }
            try {
                adopt(phase, pb::labelled_feedback(*domain_, phase));
            } catch (const std::exception& e) {
                // Recorded as a drift that adopted nothing; the run then fails.
                std::fprintf(stderr, "pb_server: drift %llu failed: %s\n",
                             static_cast<unsigned long long>(phase), e.what());
                std::lock_guard lock(mu_);
                drifts_.push_back({.phase = phase, .handed_ns = now_ns()});
            }
            std::lock_guard lock(mu_);
            pending_.pop_front();
        }
    }

    std::string control(std::string_view line) {
        try {
            return control_reply(line);
        } catch (const std::exception& e) {
            return pb::JsonLine().str("error", e.what()).done();
        }
    }

    std::string control_reply(std::string_view line) {
        auto space = line.find(' ');
        std::string_view verb = line.substr(0, space);
        std::uint64_t arg = space == std::string_view::npos ? 0 : parse_u64(line.substr(space + 1));
        pb::JsonLine out;
        if (verb == "!ctx") {
            context_.set(asp::parse_program(pb::context_text(*domain_, arg)));
            out.integer("ctx", arg);
        } else if (verb == "!drift") {
            std::lock_guard lock(mu_);
            pending_.push_back(arg);
            cv_.notify_all();
            out.integer("drift", arg);
        } else if (verb == "!drifts") {
            std::lock_guard lock(mu_);
            std::string list = "[";
            for (const auto& d : drifts_) {
                if (list.size() > 1) list += ",";
                list += pb::JsonLine()
                            .integer("phase", d.phase)
                            .integer("handed_ns", d.handed_ns)
                            .integer("version", d.version)
                            .boolean("adapted", d.adapted)
                            .num("hold_ms", d.hold_ms)
                            .integer("coverage_checks", d.coverage_checks)
                            .integer("search_nodes", d.search_nodes)
                            .done();
            }
            out.raw("drifts", list + "]").integer("pending", pending_.size());
        } else if (verb == "!model") {
            std::lock_guard lock(mu_);
            auto it = models_.find(arg);
            out.integer("version", arg);
            if (it != models_.end()) out.str("text", it->second);
        } else if (verb == "!cpu") {
            out.integer("cpu_us", process_cpu_us()).integer("hwm_kb", peak_rss_kb());
        } else if (verb == "!stats") {
            auto stats = router_.snapshot_stats().total;
            out.integer("completed", stats.completed)
                .integer("overloaded", stats.rejected_overload)
                .integer("expired", stats.expired)
                .integer("cache_hits", stats.cache.hits)
                .integer("cache_misses", stats.cache.misses)
                .integer("memo_hits", stats.memo.hits)
                .integer("memo_misses", stats.memo.misses)
                .integer("memo_sat_hits", stats.memo.sat_hits)
                .integer("memo_gate_fallbacks", stats.memo.gate_fallbacks)
                .integer("monitor_capacity", pb::kMonitorCapacity);
        } else if (verb == "!flight") {
            std::string list = "[";
            for (const auto& r : router_.flight_snapshot()) {
                if (list.size() > 1) list += ",";
                list += "[" + std::to_string(r.id) + "," + std::to_string(r.queue_us) + "," +
                        std::to_string(r.solve_us) + "," + std::to_string(r.total_us) + "," +
                        (r.cache_hit ? "1" : "0") + "]";
            }
            out.raw("flight", list + "]");
        } else if (verb == "!quit") {
            std::lock_guard lock(mu_);
            quit_ = true;
            cv_.notify_all();
            out.boolean("quit", true);
        } else {
            out.str("error", "unknown control line");
        }
        return out.done();
    }

    std::shared_ptr<const pb::Domain> domain_;
    pb::ContextSource context_;
    srv::AmsRouter router_;

    std::mutex mu_;
    std::condition_variable cv_;
    bool quit_ = false;
    std::deque<std::uint64_t> pending_;
    std::vector<DriftRecord> drifts_;
    std::map<std::uint64_t, std::string> models_;
};

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string_view flag = argv[i];
        if (flag == "--seed") seed = parse_u64(argv[i + 1]);
    }
    try {
        Server server(seed);
        server.serve();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pb_server: %s\n", e.what());
        return 1;
    }
    return 0;
}
