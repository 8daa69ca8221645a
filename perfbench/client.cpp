// Single-threaded load generator, decision oracle and (with --trace 1) the
// traced replay, for one benchmark run against a running pb_server.
//
//   pb_client --port P --workload hot_zipf|churn_miss|drift_adapt --seed N
//             --seconds S --trace 0|1 [--smoke 1] [--spans PATH]
//
// Phases: warm-up (cache and monitor ring filled, server CPU per decision
// settled), the timed phase, a post-phase drift on hot_zipf and
// churn_miss, then the oracle over every timed and post-phase reply. The
// last stdout line is one JSON report that perfbench/run.py turns into the
// benchmark result.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "domain.hpp"
#include "obs/build.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "srv/wire.hpp"
#include "stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace srv = agenp::srv;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count();
}

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;
// No reply for this long while requests are outstanding: the server is
// declared hung and the run ends.
constexpr std::int64_t kStallTimeout = 10 * kSec;
// Oracle and agreement run after the traffic, while the server idles.
constexpr unsigned kCheckThreads = 4;

struct ServerLost : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// One non-blocking loopback connection with line framing.
class Conn {
public:
    explicit Conn(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) + " failed");
        }
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }
    ~Conn() {
        if (fd_ >= 0) ::close(fd_);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd() const { return fd_; }
    bool wants_write() const { return !out_.empty(); }
    void queue(std::string_view line) {
        out_.append(line);
        out_.push_back('\n');
    }
    void flush() {
        while (!out_.empty()) {
            auto n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
            if (n > 0) {
                out_.erase(0, static_cast<std::size_t>(n));
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else {
                throw ServerLost("send failed: " + std::string(std::strerror(errno)));
            }
        }
    }
    // Reads what is available and hands every complete line to `on_line`.
    template <typename F>
    void read(F&& on_line) {
        char buf[65536];
        while (true) {
            auto n = ::recv(fd_, buf, sizeof buf, 0);
            if (n > 0) {
                in_.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) throw ServerLost("server closed the connection");
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            throw ServerLost("recv failed: " + std::string(std::strerror(errno)));
        }
        std::size_t start = 0;
        while (true) {
            auto nl = in_.find('\n', start);
            if (nl == std::string::npos) break;
            on_line(std::string_view(in_).substr(start, nl - start));
            start = nl + 1;
        }
        in_.erase(0, start);
    }

private:
    int fd_ = -1;
    std::string in_;
    std::string out_;
};

std::optional<std::uint64_t> field_u64(std::string_view line, std::string_view key) {
    auto at = line.find(key);
    if (at == std::string_view::npos) return std::nullopt;
    auto p = line.data() + at + key.size();
    std::uint64_t v = 0;
    auto [end, ec] = std::from_chars(p, line.data() + line.size(), v);
    if (ec != std::errc() || end == p) return std::nullopt;
    return v;
}

enum Tag : std::uint8_t { kWarmup = 0, kTimed = 1, kPost = 2 };

struct Sent {
    std::uint32_t request = 0;
    std::uint32_t epoch = 0;
    std::int64_t due_ns = 0;  // open loop: scheduled send time; closed loop: send time
    std::int64_t sent_ns = 0;
    std::uint8_t tag = kWarmup;
    bool answered = false;
};

struct Failures {
    std::uint64_t overloaded = 0, expired = 0, other_error = 0, malformed = 0, unanswered = 0;
    [[nodiscard]] std::uint64_t total() const {
        return overloaded + expired + other_error + malformed + unanswered;
    }
};

struct PhaseStats {
    std::uint64_t sent = 0, ok = 0;
    std::int64_t last_reply_ns = 0;
    std::vector<double> latency_us;
    std::vector<double> transport_us;
    double max_lateness_ms = 0;
};

struct CpuSample {
    std::uint64_t cpu_us = 0;
    std::uint64_t hwm_kb = 0;
};

struct HostCpu {
    std::uint64_t busy = 0, steal = 0;
};

HostCpu read_host_cpu() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
    stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
    return {user + nice + system + irq + softirq + steal, steal};
}

std::string cpu_model() {
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

class Client {
public:
    Client(std::shared_ptr<const pb::Domain> domain, pb::Workload workload, std::uint64_t seed,
           std::uint16_t port, bool smoke, bool trace)
        : domain_(std::move(domain)),
          workload_(workload),
          stream_(*domain_, workload, seed),
          stream_seed_(seed),
          smoke_(smoke),
          trace_(trace),
          ctl_(port) {
        for (std::size_t i = 0; i < pb::kDataConnections; ++i) data_.push_back(std::make_unique<Conn>(port));
    }

    std::string run(double seconds, const std::string& spans_path);

private:
    // --- transport --------------------------------------------------------

    void send_request(std::uint32_t request, std::int64_t due_ns, Tag tag) {
        std::uint64_t id = sent_.size();
        std::int64_t t = now_ns();
        sent_.push_back({request, epoch_, due_ns == 0 ? t : due_ns, t, tag, false});
        std::string line = "{\"id\":" + std::to_string(id) + ",\"decide\":\"" + domain_->text[request] + "\"}";
        data_[id % data_.size()]->queue(line);
        ++outstanding_;
        if (tag == kTimed || tag == kPost) phase(tag).sent += 1;
        ++attempted_;
    }

    // Stats of the timed or post phase (warm-up replies are not timed).
    PhaseStats& phase(std::uint8_t tag) { return tag == kPost ? post_ : timed_; }

    void on_reply(std::string_view line, std::int64_t t) {
        last_progress_ns_ = t;
        auto id = field_u64(line, "\"id\":");
        if (!id || *id >= sent_.size() || sent_[*id].answered) {
            ++failures_.malformed;
            return;
        }
        Sent& s = sent_[*id];
        s.answered = true;
        --outstanding_;
        ++answered_;
        if (line.find("\"error\":") != std::string_view::npos) {
            if (line.find("\"overloaded\"") != std::string_view::npos) {
                ++failures_.overloaded;
            } else if (line.find("\"expired\"") != std::string_view::npos) {
                ++failures_.expired;
            } else {
                ++failures_.other_error;
            }
            return;
        }
        bool permit = line.find("\"outcome\":\"permit\"") != std::string_view::npos;
        bool deny = line.find("\"outcome\":\"deny\"") != std::string_view::npos;
        auto version = field_u64(line, "\"model_version\":");
        auto server_us = field_u64(line, "\"latency_us\":");
        if (permit == deny || !version || !server_us) {
            ++failures_.malformed;
            return;
        }
        if (!first_seen_ns_.contains(*version)) first_seen_ns_[*version] = t;
        current_version_ = std::max(current_version_, *version);
        if (s.tag == kWarmup) return;
        PhaseStats& p = phase(s.tag);
        p.ok += 1;
        p.last_reply_ns = t;
        p.latency_us.push_back(static_cast<double>(t - s.due_ns) / 1000.0);
        p.transport_us.push_back(static_cast<double>(t - s.sent_ns) / 1000.0 - static_cast<double>(*server_us));
        replies_.push_back({s.request, s.epoch, *version, permit});
    }

    // Waits up to `timeout_ns` for socket activity and handles every line.
    void pump(std::int64_t timeout_ns) {
        std::vector<pollfd> fds;
        auto events = [](const Conn& c) { return static_cast<short>(POLLIN | (c.wants_write() ? POLLOUT : 0)); };
        for (auto& c : data_) fds.push_back({c->fd(), events(*c), 0});
        fds.push_back({ctl_.fd(), events(ctl_), 0});
        timespec ts{static_cast<time_t>(std::max<std::int64_t>(timeout_ns, 0) / kSec),
                    static_cast<long>(std::max<std::int64_t>(timeout_ns, 0) % kSec)};
        int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (n < 0 && errno != EINTR) throw ServerLost("poll failed");
        std::int64_t t = now_ns();
        for (std::size_t i = 0; i < fds.size(); ++i) {
            Conn& c = i < data_.size() ? *data_[i] : ctl_;
            if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL) && !(fds[i].revents & POLLIN)) {
                throw ServerLost("connection error");
            }
            if (fds[i].revents & POLLOUT) c.flush();
            if (fds[i].revents & POLLIN) {
                if (i < data_.size()) {
                    c.read([&](std::string_view line) { on_reply(line, t); });
                } else {
                    c.read([&](std::string_view line) {
                        if (ctl_waiters_.empty()) return;
                        auto cb = std::move(ctl_waiters_.front());
                        ctl_waiters_.pop_front();
                        cb(line);
                    });
                }
            }
        }
        for (auto& c : data_) c->flush();
        ctl_.flush();
        if (outstanding_ > 0 && t - last_progress_ns_ > kStallTimeout) {
            throw ServerLost("no reply for " + std::to_string(kStallTimeout / kSec) + " s");
        }
    }

    // Asynchronous control line: `cb` runs with the reply line.
    void control_async(const std::string& line, std::function<void(std::string_view)> cb) {
        ctl_.queue(line);
        ctl_waiters_.push_back(std::move(cb));
        ctl_.flush();
    }

    // Synchronous control line; traffic keeps being pumped while waiting.
    std::string control(const std::string& line) {
        std::optional<std::string> reply;
        control_async(line, [&](std::string_view r) { reply = std::string(r); });
        std::int64_t deadline = now_ns() + 30 * kSec;
        while (!reply) {
            if (now_ns() > deadline) throw ServerLost("no reply to control line " + line);
            pump(50 * kMs);
        }
        return *reply;
    }

    struct ServerStats {
        std::uint64_t cache_hits = 0, cache_misses = 0, memo_hits = 0, memo_misses = 0, memo_sat_hits = 0;
    };
    ServerStats server_stats() {
        auto reply = control("!stats");
        auto get = [&](std::string_view key) { return field_u64(reply, key).value_or(0); };
        return {get("\"cache_hits\":"), get("\"cache_misses\":"), get("\"memo_hits\":"),
                get("\"memo_misses\":"), get("\"memo_sat_hits\":")};
    }

    CpuSample server_cpu() {
        auto reply = control("!cpu");
        return {field_u64(reply, "\"cpu_us\":").value_or(0), field_u64(reply, "\"hwm_kb\":").value_or(0)};
    }

    void drain(std::int64_t timeout_ns) {
        std::int64_t deadline = now_ns() + timeout_ns;
        last_progress_ns_ = now_ns();
        while (outstanding_ > 0 && now_ns() < deadline) pump(20 * kMs);
    }

    // --- traffic shapes ---------------------------------------------------

    std::uint32_t next_request() { return stream_.next(); }

    // Closed loop: keep kMaxOutstanding requests in flight until
    // `stop()`; churn switches the context epoch every 64 decisions, at a
    // quiescent point so every reply's epoch is known.
    void closed_loop(Tag tag, const std::function<bool()>& stop,
                     const std::function<std::uint32_t()>& pick = {}) {
        bool churn = workload_ == pb::Workload::ChurnMiss;
        std::int64_t freed_at = 0;
        while (!stop()) {
            std::int64_t t = now_ns();
            while (outstanding_ < pb::kMaxOutstanding && ctx_ready_ &&
                   (!churn || epoch_sent_ < pb::kChurnEpochDecisions)) {
                if (freed_at != 0 && (tag == kTimed)) {
                    double late_ms = static_cast<double>(t - freed_at) / kMs;
                    timed_.max_lateness_ms = std::max(timed_.max_lateness_ms, late_ms);
                }
                send_request(pick ? pick() : next_request(), 0, tag);
                ++epoch_sent_;
            }
            freed_at = 0;
            if (churn && epoch_sent_ >= pb::kChurnEpochDecisions && outstanding_ == 0 && ctx_ready_) {
                ctx_ready_ = false;
                std::uint32_t next = epoch_ + 1;
                control_async("!ctx " + std::to_string(next), [this, next](std::string_view) {
                    epoch_ = next;
                    epoch_sent_ = 0;
                    ctx_ready_ = true;
                });
            }
            for (auto& c : data_) c->flush();
            std::uint64_t before = answered_;
            pump(100 * kMs);
            if (answered_ != before) freed_at = now_ns();
        }
    }

    // Open loop: requests fall due at `rate` per second from `start` and are
    // timed from their due time; at most `max_outstanding` are in flight, so
    // a stalled server makes the generator late instead of overflowing the
    // server's queue. `on_tick` runs every pass (drift announcements).
    void open_loop(Tag tag, double rate, std::size_t max_outstanding, std::int64_t start, std::int64_t end,
                   const std::function<void(std::int64_t)>& on_tick,
                   const std::function<bool()>& stop_early = {}) {
        const double period_ns = 1e9 / rate;
        std::uint64_t sent = 0;
        auto due_of = [&](std::uint64_t k) {
            return start + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
        };
        while (true) {
            std::int64_t t = now_ns();
            if (t >= end || (stop_early && stop_early())) break;
            while (outstanding_ < max_outstanding && due_of(sent) <= t && due_of(sent) < end) {
                if (tag != kWarmup) {
                    phase(tag).max_lateness_ms =
                        std::max(phase(tag).max_lateness_ms, static_cast<double>(t - due_of(sent)) / kMs);
                }
                send_request(next_request(), due_of(sent), tag);
                ++sent;
            }
            on_tick(t);
            for (auto& c : data_) c->flush();
            bool capped = outstanding_ >= max_outstanding;
            pump(capped ? 100 * kMs : std::max<std::int64_t>(0, std::min(due_of(sent), end) - now_ns()));
        }
    }

    // The traffic shape of the timed phase, for `duration_ns` (warm-up
    // windows run it too, so the server settles under the load it is timed at).
    void timed_traffic(Tag tag, std::int64_t duration_ns, const std::function<void(std::int64_t)>& on_tick) {
        std::int64_t start = now_ns();
        std::int64_t end = start + duration_ns;
        switch (workload_) {
            case pb::Workload::HotZipf:
                open_loop(tag, pb::kHotRatePerSecond, pb::kMaxOutstanding, start, end, on_tick);
                break;
            case pb::Workload::ChurnMiss:
                closed_loop(tag, [&] {
                    std::int64_t t = now_ns();
                    on_tick(t);
                    return t >= end;
                });
                break;
            case pb::Workload::DriftAdapt:
                open_loop(tag, pb::kDriftRatePerSecond, pb::kDriftMaxOutstanding, start, end, on_tick);
                break;
        }
    }

    // --- phases -----------------------------------------------------------

    double warm_up();
    void flight_poll(std::int64_t t);
    void window_poll(std::int64_t t);

    std::shared_ptr<const pb::Domain> domain_;
    pb::Workload workload_;
    pb::RequestStream stream_;
    std::uint64_t stream_seed_ = 0;
    bool smoke_;
    bool trace_;
    Conn ctl_;
    std::vector<std::unique_ptr<Conn>> data_;
    std::deque<std::function<void(std::string_view)>> ctl_waiters_;

    std::vector<Sent> sent_;
    std::vector<pb::Reply> replies_;
    std::size_t outstanding_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t answered_ = 0;
    std::int64_t last_progress_ns_ = 0;
    Failures failures_;
    PhaseStats timed_, post_;
    std::map<std::uint64_t, std::int64_t> first_seen_ns_;  // model version -> first reply carrying it
    std::uint64_t current_version_ = 0;

    std::uint32_t epoch_ = 0;
    std::size_t epoch_sent_ = 0;
    bool ctx_ready_ = true;

    // Flight-recorder samples (trace runs): id -> {queue_us, service_us}.
    std::map<std::uint64_t, std::pair<double, double>> flight_;
    std::uint64_t flight_floor_ = 0;
    std::int64_t next_flight_ns_ = 0;
    bool flight_busy_ = false;
    ServerStats stats0_, stats1_;

    // Timed-phase windows: (reply time, server CPU µs, decisions so far).
    struct WindowSample {
        std::int64_t t_ns;
        std::uint64_t cpu_us;
        std::uint64_t decisions;
    };
    std::vector<WindowSample> windows_;
    std::int64_t next_window_ns_ = 0;
    bool window_busy_ = false;
};

// Fills the cache with every hot_zipf request (the whole universe) and the
// monitor ring, then runs half-second windows until the server's CPU per
// decision stops drifting (two windows within 3%, at most ten).
double Client::warm_up() {
    std::int64_t start = now_ns();
    if (workload_ == pb::Workload::HotZipf) {
        std::size_t n = smoke_ ? 2000 : domain_->universe.size();
        // Hottest ranks first, so a smoke run still warms the head.
        pb::RequestStream ranks(*domain_, pb::Workload::HotZipf, domain_->seed);
        std::vector<char> seen(domain_->universe.size(), 0);
        std::vector<std::uint32_t> order;
        for (std::size_t i = 0; order.size() < n && i < 50 * n; ++i) {
            auto r = ranks.next();
            if (!seen[r]) {
                seen[r] = 1;
                order.push_back(r);
            }
        }
        for (std::uint32_t r = 0; order.size() < n && r < seen.size(); ++r) {
            if (!seen[r]) order.push_back(r);
        }
        std::size_t next = 0;
        closed_loop(kWarmup, [&] { return next >= order.size() && outstanding_ == 0; },
                    [&] { return next < order.size() ? order[next++] : next_request(); });
        std::printf("PB_WARMUP prewarm requests=%zu seconds=%.3f\n", order.size(),
                    static_cast<double>(now_ns() - start) / kSec);
    }
    std::size_t ring = smoke_ ? 256 : pb::kMonitorCapacity;
    closed_loop(kWarmup, [&] { return attempted_ >= ring && outstanding_ == 0; });
    double previous = 0;
    int windows = smoke_ ? 1 : 10;
    for (int w = 0; w < windows; ++w) {
        auto cpu0 = server_cpu();
        std::uint64_t replies0 = answered_;
        std::int64_t window_ns = (smoke_ ? 200 : 500) * kMs;
        if (workload_ == pb::Workload::DriftAdapt) {
            // Its timed traffic is shaped by drifts; settle under a closed loop.
            std::int64_t until = now_ns() + window_ns;
            closed_loop(kWarmup, [&] { return now_ns() >= until; });
        } else {
            timed_traffic(kWarmup, window_ns, [](std::int64_t) {});
        }
        drain(kStallTimeout);
        auto cpu1 = server_cpu();
        double per = static_cast<double>(cpu1.cpu_us - cpu0.cpu_us) /
                     static_cast<double>(std::max<std::uint64_t>(1, answered_ - replies0));
        std::printf("PB_WARMUP window=%d cpu_us_per_decision=%.3f\n", w, per);
        if (previous > 0 && std::fabs(per - previous) / previous < 0.03) break;
        previous = per;
    }
    return static_cast<double>(now_ns() - start) / kSec;
}

// Samples server CPU once a second through the timed phase; the windows are
// printed as diagnostics (PB_WINDOW).
void Client::window_poll(std::int64_t t) {
    if (window_busy_ || t < next_window_ns_) return;
    next_window_ns_ = t + kSec;
    window_busy_ = true;
    control_async("!cpu", [this](std::string_view line) {
        window_busy_ = false;
        windows_.push_back({now_ns(), field_u64(line, "\"cpu_us\":").value_or(0), timed_.ok});
    });
}

void Client::flight_poll(std::int64_t t) {
    if (!trace_ || flight_busy_ || t < next_flight_ns_) return;
    next_flight_ns_ = t + 100 * kMs;
    flight_busy_ = true;
    control_async("!flight", [this](std::string_view line) {
        flight_busy_ = false;
        auto json = srv::parse_json(line);
        const srv::JsonValue* list = json ? json->find("flight") : nullptr;
        if (list == nullptr) return;
        for (const auto& r : list->array) {
            if (r.array.size() < 5) continue;
            auto id = r.array[0].as_uint();
            if (id <= flight_floor_) continue;
            double queue = r.array[1].number, total = r.array[3].number;
            flight_[id] = {queue, total - queue};
        }
    });
}

std::string Client::run(double seconds, const std::string& spans_path) {
    pb::JsonLine report;
    bool server_lost = false;
    std::string lost_reason;
    double warmup_s = 0;
    std::size_t drifts_expected = 0, drifts_adopted = 0;
    std::vector<double> adapt_s, hold_ms, agreements;
    pb::OracleReport oracle;
    bool oracle_ran = false;
    CpuSample cpu0{}, cpu1{};
    HostCpu host0{}, host1{};
    double phase_wall_s = 0;
    last_progress_ns_ = now_ns();
    std::map<std::uint64_t, std::string> models;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> adopted;  // (phase, version)

    try {
        warmup_s = warm_up();
        std::printf("PB_WARMUP done seconds=%.3f decisions=%llu\n", warmup_s,
                    static_cast<unsigned long long>(attempted_));
        if (trace_) {
            auto line = control("!flight");
            auto json = srv::parse_json(line);
            if (const auto* list = json ? json->find("flight") : nullptr) {
                for (const auto& r : list->array) {
                    if (!r.array.empty()) flight_floor_ = std::max(flight_floor_, r.array[0].as_uint());
                }
            }
        }

        // ---- timed phase ----
        stats0_ = server_stats();
        cpu0 = server_cpu();
        host0 = read_host_cpu();
        std::int64_t t0 = now_ns();
        windows_.push_back({t0, cpu0.cpu_us, 0});
        next_window_ns_ = t0 + kSec;
        std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * kSec);
        // drift_adapt announces a drift a quarter into each 2.5 s phase.
        std::size_t announced = 0;
        if (workload_ == pb::Workload::DriftAdapt) {
            drifts_expected = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / 2.5));
        }
        double phase_len =
            static_cast<double>(t_end - t0) / static_cast<double>(std::max<std::size_t>(1, drifts_expected));
        timed_traffic(kTimed, t_end - t0, [&](std::int64_t t) {
            flight_poll(t);
            window_poll(t);
            auto due = t0 + static_cast<std::int64_t>((static_cast<double>(announced) + 0.25) * phase_len);
            if (announced < drifts_expected && t >= due) {
                ++announced;
                control_async("!drift " + std::to_string(announced), [](std::string_view) {});
            }
        });
        drain(kStallTimeout);
        phase_wall_s = static_cast<double>(std::max(timed_.last_reply_ns, t_end) - t0) / kSec;
        while (window_busy_) pump(20 * kMs);
        cpu1 = server_cpu();
        host1 = read_host_cpu();
        stats1_ = server_stats();
        windows_.push_back({now_ns(), cpu1.cpu_us, timed_.ok});

        // ---- post phase: hot_zipf and churn_miss adapt once, so every
        // workload reports adaptation latency under its own traffic ----
        if (workload_ != pb::Workload::DriftAdapt) {
            drifts_expected = 1;
            std::uint64_t before = current_version_;
            control_async("!drift 1", [](std::string_view) {});
            std::int64_t deadline = now_ns() + 60 * kSec;
            closed_loop(kPost, [&] { return current_version_ > before || now_ns() > deadline; });
        } else {
            // Keep the open loop going until every drift's model has answered.
            std::int64_t deadline = now_ns() + 60 * kSec;
            std::int64_t start = now_ns();
            // Versions: the bootstrap model is 1, drift k adopts 1 + k.
            auto all_answered = [&] {
                return !first_seen_ns_.empty() && first_seen_ns_.rbegin()->first >= drifts_expected + 1;
            };
            open_loop(kPost, pb::kDriftRatePerSecond, pb::kDriftMaxOutstanding, start, deadline,
                      [](std::int64_t) {}, all_answered);
        }
        drain(kStallTimeout);

        // ---- drift records and model texts ----
        std::int64_t deadline = now_ns() + 60 * kSec;
        srv::JsonValue drifts;
        while (true) {
            auto json = srv::parse_json(control("!drifts"));
            if (!json) throw ServerLost("malformed !drifts reply");
            const auto* list = json->find("drifts");
            const auto* pending = json->find("pending");
            if (list && pending && pending->as_uint() == 0 && list->array.size() >= drifts_expected + 1) {
                drifts = *list;
                break;
            }
            if (now_ns() > deadline) throw ServerLost("drifts did not finish");
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        auto field = [](const srv::JsonValue& d, std::string_view key) {
            const srv::JsonValue* v = d.find(key);
            if (v == nullptr) throw ServerLost("drift record without " + std::string(key));
            return *v;
        };
        std::set<std::uint64_t> versions;
        for (const auto& [version, at] : first_seen_ns_) versions.insert(version);
        for (const auto& d : drifts.array) {
            auto phase_no = field(d, "phase").as_uint();
            auto version = field(d, "version").as_uint();
            bool ok = field(d, "adapted").boolean;
            versions.insert(version);
            if (phase_no == 0) continue;  // bootstrap: before the listener was up
            if (ok) {
                ++drifts_adopted;
                adopted.push_back({phase_no, version});
            }
            hold_ms.push_back(field(d, "hold_ms").number);
            auto seen = first_seen_ns_.find(version);
            if (ok && seen != first_seen_ns_.end()) {
                auto handed = static_cast<std::int64_t>(field(d, "handed_ns").as_uint());
                adapt_s.push_back(static_cast<double>(seen->second - handed) / kSec);
            }
        }
        for (auto version : versions) {
            auto json = srv::parse_json(control("!model " + std::to_string(version)));
            if (json && json->find("text")) models[version] = json->find("text")->string;
        }
        cpu1.hwm_kb = server_cpu().hwm_kb;
    } catch (const ServerLost& e) {
        server_lost = true;
        lost_reason = e.what();
        std::printf("PB_SERVER_LOST %s\n", e.what());
    }
    for (const auto& s : sent_) {
        if (!s.answered) ++failures_.unanswered;
    }
    std::fflush(stdout);

    // ---- oracle and agreement, outside the timed phase ----
    if (!server_lost) {
        std::int64_t check_start = now_ns();
        oracle = pb::check_replies(*domain_, models, replies_, kCheckThreads);
        oracle_ran = true;
        std::printf("PB_ORACLE replies=%zu distinct=%zu wrong=%zu unverifiable=%zu seconds=%.3f\n",
                    oracle.replies, oracle.distinct, oracle.wrong, oracle.unverifiable,
                    static_cast<double>(now_ns() - check_start) / kSec);
        for (const auto& s : oracle.samples) std::printf("PB_ORACLE_WRONG %s\n", s.c_str());
        for (const auto& [phase_no, version] : adopted) {
            agreements.push_back(
                pb::policy_agreement(*domain_, models.at(version), pb::truth(*domain_, phase_no), kCheckThreads));
        }
        std::printf("PB_AGREEMENT models=%zu seconds=%.3f\n", agreements.size(),
                    static_cast<double>(now_ns() - check_start) / kSec);
    }

    // ---- metrics ----
    for (std::size_t i = 1; i < windows_.size(); ++i) {
        double n = static_cast<double>(windows_[i].decisions - windows_[i - 1].decisions);
        double dt = static_cast<double>(windows_[i].t_ns - windows_[i - 1].t_ns) / kSec;
        std::printf("PB_WINDOW %zu seconds=%.3f decisions=%.0f cpu_us_per_decision=%.3f decisions_per_s=%.1f\n",
                    i, dt, n, n > 0 ? static_cast<double>(windows_[i].cpu_us - windows_[i - 1].cpu_us) / n : 0.0,
                    dt > 0 ? n / dt : 0.0);
    }
    double steal = host1.busy > host0.busy ? static_cast<double>(host1.steal - host0.steal) /
                                                 static_cast<double>(host1.busy - host0.busy)
                                           : 0.0;
    auto latency = pb::summarize_tail(timed_.latency_us);
    std::uint64_t decisions = timed_.ok;
    auto div = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    // Counter growth; 0 when the end sample is missing (the server was lost).
    auto grew = [](std::uint64_t before, std::uint64_t after) {
        return after >= before ? static_cast<double>(after - before) : 0.0;
    };
    pb::JsonLine m;
    m.num("cpu_us_per_decision", div(grew(cpu0.cpu_us, cpu1.cpu_us), static_cast<double>(decisions)))
        .num("decisions_per_s", div(static_cast<double>(decisions), phase_wall_s))

        .num("latency_p50_us", latency.p50)
        .num("latency_p99_us", latency.tail)
        .num("server_rss_mb", static_cast<double>(cpu1.hwm_kb) / 1024.0)
        .num("adapt_s", pb::median(adapt_s))
        .num("policy_agreement",
             agreements.empty() ? 0.0
                                : std::accumulate(agreements.begin(), agreements.end(), 0.0) /
                                      static_cast<double>(agreements.size()));
    // Per-layer figures the live run measures.
    std::vector<double> queue, service;
    for (const auto& [id, qs] : flight_) {
        queue.push_back(qs.first);
        service.push_back(qs.second);
    }
    std::sort(queue.begin(), queue.end());
    double hits = grew(stats0_.cache_hits, stats1_.cache_hits);
    double misses = grew(stats0_.cache_misses, stats1_.cache_misses);
    double memo_hits = grew(stats0_.memo_hits, stats1_.memo_hits);
    double memo_misses = grew(stats0_.memo_misses, stats1_.memo_misses);
    double sat_hits = grew(stats0_.memo_sat_hits, stats1_.memo_sat_hits);
    m.num("srv.transport_us", pb::median(timed_.transport_us))
        .num("srv.queue_wait_p50_us", pb::quantile_sorted(queue, 0.5))
        .num("srv.queue_wait_p99_us", pb::quantile_sorted(queue, 0.99))
        .num("srv.service_us", pb::median(service))
        .num("srv.cache_hit_ratio", div(hits, hits + misses))
        .num("asg.memo_fragment_hit_ratio", div(memo_hits, memo_hits + memo_misses))
        .num("asg.memo_verdict_hit_ratio", div(sat_hits, misses))
        .num("agenp.adopt_hold_ms", pb::median(hold_ms))
        .num("loadgen.max_lateness_ms", timed_.max_lateness_ms)
        .num("host.steal_share", steal);
    if (trace_ && !server_lost) {
        for (const auto& [name, value] : pb::run_replay(*domain_, workload_, stream_seed_, smoke_, spans_path)) {
            m.num(name, value);
        }
    }

    pb::JsonLine counts;
    counts.integer("latency", latency.samples)
        .num("latency_tail_percentile", latency.tail_percentile)
        .integer("cpu_us_per_decision", decisions)
        .integer("adapt_s", adapt_s.size())
        .integer("policy_agreement", agreements.size())
        .integer("srv.transport_us", timed_.transport_us.size())
        .integer("srv.queue_wait", queue.size())
        .integer("post_phase_decisions", post_.ok);

    std::uint64_t wrong = oracle.wrong + oracle.unverifiable;
    pb::JsonLine failures;
    failures.integer("overloaded", failures_.overloaded)
        .integer("expired", failures_.expired)
        .integer("error", failures_.other_error)
        .integer("malformed", failures_.malformed)
        .integer("unanswered", failures_.unanswered)
        .integer("wrong", wrong);

    pb::JsonLine env;
    env.integer("nproc", std::thread::hardware_concurrency())
        .str("cpu_model", cpu_model())
        .raw("build", agenp::obs::build_info_json())
        .integer("server_workers", pb::kServerWorkers)
        .integer("client_connections", pb::kDataConnections)
        .integer("control_connections", 1)
        .integer("max_outstanding",
                 workload_ == pb::Workload::DriftAdapt ? pb::kDriftMaxOutstanding : pb::kMaxOutstanding)
        .num("open_loop_rate_per_s", workload_ == pb::Workload::HotZipf ? pb::kHotRatePerSecond
                                                                        : pb::kDriftRatePerSecond)
        .integer("monitor_capacity", pb::kMonitorCapacity)
        .num("steal_share", steal);

    report.boolean("server_lost", server_lost)
        .str("lost_reason", lost_reason)
        .boolean("oracle_ran", oracle_ran)
        .integer("attempted", attempted_)
        .integer("failed", failures_.total() + wrong)
        .integer("timed_sent", timed_.sent)
        .integer("timed_ok", timed_.ok)
        .integer("post_sent", post_.sent)
        .integer("post_ok", post_.ok)
        .raw("failures", failures.done())
        .raw("oracle", pb::JsonLine()
                           .integer("replies", oracle.replies)
                           .integer("distinct", oracle.distinct)
                           .integer("wrong", oracle.wrong)
                           .integer("unverifiable", oracle.unverifiable)
                           .done())
        .integer("drifts_expected", drifts_expected)
        .integer("drifts_adopted", drifts_adopted)
        .num("warmup_s", warmup_s)
        .raw("env", env.done())
        .raw("samples", counts.done())
        .raw("metrics", m.done());
    if (!server_lost) control_async("!quit", [](std::string_view) {});
    try {
        for (int i = 0; i < 20 && !ctl_waiters_.empty(); ++i) pump(50 * kMs);
    } catch (const ServerLost&) {
        // The server closing the connection on !quit is expected.
    }
    return report.done();
}

}  // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 0;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false, smoke = false;
    std::string workload_name = "hot_zipf", spans;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string_view flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--port") {
            port = static_cast<std::uint16_t>(std::stoul(value));
        } else if (flag == "--seed") {
            seed = std::stoull(value);
        } else if (flag == "--seconds") {
            seconds = std::stod(value);
        } else if (flag == "--trace") {
            trace = value == "1";
        } else if (flag == "--smoke") {
            smoke = value == "1";
        } else if (flag == "--workload") {
            workload_name = value;
        } else if (flag == "--spans") {
            spans = value;
        } else {
            std::fprintf(stderr, "pb_client: unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    pb::Workload workload;
    if (port == 0 || !pb::parse_workload(workload_name, workload)) {
        std::fprintf(stderr,
                     "usage: pb_client --port P --workload hot_zipf|churn_miss|drift_adapt --seed N "
                     "--seconds S --trace 0|1 [--smoke 1] [--spans PATH]\n");
        return 2;
    }
    try {
        Client client(pb::make_domain(seed), workload, seed, port, smoke, trace);
        std::string report = client.run(seconds, spans);
        std::printf("%s\n", report.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pb_client: %s\n", e.what());
        return 1;
    }
    return 0;
}
