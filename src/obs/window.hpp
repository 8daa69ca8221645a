// Rolling time-window aggregation over cumulative counts (DESIGN.md
// section 7.5).
//
// Every count a MetricsSnapshot carries is cumulative-since-process-start,
// which is the right exposition shape for Prometheus but useless for "what
// is the p95 over the last minute" on a server that has been up for a
// week. RollingWindow fixes that without touching the counters: a ticker
// captures a full snapshot from its source once per bucket interval into a
// fixed ring, and window(span) subtracts the bucket nearest `now - span`
// from a fresh snapshot. Counter deltas become windowed rates; histogram
// bucket-count deltas are themselves valid Histogram::Snapshots, so the
// existing quantile() math yields windowed p50/p95/p99 for free.
//
// The source is any function returning a MetricsSnapshot: a registry's
// snapshot(), or the serving layer's enumeration of the counts its objects
// keep (srv::serve_metrics). Windows are a read layer on top, not a new
// instrument kind. The source is never called under the window's lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace agenp::obs {

struct WindowOptions {
    std::chrono::milliseconds bucket{1000};
    // 301 one-second buckets cover the 5m window plus the partial bucket.
    std::size_t buckets = 301;
};

// The difference between a fresh snapshot and a historical bucket.
// Missing-in-base keys (instruments registered mid-window) count from
// zero; an instrument reset mid-window clamps to the live value instead
// of going negative.
struct WindowDelta {
    double seconds = 0.0;   // wall time actually covered by the delta
    bool complete = false;  // false while the ring lacks `span` of history
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

    [[nodiscard]] std::uint64_t counter(std::string_view key) const;
    // Null when the histogram saw no observations in the window.
    [[nodiscard]] const Histogram::Snapshot* histogram(std::string_view key) const;
    // counter delta / covered seconds; 0 when the window is empty.
    [[nodiscard]] double rate(std::string_view key) const;
};

class RollingWindow {
public:
    // `source` is called once per tick and once per window() read, from
    // whichever thread calls them.
    explicit RollingWindow(std::function<MetricsSnapshot()> source, WindowOptions options = {});

    // Captures one bucket stamped with the monotonic clock. Call at the
    // bucket interval (WindowTicker does); extra calls just reduce bucket
    // granularity error.
    void tick();
    // Test hook: capture a bucket at an explicit fake timestamp.
    void tick_at(std::uint64_t now_ms);

    // Delta between a fresh snapshot taken now and the newest bucket at
    // least `span` old (or the oldest available, with complete=false).
    [[nodiscard]] WindowDelta window(std::chrono::seconds span) const;
    // Test hook: same, against a fake "now" timestamp.
    [[nodiscard]] WindowDelta window_at(std::chrono::seconds span, std::uint64_t now_ms) const;

    [[nodiscard]] std::size_t bucket_count() const;  // valid buckets currently held

private:
    struct Bucket {
        std::uint64_t at_ms = 0;
        MetricsSnapshot snapshot;
        bool valid = false;
    };

    [[nodiscard]] WindowDelta window_locked(std::chrono::seconds span, std::uint64_t now_ms,
                                            MetricsSnapshot live) const REQUIRES(mu_);

    std::function<MetricsSnapshot()> source_;
    WindowOptions options_;
    mutable util::Mutex mu_;
    std::vector<Bucket> ring_ GUARDED_BY(mu_);
    std::size_t head_ GUARDED_BY(mu_) = 0;  // next slot to write
};

// Background thread that ticks a RollingWindow once per bucket interval
// and runs an optional extra callback after each tick (srv::Server runs
// its periodic work there: the window line and the snapshot). Joined on
// destruction.
class WindowTicker {
public:
    explicit WindowTicker(RollingWindow& window, std::function<void()> on_tick = {});
    ~WindowTicker();
    WindowTicker(const WindowTicker&) = delete;
    WindowTicker& operator=(const WindowTicker&) = delete;

private:
    RollingWindow& window_;
    std::function<void()> on_tick_;
    std::chrono::milliseconds interval_;
    // stop_ is atomic so the ticker loop can poll it without the lock;
    // the store still happens under mu_ so a concurrent check-then-wait
    // in the loop cannot miss the wakeup.
    std::atomic<bool> stop_{false};
    util::Mutex mu_;
    util::CondVar cv_;
    std::thread thread_;
};

}  // namespace agenp::obs
