#include "obs/window.hpp"

#include <algorithm>
#include <utility>

namespace agenp::obs {
namespace {

std::uint64_t monotonic_ms() { return monotonic_ns() / 1000000; }

// Element-wise histogram delta: live - base, clamped at zero so a reset
// instrument yields the live snapshot rather than wrapping.
Histogram::Snapshot delta_histogram(const Histogram::Snapshot& live,
                                    const Histogram::Snapshot& base) {
    if (live.count < base.count) return live;  // reset mid-window
    Histogram::Snapshot out;
    out.count = live.count - base.count;
    out.sum = live.sum >= base.sum ? live.sum - base.sum : 0;
    out.buckets.resize(live.buckets.size(), 0);
    for (std::size_t i = 0; i < live.buckets.size(); ++i) {
        std::uint64_t b = i < base.buckets.size() ? base.buckets[i] : 0;
        out.buckets[i] = live.buckets[i] >= b ? live.buckets[i] - b : 0;
    }
    // min/max of just the window are unknowable from cumulative extremes;
    // derive bounds from the occupied delta buckets (bucket i covers
    // values with bit_width == i, i.e. [2^(i-1), 2^i)).
    bool seen = false;
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
        if (out.buckets[i] == 0) continue;
        if (!seen) out.min = i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
        out.max = i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        seen = true;
    }
    return out;
}

}  // namespace

std::uint64_t WindowDelta::counter(std::string_view key) const {
    for (const auto& [name, value] : counters) {
        if (name == key) return value;
    }
    return 0;
}

const Histogram::Snapshot* WindowDelta::histogram(std::string_view key) const {
    for (const auto& [name, snap] : histograms) {
        if (name == key && snap.count > 0) return &snap;
    }
    return nullptr;
}

double WindowDelta::rate(std::string_view key) const {
    if (seconds <= 0.0) return 0.0;
    return static_cast<double>(counter(key)) / seconds;
}

RollingWindow::RollingWindow(std::function<MetricsSnapshot()> source, WindowOptions options)
    : source_(std::move(source)), options_(options) {
    options_.buckets = std::max<std::size_t>(options_.buckets, 2);
    ring_.resize(options_.buckets);
}

void RollingWindow::tick() { tick_at(monotonic_ms()); }

void RollingWindow::tick_at(std::uint64_t now_ms) {
    MetricsSnapshot snapshot = source_();
    util::MutexLock lock(mu_);
    Bucket& bucket = ring_[head_];
    bucket.at_ms = now_ms;
    bucket.snapshot = std::move(snapshot);
    bucket.valid = true;
    head_ = (head_ + 1) % ring_.size();
}

WindowDelta RollingWindow::window(std::chrono::seconds span) const {
    return window_at(span, monotonic_ms());
}

WindowDelta RollingWindow::window_at(std::chrono::seconds span, std::uint64_t now_ms) const {
    MetricsSnapshot live = source_();
    util::MutexLock lock(mu_);
    return window_locked(span, now_ms, std::move(live));
}

WindowDelta RollingWindow::window_locked(std::chrono::seconds span, std::uint64_t now_ms,
                                         MetricsSnapshot live) const {
    WindowDelta delta;
    // Base bucket: the newest capture at least `span` old — i.e. the
    // best available approximation of the state at (now - span). Fall
    // back to the oldest bucket (complete=false) during warm-up.
    const std::uint64_t span_ms = static_cast<std::uint64_t>(span.count()) * 1000;
    const Bucket* base = nullptr;
    const Bucket* oldest = nullptr;
    for (const Bucket& bucket : ring_) {
        if (!bucket.valid || bucket.at_ms > now_ms) continue;
        if (oldest == nullptr || bucket.at_ms < oldest->at_ms) oldest = &bucket;
        if (now_ms - bucket.at_ms < span_ms) continue;
        if (base == nullptr || bucket.at_ms > base->at_ms) base = &bucket;
    }
    if (base != nullptr) {
        delta.complete = true;
    } else {
        base = oldest;  // may still be null: no ticks yet -> empty window
    }
    if (base == nullptr) return delta;

    delta.seconds = static_cast<double>(now_ms - base->at_ms) / 1000.0;

    auto base_counter = [&](const std::string& key) -> std::uint64_t {
        for (const auto& [name, value] : base->snapshot.counters) {
            if (name == key) return value;
        }
        return 0;
    };
    delta.counters.reserve(live.counters.size());
    for (const auto& [key, value] : live.counters) {
        std::uint64_t b = base_counter(key);
        delta.counters.emplace_back(key, value >= b ? value - b : value);
    }

    auto base_histogram = [&](const std::string& key) -> const Histogram::Snapshot* {
        for (const auto& [name, snap] : base->snapshot.histograms) {
            if (name == key) return &snap;
        }
        return nullptr;
    };
    delta.histograms.reserve(live.histograms.size());
    for (auto& [key, snap] : live.histograms) {
        if (const Histogram::Snapshot* b = base_histogram(key); b != nullptr) {
            delta.histograms.emplace_back(key, delta_histogram(snap, *b));
        } else {
            delta.histograms.emplace_back(key, std::move(snap));
        }
    }
    return delta;
}

std::size_t RollingWindow::bucket_count() const {
    util::MutexLock lock(mu_);
    return static_cast<std::size_t>(
        std::count_if(ring_.begin(), ring_.end(), [](const Bucket& b) { return b.valid; }));
}

WindowTicker::WindowTicker(RollingWindow& window, std::function<void()> on_tick)
    : window_(window), on_tick_(std::move(on_tick)), interval_(std::chrono::seconds(1)) {
    window_.tick();  // bucket 0: the baseline every warm-up window starts from
    thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_acquire)) {
            {
                util::MutexLock lock(mu_);
                // Re-check under the lock: the destructor stores stop_
                // while holding mu_, so this check-then-wait cannot lose
                // the notify. A spurious wakeup just ticks early, which
                // only reduces bucket granularity error.
                if (!stop_.load(std::memory_order_acquire)) {
                    (void)cv_.wait_for(mu_, interval_);
                }
            }
            if (stop_.load(std::memory_order_acquire)) break;
            window_.tick();
            if (on_tick_) on_tick_();
        }
    });
}

WindowTicker::~WindowTicker() {
    {
        util::MutexLock lock(mu_);
        stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
}

}  // namespace agenp::obs
