// RollingWindow + obs::Phase: bucket rotation across ring boundaries,
// empty-window quantiles, window-vs-cumulative consistency, concurrent
// writers (exercised under TSan in CI), and the sinks a Phase feeds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/window.hpp"

namespace obs = agenp::obs;
using std::chrono::seconds;

namespace {

// A local registry keeps these tests independent of everything else the
// process has instrumented.
struct WindowFixture {
    obs::MetricsRegistry registry;
    obs::WindowOptions options;
    explicit WindowFixture(std::size_t buckets = 8) { options.buckets = buckets; }
    std::function<obs::MetricsSnapshot()> source() {
        return [this] { return registry.snapshot(); };
    }
};

}  // namespace

TEST(RollingWindow, EmptyWindowBeforeAnyTick) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::WindowDelta delta = window.window_at(seconds(10), 1000);
    EXPECT_FALSE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 0.0);
    EXPECT_EQ(delta.counter("anything"), 0u);
    EXPECT_EQ(delta.histogram("anything"), nullptr);
    EXPECT_DOUBLE_EQ(delta.rate("anything"), 0.0);
}

TEST(RollingWindow, CounterDeltaAndRate) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    c.add(100);
    window.tick_at(0);
    c.add(50);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_TRUE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 10.0);
    EXPECT_EQ(delta.counter("w.requests"), 50u);
    EXPECT_DOUBLE_EQ(delta.rate("w.requests"), 5.0);
}

TEST(RollingWindow, PicksNewestBucketAtLeastSpanOld) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    // Buckets at t=0s (c=0), t=5s (c=10), t=10s (c=30).
    window.tick_at(0);
    c.add(10);
    window.tick_at(5000);
    c.add(20);
    window.tick_at(10000);
    c.add(5);
    // A 10s window at t=15s must subtract the t=5s bucket (newest >= 10s
    // old), not t=0 and not t=10s.
    obs::WindowDelta delta = window.window_at(seconds(10), 15000);
    EXPECT_TRUE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 10.0);
    EXPECT_EQ(delta.counter("w.requests"), 25u);
}

TEST(RollingWindow, BucketRotationEvictsOldestAcrossRingBoundary) {
    WindowFixture f(/*buckets=*/4);
    obs::RollingWindow window(f.source(), f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    // 10 ticks through a 4-slot ring: only t=6s..9s survive.
    for (int t = 0; t < 10; ++t) {
        window.tick_at(static_cast<std::uint64_t>(t) * 1000);
        c.add(1);
    }
    EXPECT_EQ(window.bucket_count(), 4u);
    // A 60s window at t=9.5s wants a bucket >= 60s old; the oldest left is
    // t=6s (counter was 6), so the window is marked incomplete.
    obs::WindowDelta delta = window.window_at(seconds(60), 9500);
    EXPECT_FALSE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 3.5);
    EXPECT_EQ(delta.counter("w.requests"), 4u);
}

TEST(RollingWindow, WarmupFallsBackToOldestBucket) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    window.tick_at(1000);
    c.add(7);
    // 5 minutes of history requested, 2 seconds exist.
    obs::WindowDelta delta = window.window_at(seconds(300), 3000);
    EXPECT_FALSE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 2.0);
    EXPECT_EQ(delta.counter("w.requests"), 7u);
    EXPECT_DOUBLE_EQ(delta.rate("w.requests"), 3.5);
}

TEST(RollingWindow, HistogramDeltaQuantilesReflectOnlyTheWindow) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    // Old traffic: fast requests, outside the window.
    for (int i = 0; i < 1000; ++i) h.observe(4);
    window.tick_at(0);
    // Window traffic: slow requests only.
    for (int i = 0; i < 100; ++i) h.observe(5000);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    const obs::Histogram::Snapshot* snap = delta.histogram("w.latency_us");
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->count, 100u);
    EXPECT_EQ(snap->sum, 100u * 5000u);
    // The cumulative p50 is ~4us (1000 fast vs 100 slow); the windowed p50
    // must land in the slow bucket.
    EXPECT_GT(snap->quantile(0.5), 1000.0);
    obs::Histogram::Snapshot cumulative = h.snapshot();
    EXPECT_LT(cumulative.quantile(0.5), 100.0);
}

TEST(RollingWindow, EmptyWindowHistogramHasNoQuantiles) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    for (int i = 0; i < 50; ++i) h.observe(123);
    window.tick_at(0);
    // No observations since the tick: histogram() filters count==0 deltas.
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_EQ(delta.histogram("w.latency_us"), nullptr);
    // The underlying delta row still exists with zero count.
    bool found = false;
    for (const auto& [key, snap] : delta.histograms) {
        if (key == "w.latency_us") {
            found = true;
            EXPECT_EQ(snap.count, 0u);
            EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(RollingWindow, InstrumentRegisteredMidWindowCountsFromZero) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    window.tick_at(0);
    obs::Counter& late = f.registry.counter("w.late");
    late.add(9);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_EQ(delta.counter("w.late"), 9u);
}

TEST(RollingWindow, ResetClampsToLiveValueInsteadOfWrapping) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    c.add(1000);
    window.tick_at(0);
    c.reset();
    c.add(3);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_EQ(delta.counter("w.requests"), 3u);
}

TEST(RollingWindow, WindowVsCumulativeConsistency) {
    // A window spanning the whole process lifetime must agree with the
    // cumulative registry exactly.
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    window.tick_at(0);  // before any traffic
    obs::Counter& c = f.registry.counter("w.requests");
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    for (int i = 1; i <= 500; ++i) {
        c.add(1);
        h.observe(static_cast<std::uint64_t>(i));
    }
    obs::WindowDelta delta = window.window_at(seconds(1), 60000);
    obs::Histogram::Snapshot cumulative = h.snapshot();
    EXPECT_EQ(delta.counter("w.requests"), c.value());
    const obs::Histogram::Snapshot* windowed = delta.histogram("w.latency_us");
    ASSERT_NE(windowed, nullptr);
    EXPECT_EQ(windowed->count, cumulative.count);
    EXPECT_EQ(windowed->sum, cumulative.sum);
    EXPECT_DOUBLE_EQ(windowed->quantile(0.5), cumulative.quantile(0.5));
    EXPECT_DOUBLE_EQ(windowed->quantile(0.99), cumulative.quantile(0.99));
}

TEST(RollingWindow, ConcurrentWritersAndTickers) {
    // Writers hammer instruments while a ticker rotates buckets and a
    // reader takes windows — the TSan CI job runs this for data races.
    WindowFixture f(/*buckets=*/16);
    obs::RollingWindow window(f.source(), f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    writers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                c.add(1);
                h.observe(42);
            }
        });
    }
    std::thread ticker([&] {
        for (int i = 0; i < 50; ++i) window.tick();
    });
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        obs::WindowDelta delta = window.window(seconds(1));
        std::uint64_t seen = delta.counter("w.requests");
        (void)last;
        last = seen;
    }
    ticker.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& w : writers) w.join();
    EXPECT_GE(window.bucket_count(), 1u);
}

TEST(WindowTicker, TicksAndRunsCallback) {
    WindowFixture f;
    obs::RollingWindow window(f.source(), f.options);
    std::atomic<int> callbacks{0};
    {
        obs::WindowTicker ticker(window, [&] { callbacks.fetch_add(1); });
        // Constructor tick lands immediately; destructor joins cleanly
        // even when no interval has elapsed.
        EXPECT_GE(window.bucket_count(), 1u);
    }
    SUCCEED();
}

// obs::Phase feeds the process-wide histograms; these tests read deltas
// so they stay independent of what else ran in the process.

TEST(Phase, ObservesElapsedTime) {
    obs::Histogram& hist = obs::phase_histogram(obs::PhaseId::StoreSnapshot);
    obs::Histogram::Snapshot before = hist.snapshot();
    {
        obs::Phase phase(obs::PhaseId::StoreSnapshot);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    obs::Histogram::Snapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, before.count + 1);
    EXPECT_GE(snap.sum, before.sum + 2'000'000);  // nanoseconds
    EXPECT_GE(snap.max, 2'000'000u);
}

TEST(Phase, DisabledMetricsSkipObservation) {
    obs::Histogram& hist = obs::phase_histogram(obs::PhaseId::StoreRestore);
    std::uint64_t count = hist.snapshot().count;
    obs::PhaseTimes times;
    obs::set_metrics_enabled(false);
    { obs::Phase phase(obs::PhaseId::StoreRestore); }
    {
        // A request's phase times are kept even with metrics off: the
        // flight record and the audit line depend on them.
        obs::PhaseTimesScope scope(&times);
        obs::Phase phase(obs::PhaseId::StoreRestore);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    obs::set_metrics_enabled(true);
    EXPECT_EQ(hist.snapshot().count, count);
    EXPECT_GE(times.ns[obs::phase_index(obs::PhaseId::StoreRestore)], 1'000'000u);
}
