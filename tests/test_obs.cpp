#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/lockprof.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/reqtrace.hpp"

namespace agenp::obs {
namespace {

// --- minimal JSON validator --------------------------------------------------
// Recursive-descent syntax checker, enough to assert that render_json() and
// chrome_trace_json() emit well-formed JSON without pulling in a library.

class JsonChecker {
public:
    explicit JsonChecker(std::string_view text) : text_(text) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == text_.size();
    }

private:
    bool value() {
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }

    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') { ++pos_; return true; }
            if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) return false;
                char e = text_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() || !std::isxdigit(
                                static_cast<unsigned char>(text_[pos_]))) {
                            return false;
                        }
                    }
                } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;  // unterminated
    }

    bool number() {
        std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        return pos_ > start;
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view text) { return JsonChecker(text).valid(); }

// Busy-wait so span durations are real elapsed time (sleep granularity on
// loaded CI machines would make the self-time assertions flaky).
void spin_for_us(std::uint64_t us) {
    std::uint64_t end = monotonic_ns() + us * 1000;
    while (monotonic_ns() < end) {
    }
}

// --- instruments -------------------------------------------------------------

TEST(Counter, AddAndReset) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, CountSumMinMax) {
    Histogram h;
    auto empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.min, 0u);
    EXPECT_EQ(empty.max, 0u);
    EXPECT_EQ(empty.mean(), 0.0);

    h.observe(3);
    h.observe(900);
    h.observe(17);
    auto s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 920u);
    EXPECT_EQ(s.min, 3u);
    EXPECT_EQ(s.max, 900u);
    EXPECT_NEAR(s.mean(), 920.0 / 3.0, 1e-9);

    h.reset();
    EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(Histogram, QuantilesOfConstantStream) {
    Histogram h;
    for (int i = 0; i < 10; ++i) h.observe(100);
    auto s = h.snapshot();
    // min == max == 100 clips the bucket interpolation to the exact value.
    EXPECT_EQ(s.quantile(0.0), 100.0);
    EXPECT_EQ(s.quantile(0.5), 100.0);
    EXPECT_EQ(s.quantile(1.0), 100.0);
}

TEST(Histogram, QuantilesAreOrderedAndBounded) {
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
    auto s = h.snapshot();
    double p10 = s.quantile(0.10);
    double p50 = s.quantile(0.50);
    double p99 = s.quantile(0.99);
    EXPECT_LE(p10, p50);
    EXPECT_LE(p50, p99);
    EXPECT_GE(p10, static_cast<double>(s.min));
    EXPECT_LE(p99, static_cast<double>(s.max));
    // Exponential buckets are coarse, but the median of 1..1000 should land
    // within its bucket [256, 511].
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 512.0);
}

TEST(Histogram, ZeroAndHugeValuesDoNotClip) {
    Histogram h;
    h.observe(0);
    h.observe(~std::uint64_t{0});
    auto s = h.snapshot();
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, ~std::uint64_t{0});
}

// Pins the quantile estimator shared by the loadgen report and the
// server-side latency summaries (LoadgenReport::fill_latency): both must
// keep quoting the same numbers for the same stream. If the estimator
// changes intentionally, update these values in one place here.
TEST(Histogram, QuantilePinning) {
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
    auto s = h.snapshot();
    // Linear interpolation inside the bit-width bucket that holds the
    // requested rank (uniform 1..1000: within ~1% of the exact ranks).
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 499.544921875);
    EXPECT_DOUBLE_EQ(s.quantile(0.95), 949.15419222903881);
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 989.0324744376278);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 999.00204498977507);
    EXPECT_DOUBLE_EQ(s.mean(), 500.5);
}

// --- metric naming -----------------------------------------------------------

TEST(Naming, ValidMetricNames) {
    EXPECT_TRUE(valid_metric_name("srv.requests"));
    EXPECT_TRUE(valid_metric_name("asp.solver.decisions"));
    EXPECT_TRUE(valid_metric_name("x"));
    EXPECT_TRUE(valid_metric_name("a_b.c_d9"));
    EXPECT_TRUE(valid_metric_name("_private.ok"));
    EXPECT_FALSE(valid_metric_name(""));
    EXPECT_FALSE(valid_metric_name("."));
    EXPECT_FALSE(valid_metric_name("srv."));
    EXPECT_FALSE(valid_metric_name(".srv"));
    EXPECT_FALSE(valid_metric_name("srv..requests"));
    EXPECT_FALSE(valid_metric_name("srv.9starts_with_digit"));
    EXPECT_FALSE(valid_metric_name("srv.queue-depth"));  // '-' breaks Prometheus names
    EXPECT_FALSE(valid_metric_name("srv.queue depth"));
    EXPECT_FALSE(valid_metric_name("srv.queue[0]"));
}

TEST(Naming, ValidLabelKeys) {
    EXPECT_TRUE(valid_label_key("replica"));
    EXPECT_TRUE(valid_label_key("shard_id"));
    EXPECT_TRUE(valid_label_key("_le"));
    EXPECT_FALSE(valid_label_key(""));
    EXPECT_FALSE(valid_label_key("9replica"));
    EXPECT_FALSE(valid_label_key("lock.name"));  // dots are for metric names only
    EXPECT_FALSE(valid_label_key("a-b"));
}

TEST(Naming, MetricKeyRoundTrips) {
    std::string name;
    MetricLabels labels;

    // Bare name.
    ASSERT_TRUE(parse_metric_key("srv.requests", &name, &labels));
    EXPECT_EQ(name, "srv.requests");
    EXPECT_TRUE(labels.empty());

    // Labeled, including a value that needs escaping.
    MetricLabels in{{"replica", "0"}, {"lock", "srv.model \"x\""}};
    std::string key = metric_key("srv.router.queue_depth", in);
    ASSERT_TRUE(parse_metric_key(key, &name, &labels));
    EXPECT_EQ(name, "srv.router.queue_depth");
    EXPECT_EQ(labels, in);

    // Malformed encodings are rejected, not half-parsed.
    EXPECT_FALSE(parse_metric_key("srv.x{", &name, &labels));
    EXPECT_FALSE(parse_metric_key("srv.x{replica=0}", &name, &labels));
    EXPECT_FALSE(parse_metric_key("srv.x{replica=\"0\"", &name, &labels));
    EXPECT_FALSE(parse_metric_key("{replica=\"0\"}", &name, &labels));
}

TEST(Naming, LabeledRegistrationIsPerLabelSet) {
    MetricsRegistry r;
    Counter& a = r.counter("srv.test.labeled", {{"replica", "0"}});
    Counter& b = r.counter("srv.test.labeled", {{"replica", "1"}});
    Counter& bare = r.counter("srv.test.labeled");
    EXPECT_NE(&a, &b);
    EXPECT_NE(&a, &bare);
    EXPECT_EQ(&a, &r.counter("srv.test.labeled", {{"replica", "0"}}));
    a.add(5);
    b.add(7);

    // The snapshot keys are metric_key() encodings that exporters can
    // split back into (name, labels).
    auto snap = r.snapshot();
    std::size_t found = 0;
    for (const auto& [key, value] : snap.counters) {
        std::string name;
        MetricLabels labels;
        ASSERT_TRUE(parse_metric_key(key, &name, &labels)) << key;
        if (name != "srv.test.labeled" || labels.empty()) continue;
        ++found;
        if (labels == MetricLabels{{"replica", "0"}}) {
            EXPECT_EQ(value, 5u);
        }
        if (labels == MetricLabels{{"replica", "1"}}) {
            EXPECT_EQ(value, 7u);
        }
    }
    EXPECT_EQ(found, 2u);
}

// --- registry ----------------------------------------------------------------

TEST(Registry, SameNameReturnsSameInstrument) {
    MetricsRegistry r;
    EXPECT_EQ(&r.counter("a"), &r.counter("a"));
    EXPECT_NE(&r.counter("a"), &r.counter("b"));
    // Counter and histogram namespaces are independent.
    EXPECT_EQ(&r.histogram("a"), &r.histogram("a"));
}

TEST(Registry, ReferencesSurviveLaterRegistrations) {
    MetricsRegistry r;
    Counter& first = r.counter("stable");
    first.add(5);
    // Register enough names to force rebalancing in a node-unstable container.
    for (int i = 0; i < 200; ++i) r.counter("filler." + std::to_string(i));
    EXPECT_EQ(&r.counter("stable"), &first);
    EXPECT_EQ(first.value(), 5u);
}

TEST(Registry, ConcurrentIncrementsAreExact) {
    MetricsRegistry r;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&r] {
            // Lookup inside the loop exercises concurrent registration too.
            for (std::uint64_t i = 0; i < kPerThread; ++i) r.counter("shared").add();
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(r.counter("shared").value(), kThreads * kPerThread);
}

TEST(Registry, ConcurrentHistogramObservations) {
    MetricsRegistry r;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 10'000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&r] {
            Histogram& h = r.histogram("lat");
            for (std::uint64_t i = 1; i <= kPerThread; ++i) h.observe(i);
        });
    }
    for (auto& w : workers) w.join();
    auto s = r.histogram("lat").snapshot();
    EXPECT_EQ(s.count, kThreads * kPerThread);
    EXPECT_EQ(s.sum, kThreads * (kPerThread * (kPerThread + 1) / 2));
    EXPECT_EQ(s.min, 1u);
    EXPECT_EQ(s.max, kPerThread);
}

TEST(Registry, RenderTextListsInstruments) {
    MetricsRegistry r;
    r.counter("alpha.count").add(3);
    r.histogram("gamma.time_us").observe(10);
    auto text = r.render_text();
    EXPECT_NE(text.find("alpha.count"), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
    EXPECT_NE(text.find("gamma.time_us"), std::string::npos);
    EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(Registry, RenderJsonIsWellFormed) {
    MetricsRegistry r;
    EXPECT_TRUE(is_valid_json(r.render_json())) << r.render_json();
    r.counter("c.one").add(1);
    r.histogram("h.one").observe(42);
    r.counter("weird \"name\"\\with\nescapes").add(9);
    auto json = r.render_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"c.one\":1"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(Registry, ResetZeroesButKeepsNames) {
    MetricsRegistry r;
    r.counter("keep").add(11);
    r.histogram("keep_us").observe(5);
    r.reset();
    EXPECT_EQ(r.counter("keep").value(), 0u);
    EXPECT_EQ(r.histogram("keep_us").snapshot().count, 0u);
    auto s = r.snapshot();
    ASSERT_EQ(s.counters.size(), 1u);
    EXPECT_EQ(s.counters[0].first, "keep");
}

TEST(Registry, GlobalRegistryIsASingleton) {
    EXPECT_EQ(&metrics(), &metrics());
}

TEST(Metrics, DisabledPhaseSkipsHistogram) {
    Histogram& h = phase_histogram(PhaseId::CfgParse);
    std::uint64_t before = h.snapshot().count;
    set_metrics_enabled(false);
    { Phase phase(PhaseId::CfgParse); }
    set_metrics_enabled(true);
    EXPECT_EQ(h.snapshot().count, before);
    { Phase phase(PhaseId::CfgParse); }
    EXPECT_EQ(h.snapshot().count, before + 1);
}

// --- tracing -----------------------------------------------------------------

TEST(Trace, DisabledRecorderCapturesNothing) {
    TraceContext ctx(1);  // never installed on this thread
    { Phase phase(PhaseId::AsgMembership); }
    EXPECT_TRUE(ctx.spans().empty());
    EXPECT_EQ(current_trace(), nullptr);
}

TEST(Trace, SpanNestingAndSelfTime) {
    TraceContext ctx(1);
    {
        TraceContextScope scope(&ctx);
        Phase outer(PhaseId::AsgMembership);
        spin_for_us(2000);
        {
            Phase inner(PhaseId::AspSolve);
            spin_for_us(2000);
        }
        spin_for_us(1000);
    }

    const auto& spans = ctx.spans();
    ASSERT_EQ(spans.size(), 2u);
    // Spans open at entry: outer first, inner second.
    const auto& outer = spans[0];
    const auto& inner = spans[1];
    EXPECT_EQ(outer.phase, PhaseId::AsgMembership);
    EXPECT_EQ(inner.phase, PhaseId::AspSolve);
    EXPECT_EQ(outer.parent, -1);
    EXPECT_EQ(inner.parent, 0);

    // The child lies inside the parent on the timeline.
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.start_ns + inner.duration_ns, outer.start_ns + outer.duration_ns);

    // Self time excludes the child: ~3ms of the outer ~5ms.
    EXPECT_EQ(inner.self_ns(), inner.duration_ns);
    EXPECT_EQ(outer.child_ns, inner.duration_ns);
    EXPECT_EQ(outer.self_ns(), outer.duration_ns - inner.duration_ns);
    EXPECT_GE(outer.self_ns(), 2'900'000u);
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
    TraceContext ctx(3);
    {
        TraceContextScope scope(&ctx);
        Phase a(PhaseId::PdpDecide);
        Phase b(PhaseId::AsgMembership);
        spin_for_us(100);
    }

    auto json = ctx.chrome_trace_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("agenp.pdp.decide"), std::string::npos);
}

TEST(Trace, FlatProfileAggregatesByName) {
    TraceContext ctx(1);
    {
        TraceContextScope scope(&ctx);
        Phase outer(PhaseId::IlpLearn);
        for (int i = 0; i < 3; ++i) {
            Phase phase(PhaseId::AspSolve);
            spin_for_us(200);
        }
    }

    auto profile = ctx.flat_profile();
    auto line_of = [&](std::string_view name) {
        std::size_t at = profile.find(name);
        EXPECT_NE(at, std::string::npos) << profile;
        return profile.substr(at, profile.find('\n', at) - at);
    };
    unsigned long long calls = 0, total_us = 0, self_us = 0;
    ASSERT_EQ(std::sscanf(line_of("asp.solve").c_str(), "asp.solve %llu %llu %llu", &calls,
                          &total_us, &self_us),
              3);
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(self_us, total_us);  // leaf spans: all self time
    ASSERT_EQ(std::sscanf(line_of("ilp.learn").c_str(), "ilp.learn %llu %llu %llu", &calls,
                          &total_us, &self_us),
              3);
    EXPECT_EQ(calls, 1u);
    EXPECT_LT(self_us, total_us);  // the three children are not self time
}

// --- lock-contention profiler ---

TEST(LockProf, UncontendedLockCountsNoContention) {
    ProfiledMutex mu("test.lockprof.quiet");
    locks().get("test.lockprof.quiet").reset();
    for (int i = 0; i < 10; ++i) {
        std::lock_guard guard(mu);
    }
    EXPECT_EQ(mu.stats().acquisitions(), 10u);
    EXPECT_EQ(mu.stats().contentions(), 0u);
    EXPECT_EQ(mu.stats().wait_us().count, 0u);
}

TEST(LockProf, EightThreadHammerCountsEveryAcquisition) {
    ProfiledMutex mu("test.lockprof.hot");
    locks().get("test.lockprof.hot").reset();
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 200;
    std::uint64_t shared = 0;  // mutated under mu: TSan cross-checks the wrapper
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                std::lock_guard guard(mu);
                ++shared;
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(shared, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    EXPECT_EQ(mu.stats().acquisitions(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    // Every contended acquisition contributes one wait-time sample. (How
    // many there are depends on the scheduler; the deterministic test
    // below pins down that contended acquisitions are in fact recorded.)
    EXPECT_EQ(mu.stats().wait_us().count, mu.stats().contentions());
}

TEST(LockProf, BlockedAcquisitionIsRecordedAsContended) {
    ProfiledMutex mu("test.lockprof.blocked");
    locks().get("test.lockprof.blocked").reset();
    // Retry until the waiter demonstrably lost the fast path: the release
    // is delayed until after the waiter announces it is about to lock, but
    // a loaded scheduler can still slip the unlock in first, so one round
    // is not guaranteed to contend.
    for (int attempt = 0; attempt < 100 && mu.stats().contentions() == 0; ++attempt) {
        std::atomic<bool> holder_ready{false};
        std::atomic<bool> waiter_at_lock{false};
        std::atomic<bool> release{false};
        std::thread holder([&] {
            std::lock_guard guard(mu);
            holder_ready.store(true);
            while (!release.load()) {
                std::this_thread::yield();
            }
        });
        while (!holder_ready.load()) {
            std::this_thread::yield();
        }
        std::thread waiter([&] {
            waiter_at_lock.store(true);
            std::lock_guard guard(mu);  // holder owns the lock: slow path
        });
        while (!waiter_at_lock.load()) {
            std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        release.store(true);
        waiter.join();
        holder.join();
    }
    EXPECT_GT(mu.stats().contentions(), 0u);
    EXPECT_EQ(mu.stats().wait_us().count, mu.stats().contentions());
    EXPECT_GT(mu.stats().acquisitions(), mu.stats().contentions());
}

TEST(LockProf, SharedMutexCountsSharedAndExclusive) {
    ProfiledSharedMutex mu("test.lockprof.shared");
    locks().get("test.lockprof.shared").reset();
    {
        std::shared_lock r1(mu);
        std::shared_lock r2(mu);  // concurrent readers both count
    }
    {
        std::unique_lock w(mu);
    }
    EXPECT_EQ(mu.stats().acquisitions(), 3u);
}

TEST(LockProf, SameNameAggregatesAcrossMutexes) {
    locks().get("test.lockprof.pool").reset();
    ProfiledMutex a("test.lockprof.pool");
    ProfiledMutex b("test.lockprof.pool");
    { std::lock_guard ga(a); }
    { std::lock_guard gb(b); }
    EXPECT_EQ(locks().get("test.lockprof.pool").acquisitions(), 2u);
}

TEST(LockOrder, RankTableMatchesDesignDoc) {
    EXPECT_EQ(lock_rank_of("srv.model").rank, 10);
    EXPECT_EQ(lock_rank_of("srv.cache_shard").rank, 20);
    EXPECT_EQ(lock_rank_of("asg.memo").rank, 25);
    EXPECT_EQ(lock_rank_of("srv.audit").rank, 40);
    EXPECT_EQ(lock_rank_of("srv.conn.outbox").rank, 50);
    EXPECT_EQ(lock_rank_of("symbol.intern").rank, 60);
    EXPECT_EQ(lock_rank_of("test.lockprof.unranked").rank, 0);  // exempt
}

TEST(LockOrder, SilentWhenHierarchyRespected) {
    bool prev = lock_order_checking_enabled();
    set_lock_order_checking(true);
    ProfiledSharedMutex model("srv.model");
    ProfiledMutex shard("srv.cache_shard");
    ProfiledMutex audit("srv.audit");
    {
        // Rising ranks under the model lock: a cache shard, then a leaf.
        ProfiledReadLock m(model);
        { ProfiledMutexLock s(shard); }
        { ProfiledMutexLock a(audit); }
    }
    {
        // Unranked locks may interleave anywhere.
        ProfiledMutex local("test.lockprof.unranked");
        ProfiledMutexLock a(audit);
        ProfiledMutexLock l(local);
    }
    set_lock_order_checking(prev);
}

TEST(LockOrder, TryLockBackOffIsExempt) {
    bool prev = lock_order_checking_enabled();
    set_lock_order_checking(true);
    ProfiledMutex shard("srv.cache_shard");
    ProfiledSharedMutex model("srv.model");
    {
        ProfiledMutexLock s(shard);
        // Inverted rank via try_lock: legal, because a failed try_lock
        // backs off instead of blocking — no deadlock cycle possible.
        ASSERT_TRUE(model.try_lock());
        model.unlock();
    }
    set_lock_order_checking(prev);
}

TEST(LockOrderDeathTest, AbortsOnBlockingInversion) {
    EXPECT_DEATH(
        {
            set_lock_order_checking(true);
            ProfiledMutex shard("srv.cache_shard");
            ProfiledSharedMutex model("srv.model");
            ProfiledMutexLock s(shard);
            ProfiledReadLock m(model);  // rank 10 while holding rank 20
        },
        "lock-order inversion");
}

TEST(LockOrderDeathTest, SharedAcquisitionsParticipate) {
    EXPECT_DEATH(
        {
            set_lock_order_checking(true);
            ProfiledMutex intern("symbol.intern");
            ProfiledMutex shard("srv.cache_shard");
            ProfiledMutexLock i(intern);
            ProfiledMutexLock s(shard);  // rank 20 while holding rank 60
        },
        "lock-order inversion");
}

TEST(LockProf, DisabledStillLocksButRecordsNothing) {
    ProfiledMutex mu("test.lockprof.off");
    locks().get("test.lockprof.off").reset();
    set_lock_profiling_enabled(false);
    {
        std::lock_guard guard(mu);
        EXPECT_FALSE(mu.try_lock());  // mutual exclusion unaffected
    }
    set_lock_profiling_enabled(true);
    EXPECT_EQ(mu.stats().acquisitions(), 0u);
}

TEST(LockProf, RegistryJsonIsWellFormed) {
    ProfiledMutex mu("test.lockprof.json");
    { std::lock_guard guard(mu); }
    std::string json = locks().render_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"test.lockprof.json\""), std::string::npos);
    EXPECT_NE(json.find("\"acquisitions\""), std::string::npos);
    EXPECT_NE(json.find("\"wait_us_p99\""), std::string::npos);
}

TEST(LockProf, SnapshotFindsNamedLock) {
    ProfiledMutex mu("test.lockprof.snap");
    locks().get("test.lockprof.snap").reset();
    { std::lock_guard guard(mu); }
    bool found = false;
    for (const auto& snap : locks().snapshot()) {
        if (snap.name != "test.lockprof.snap") continue;
        found = true;
        EXPECT_EQ(snap.acquisitions, 1u);
        EXPECT_EQ(snap.contentions, 0u);
        EXPECT_EQ(snap.contention_rate(), 0.0);
    }
    EXPECT_TRUE(found);
}

// --- request-scoped tracing ---

TEST(ReqTrace, SpanTreeRecordsParentLinks) {
    TraceContext ctx(7);
    auto root = ctx.begin_span(PhaseId::SrvRequest, 100);
    auto queue = ctx.begin_span(PhaseId::SrvQueueWait, 100);
    ctx.end_span(queue, 200);
    auto solve = ctx.begin_span(PhaseId::SrvSolve, 200);
    auto ground = ctx.begin_span(PhaseId::AspGround, 250);
    ctx.end_span(ground, 300);
    ctx.end_span(solve, 400);
    ctx.end_span(root, 500);

    ASSERT_EQ(ctx.spans().size(), 4u);
    EXPECT_EQ(ctx.trace_id(), 7u);
    EXPECT_EQ(ctx.spans()[root].parent, -1);
    EXPECT_EQ(ctx.spans()[queue].parent, static_cast<std::int32_t>(root));
    EXPECT_EQ(ctx.spans()[solve].parent, static_cast<std::int32_t>(root));
    EXPECT_EQ(ctx.spans()[ground].parent, static_cast<std::int32_t>(solve));
    EXPECT_EQ(ctx.find("srv.solve"), solve);
    EXPECT_EQ(ctx.find("asp.solve"), TraceContext::npos);
}

TEST(ReqTrace, DurationsNestMonotonically) {
    TraceContext ctx(1);
    auto root = ctx.begin_span(PhaseId::SrvRequest, monotonic_ns());
    auto inner = ctx.begin_span(PhaseId::SrvSolve, monotonic_ns());
    spin_for_us(200);
    ctx.end_span(inner, monotonic_ns());
    ctx.end_span(root, monotonic_ns());
    EXPECT_GT(ctx.spans()[inner].duration_us(), 0u);
    EXPECT_GE(ctx.spans()[root].duration_ns, ctx.spans()[inner].duration_ns);
    EXPECT_EQ(ctx.total_us(), ctx.spans()[root].duration_us());
}

TEST(ReqTrace, ScopeInstallsAndRestoresThreadLocal) {
    EXPECT_EQ(current_trace(), nullptr);
    TraceContext outer(1), inner(2);
    {
        TraceContextScope outer_scope(&outer);
        EXPECT_EQ(current_trace(), &outer);
        {
            TraceContextScope inner_scope(&inner);
            EXPECT_EQ(current_trace(), &inner);
        }
        EXPECT_EQ(current_trace(), &outer);
    }
    EXPECT_EQ(current_trace(), nullptr);
    // Another thread starts with no context even while this one has one.
    TraceContextScope scope(&outer);
    TraceContext* seen = &outer;
    std::thread([&] { seen = current_trace(); }).join();
    EXPECT_EQ(seen, nullptr);
}

TEST(ReqTrace, PhaseWithoutContextIsANoOp) {
    { Phase phase(PhaseId::SrvSolve); }  // no context installed: must not crash
    TraceContext ctx(3);
    {
        TraceContextScope scope(&ctx);
        Phase live(PhaseId::SrvSolve);
    }
    ASSERT_EQ(ctx.spans().size(), 1u);
    EXPECT_EQ(phase_name(ctx.spans()[0].phase), "srv.solve");
}

TEST(ReqTrace, ChromeTraceJsonCarriesTraceIdLanes) {
    TraceContext a(11), b(12);
    a.end_span(a.begin_span(PhaseId::SrvRequest, 1'000), 2'000);
    b.end_span(b.begin_span(PhaseId::SrvRequest, 1'500), 2'500);
    std::string json = chrome_trace_json({&a, &b});
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"tid\":11"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":12"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace agenp::obs
