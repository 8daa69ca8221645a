// Serving layer: sharded versioned decision cache, concurrent decision
// service, closed-loop load generator (DESIGN.md section 8).
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asg/membership.hpp"
#include "asp/parser.hpp"
#include "obs/phase.hpp"
#include "random_asg.hpp"
#include "srv/audit.hpp"
#include "srv/loadgen.hpp"
#include "srv/router.hpp"
#include "srv/service.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"
#include "util/rng.hpp"

namespace agenp::srv {
namespace {

using namespace std::chrono_literals;

CacheKey key_for(const std::string& request, const std::string& context = "") {
    return DecisionCache::make_key(cfg::tokenize(request), asp::parse_program(context));
}

ServiceOptions service_options(std::size_t threads, std::size_t queue_capacity = 1024,
                               bool use_cache = true) {
    ServiceOptions options;
    options.threads = threads;
    options.queue_capacity = queue_capacity;
    options.use_cache = use_cache;
    return options;
}

TEST(DecisionCache, KeySeparatesRequestAndContext) {
    auto a = key_for("do patrol", "maxloa(3).");
    auto b = key_for("do patrol", "maxloa(4).");
    auto c = key_for("do strike", "maxloa(3).");
    std::set<std::string> texts = {a.text, b.text, c.text};
    EXPECT_EQ(texts.size(), 3u);
    // Same inputs -> same key.
    EXPECT_EQ(a.text, key_for("do patrol", "maxloa(3).").text);
    EXPECT_EQ(a.hash, key_for("do patrol", "maxloa(3).").hash);
}

TEST(DecisionCache, MissInsertHit) {
    DecisionCache cache;
    auto key = key_for("do patrol");
    EXPECT_FALSE(cache.lookup(key, 1).has_value());
    cache.insert(key, 1, true);
    auto hit = cache.lookup(key, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(*hit);
    auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(DecisionCache, HashCollisionMissesNeverAnswersWrong) {
    // The index is keyed on the 64-bit hash. A key sharing another's hash
    // (forged here; nothing is evicted, so its text is never re-hashed)
    // must miss, and inserting it replaces the other entry.
    DecisionCache cache;
    auto real = key_for("do patrol");
    CacheKey forged{real.hash, "do strike\x1f"};
    cache.insert(real, 1, true);
    EXPECT_FALSE(cache.lookup(forged, 1).has_value());
    cache.insert(forged, 1, false);
    EXPECT_FALSE(cache.lookup(real, 1).has_value());
    auto hit = cache.lookup(forged, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(*hit);
    auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.insertions, 2u);
}

TEST(DecisionCache, VersionBumpInvalidatesWithoutFlush) {
    DecisionCache cache;
    auto stale = key_for("do patrol");
    auto fresh = key_for("do observe");
    cache.insert(stale, 1, true);
    cache.insert(fresh, 2, false);
    // Model moved to v2: v1 entry misses and is lazily evicted; the v2
    // entry is untouched (no global flush).
    EXPECT_FALSE(cache.lookup(stale, 2).has_value());
    EXPECT_TRUE(cache.lookup(fresh, 2).has_value());
    auto stats = cache.stats();
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(DecisionCache, LruEvictsOldestAtCapacity) {
    CacheOptions options;
    options.shards = 1;  // deterministic LRU order
    options.capacity_bytes = 400;
    DecisionCache cache(options);
    // Each entry costs ~64 + key bytes, so ~5 entries fit.
    for (int i = 0; i < 32; ++i) {
        cache.insert(key_for("req " + std::to_string(i)), 1, true);
    }
    auto stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LT(stats.entries, 32u);
    EXPECT_LE(stats.bytes, 400u);
    // The newest entry survived; the oldest was evicted.
    EXPECT_TRUE(cache.lookup(key_for("req 31"), 1).has_value());
    EXPECT_FALSE(cache.lookup(key_for("req 0"), 1).has_value());
}

TEST(DecisionCache, TouchedEntrySurvivesEviction) {
    CacheOptions options;
    options.shards = 1;
    options.capacity_bytes = 400;
    DecisionCache cache(options);
    cache.insert(key_for("hot"), 1, true);
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(cache.lookup(key_for("hot"), 1).has_value()) << "evicted after " << i;
        cache.insert(key_for("filler " + std::to_string(i)), 1, false);
    }
}

TEST(DecisionCache, BudgetCountsWhatEntriesAllocate) {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
    // stats().bytes is what capacity_bytes caps, so it must follow the heap
    // the entries hold: for keys as short as a relevant context's and as
    // long as a whole perfbench-sized context's.
    auto heap_bytes = [] {
        struct mallinfo2 info = mallinfo2();
        return static_cast<double>(info.uordblks + info.hblkhd);
    };
    for (std::size_t context_chars : {80, 600}) {
        std::string context;
        for (int i = 0; context.size() < context_chars; ++i) {
            context += "fact(" + std::to_string(i) + "). ";
        }
        auto parsed = asp::parse_program(context);
        // Keys are made first: tokenizing interns every request's words.
        std::vector<CacheKey> keys;
        keys.reserve(20000);
        for (int i = 0; i < 20000; ++i) {
            keys.push_back(DecisionCache::make_key(cfg::tokenize("do task_" + std::to_string(i)), parsed));
        }
        CacheOptions options;
        options.capacity_bytes = std::size_t{1} << 30;
        DecisionCache cache(options);
        double before = heap_bytes();
        for (const auto& key : keys) cache.insert(key, 1, true);
        double grown = heap_bytes() - before;
        if (grown <= 0) GTEST_SKIP() << "the allocator reports no heap growth (sanitizer build)";
        auto charged = static_cast<double>(cache.stats().bytes);
        EXPECT_NEAR(grown, charged, 0.15 * charged)
            << context_chars << "-char contexts: " << grown / 20000 << " bytes allocated per entry, "
            << charged / 20000 << " charged";
        if (context_chars == 80) {
            // 91-95-char keys: a 64-byte list node (the key string and one
            // packed version/verdict word), a 32-byte index node keyed on
            // the key's hash, a bucket slot and a 112-byte text block.
            EXPECT_EQ(cache.stats().bytes, 216u * 20000u);
        }
    }
#else
    GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

TEST(DecisionCache, ConcurrentHammering) {
    DecisionCache cache(CacheOptions{.capacity_bytes = 1 << 16, .shards = 8});
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    std::atomic<std::uint64_t> observed_hits{0}, observed_misses{0}, wrong{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            util::Rng rng(static_cast<std::uint64_t>(t) + 1);
            for (int i = 0; i < kOpsPerThread; ++i) {
                int id = static_cast<int>(rng.uniform(0, 63));
                bool expected = id % 2 == 0;
                auto key = key_for("req " + std::to_string(id));
                if (auto hit = cache.lookup(key, 1)) {
                    observed_hits.fetch_add(1);
                    if (*hit != expected) wrong.fetch_add(1);
                } else {
                    observed_misses.fetch_add(1);
                    cache.insert(key, 1, expected);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(observed_hits.load() + observed_misses.load(),
              static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    auto stats = cache.stats();
    EXPECT_EQ(stats.hits, observed_hits.load());
    EXPECT_EQ(stats.misses, observed_misses.load());
    EXPECT_LE(stats.entries, 64u);
}

// Submits through the callback, the one way a decision leaves a
// DecisionService or an AmsRouter, and returns a future the callback
// resolves.
template <typename Service>
std::future<Decision> submit(Service& service, cfg::TokenString request,
                             SubmitOptions options = {}) {
    auto done = std::make_shared<std::promise<Decision>>();
    std::future<Decision> decision = done->get_future();
    service.submit(
        std::move(request), [done](const Decision& d) { done->set_value(d); }, options);
    return decision;
}

// --- service fixtures ---

// Permits "do task_i" iff i % 5 + 1 <= 3 under the demo maxloa(3) context.
bool demo_expected(std::size_t task) { return task % 5 + 1 <= 3; }

TEST(DecisionService, DecidesCorrectlyAndCaches) {
    auto ams = make_demo_ams(6, /*context_weight=*/0);
    DecisionService service(ams, service_options(2));
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < 6; ++i) {
            Decision d = submit(service, cfg::tokenize("do task_" + std::to_string(i))).get();
            EXPECT_EQ(d.permitted(), demo_expected(i)) << "task_" << i;
            EXPECT_EQ(d.cache_hit, round == 1) << "task_" << i;
        }
    }
    auto stats = service.snapshot_stats();
    EXPECT_EQ(stats.completed, 12u);
    EXPECT_EQ(stats.cache.hits, 6u);
    EXPECT_EQ(stats.cache.misses, 6u);
}

TEST(DecisionService, SubmitBatchAndDrain) {
    auto ams = make_demo_ams(4, /*context_weight=*/0);
    DecisionService service(ams, service_options(4));
    std::vector<cfg::TokenString> requests;
    for (int i = 0; i < 40; ++i) {
        requests.push_back(cfg::tokenize("do task_" + std::to_string(i % 4)));
    }
    std::vector<std::future<Decision>> futures;
    for (auto& request : requests) futures.push_back(submit(service, std::move(request)));
    service.drain();
    auto stats = service.snapshot_stats();
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.completed + stats.rejected_overload + stats.expired, 40u);
    for (auto& f : futures) {
        EXPECT_TRUE(f.wait_for(0s) == std::future_status::ready);
        (void)f.get();
    }
}

TEST(DecisionService, BackpressureRejectsWhenQueueFull) {
    auto ams = make_demo_ams(64, /*context_weight=*/0);
    // One slow worker + a 2-deep queue: flooding must shed load. Distinct
    // requests, so every one misses the cache and is queued work.
    ams.pep().set_effector([](const cfg::TokenString&, bool) { std::this_thread::sleep_for(2ms); });
    DecisionService service(ams, service_options(1, /*queue_capacity=*/2));
    std::vector<std::future<Decision>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(submit(service, cfg::tokenize("do task_" + std::to_string(i))));
    }
    std::size_t overloaded = 0, decided = 0;
    for (auto& f : futures) {
        if (f.get().outcome == Outcome::Overloaded) {
            ++overloaded;
        } else {
            ++decided;
        }
    }
    EXPECT_GT(overloaded, 0u);
    EXPECT_GT(decided, 0u);
    auto stats = service.snapshot_stats();
    EXPECT_EQ(stats.rejected_overload, overloaded);
    EXPECT_EQ(stats.completed, decided);
}

TEST(DecisionService, DeadlineExpiresWhileQueued) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    ams.pep().set_effector([](const cfg::TokenString&, bool) { std::this_thread::sleep_for(20ms); });
    DecisionService service(ams, service_options(1));
    // First request occupies the worker for 20ms; the second's 1ms deadline
    // lapses in the queue.
    auto blocker = submit(service, cfg::tokenize("do task_0"));
    auto doomed = submit(service, cfg::tokenize("do task_1"), {.timeout = 1ms});
    EXPECT_NE(blocker.get().outcome, Outcome::Expired);
    Decision d = doomed.get();
    EXPECT_EQ(d.outcome, Outcome::Expired);
    EXPECT_EQ(service.snapshot_stats().expired, 1u);
}

TEST(DecisionService, ThrowingDecisionRepliesErrorAndWorkerKeepsServing) {
    // "big" derives three atoms that its constraint reads against a
    // one-atom grounding limit, so its membership check throws
    // asp::GroundingError; "small" fits the limit (nothing reads its fact).
    framework::AmsOptions ams_options;
    ams_options.membership.grounding.max_atoms = 1;
    framework::AutonomousManagedSystem ams(
        "limits",
        asg::AnswerSetGrammar::parse(
            "request -> \"big\" { a. b. ok :- a, b. :- not ok. }\nrequest -> \"small\" { a. }\n"),
        ilp::HypothesisSpace{}, ams_options);
    DecisionService service(ams, service_options(1));

    Decision failed = submit(service, cfg::tokenize("big")).get();
    EXPECT_EQ(failed.outcome, Outcome::Error);
    WireRequest request;
    request.has_id = true;
    request.id = 7;
    EXPECT_EQ(wire_decision_json(request, failed),
              R"({"id":7,"error":"internal","message":"grounding exceeded max_atoms limit"})");

    // The one worker survived and decides the next request.
    EXPECT_EQ(submit(service, cfg::tokenize("small")).get().outcome, Outcome::Permit);
    ServiceStats stats = service.snapshot_stats();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.cache.insertions, 1u);  // the failure was not cached
}

TEST(DecisionService, ModelAdoptionInvalidatesByVersion) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    DecisionService service(ams, service_options(2));
    Decision before = submit(service, cfg::tokenize("do task_0")).get();
    EXPECT_TRUE(before.permitted());
    EXPECT_TRUE(submit(service, cfg::tokenize("do task_0")).get().cache_hit);

    // Adopt a stricter model (everything requires clearance 5) with the
    // service running; version stamping must retire the old entries.
    service.update_model([&] {
        std::string text = "request -> \"do\" task { :- requires(L)@2, maxloa(M), L > M. }\n";
        text += "task -> \"task_0\" { requires(5). }\n";
        text += "task -> \"task_1\" { requires(5). }\n";
        ams.representations().store(asg::AnswerSetGrammar::parse(text), "test-adoption");
    });

    Decision after = submit(service, cfg::tokenize("do task_0")).get();
    EXPECT_FALSE(after.cache_hit);  // old entry is stale, not served
    EXPECT_FALSE(after.permitted());
    EXPECT_GT(after.model_version, before.model_version);
    // And the new verdict is itself cached.
    Decision again = submit(service, cfg::tokenize("do task_0")).get();
    EXPECT_TRUE(again.cache_hit);
    EXPECT_FALSE(again.permitted());
    EXPECT_GE(service.cache().stats().invalidations, 1u);
}

TEST(DecisionService, MissQueuedAcrossAnAdoptionIsSlicedUnderTheNewModel) {
    // B is probed under v, whose model reads no `grounded` fact, so its
    // relevant context and key lack grounded(drone). It is decided after v'
    // adds `:- grounded(drone).`: the worker must probe it again under v'.
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    ams.pip().add_source("fleet", [] { return asp::parse_program("grounded(drone)."); });
    DecisionService service(ams, service_options(1));

    // Park the only worker in A's completion callback, outside every lock.
    // The park ends by itself after 5 s, so a failure cannot hang the test.
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<Decision> parked;
    std::future<Decision> a = parked.get_future();
    service.submit(cfg::tokenize("do task_1"), [&](const Decision& decision) {
        entered.set_value();
        (void)released.wait_for(5s);
        parked.set_value(decision);
    });
    entered.get_future().wait();

    std::future<Decision> b = submit(service, cfg::tokenize("do task_0"));
    EXPECT_EQ(b.wait_for(0s), std::future_status::timeout);  // probed under v, queued
    std::uint64_t v = ams.model_version();
    service.update_model([&] {
        auto grounded = asp::parse_program(":- grounded(drone).").rules()[0];
        ams.representations().store(ams.model().with_rules({{grounded, 0}}), "test-adoption");
    });
    release.set_value();

    Decision decision = b.get();
    a.get();
    EXPECT_GT(decision.model_version, v);
    EXPECT_FALSE(decision.cache_hit);
    bool expected = asg::in_language(ams.model(), cfg::tokenize("do task_0"), ams.pip().gather());
    EXPECT_FALSE(expected);
    EXPECT_EQ(decision.outcome, Outcome::Deny);
}

TEST(DecisionService, CacheHitCompletesInsideSubmit) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    DecisionService service(ams, service_options(1));
    Decision miss = submit(service, cfg::tokenize("do task_0")).get();
    ASSERT_FALSE(miss.cache_hit);

    // The hit is answered on this thread: the callback has run, and
    // resolved the future, before submit() returns.
    std::atomic<bool> completed{false};
    std::atomic<bool> on_caller{false};
    std::promise<Decision> done;
    std::future<Decision> future = done.get_future();
    service.submit(cfg::tokenize("do task_0"),
                   [&, caller = std::this_thread::get_id()](const Decision& decision) {
                       on_caller.store(std::this_thread::get_id() == caller);
                       completed.store(true);
                       done.set_value(decision);
                   });
    EXPECT_TRUE(completed.load());
    EXPECT_TRUE(on_caller.load());
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(service.queue_depth(), 0u);

    Decision hit = future.get();
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_TRUE(hit.permitted());
    EXPECT_EQ(hit.model_version, miss.model_version);
    // Still flight-recorded like a worker's decision.
    std::optional<FlightRecord> record;
    for (const FlightRecord& r : service.flight().snapshot()) {
        if (r.id == hit.trace_id) record = r;
    }
    ASSERT_TRUE(record.has_value());
    EXPECT_TRUE(record->cache_hit);
    EXPECT_EQ(record->outcome, static_cast<std::uint8_t>(Outcome::Permit));
    EXPECT_EQ(record->queue_us, 0u);

    ServiceStats stats = service.snapshot_stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cache.hits, 1u);
    EXPECT_EQ(stats.cache.misses, 1u);
    EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(DecisionService, ServedDecisionsLeaveTheAmsMonitorEmpty) {
    // The served history is the flight ring (and the audit log): neither a
    // worker's miss nor an inline hit writes the AMS's PAdaP monitor.
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    DecisionService service(ams, service_options(1));
    Decision miss = submit(service, cfg::tokenize("do task_0")).get();
    Decision hit = submit(service, cfg::tokenize("do task_0")).get();
    ASSERT_FALSE(miss.cache_hit);
    ASSERT_TRUE(hit.cache_hit);

    EXPECT_EQ(ams.monitor().total_recorded(), 0u);
    std::vector<FlightRecord> flight = service.flight().snapshot();
    ASSERT_EQ(flight.size(), 2u);
    EXPECT_EQ(flight[0].id, miss.trace_id);
    EXPECT_FALSE(flight[0].cache_hit);
    EXPECT_EQ(flight[1].id, hit.trace_id);
    EXPECT_TRUE(flight[1].cache_hit);
}

TEST(DecisionService, HitDuringAdoptionQueuesInsteadOfBlocking) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    DecisionService service(ams, service_options(1));
    Decision before = submit(service, cfg::tokenize("do task_0")).get();

    // Park an adoption inside the model write lock. The park ends by
    // itself after 5 s, so a submit that waited for the lock fails the
    // timing check below instead of hanging the test.
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::thread adopter([&] {
        service.update_model([&] {
            entered.set_value();
            (void)released.wait_for(5s);
            ams.representations().store(ams.model(), "adoption under test");
        });
    });
    entered.get_future().wait();

    auto start = std::chrono::steady_clock::now();
    std::future<Decision> future = submit(service, cfg::tokenize("do task_0"));
    auto submit_time = std::chrono::steady_clock::now() - start;
    EXPECT_LT(submit_time, 2s);
    // Queued, not answered: the worker needs the model lock too.
    EXPECT_EQ(future.wait_for(0s), std::future_status::timeout);
    release.set_value();
    adopter.join();

    Decision after = future.get();
    EXPECT_EQ(after.model_version, before.model_version + 1);
    EXPECT_FALSE(after.cache_hit);  // the old version's entry is stale
    EXPECT_TRUE(after.permitted());
}

TEST(DecisionService, HitIsAnsweredWhenQueueIsFull) {
    auto ams = make_demo_ams(4, /*context_weight=*/0);
    // task_1 parks the one worker inside the PEP until released (or for
    // 10 s, so a failed assertion cannot leave the destructor waiting).
    std::promise<void> parked;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    ams.pep().set_effector([&parked, released](const cfg::TokenString& request, bool) {
        if (cfg::detokenize(request) != "do task_1") return;
        parked.set_value();
        (void)released.wait_for(10s);
    });
    auto service = std::make_unique<DecisionService>(ams, service_options(1, /*queue_capacity=*/1));
    DecisionService* running = service.get();
    ASSERT_TRUE(submit(*running, cfg::tokenize("do task_0")).get().permitted());

    std::future<Decision> slow = submit(*running, cfg::tokenize("do task_1"));
    parked.get_future().wait();
    std::future<Decision> queued = submit(*running, cfg::tokenize("do task_2"));
    EXPECT_EQ(running->queue_depth(), 1u);
    // The queue is full: another miss is shed, the cached request is not.
    EXPECT_EQ(submit(*running, cfg::tokenize("do task_3")).get().outcome, Outcome::Overloaded);
    std::future<Decision> hit = submit(*running, cfg::tokenize("do task_0"));
    ASSERT_EQ(hit.wait_for(0s), std::future_status::ready);
    Decision answered = hit.get();
    EXPECT_EQ(answered.outcome, Outcome::Permit);
    EXPECT_TRUE(answered.cache_hit);

    // Once the service is stopping (its destructor waits for the parked
    // worker), even a cached request is refused.
    std::thread stopper([&service] { service.reset(); });
    Outcome outcome = Outcome::Permit;
    for (int i = 0; i < 5000 && outcome != Outcome::Overloaded; ++i) {
        outcome = submit(*running, cfg::tokenize("do task_0")).get().outcome;
        if (outcome != Outcome::Overloaded) std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(outcome, Outcome::Overloaded);
    release.set_value();
    stopper.join();
    // The stopping service still finishes the work it had accepted.
    EXPECT_EQ(slow.get().outcome, Outcome::Permit);
    EXPECT_EQ(queued.get().outcome, Outcome::Permit);
}

TEST(DecisionService, CacheOffEquivalence) {
    // The same randomized request stream must produce identical decisions
    // with the cache enabled and disabled.
    util::Rng rng(7);
    std::vector<cfg::TokenString> stream;
    for (int i = 0; i < 120; ++i) {
        stream.push_back(cfg::tokenize("do task_" + std::to_string(rng.uniform(0, 9))));
    }
    std::vector<bool> with_cache, without_cache;
    for (bool use_cache : {true, false}) {
        auto ams = make_demo_ams(10, /*context_weight=*/0);
        DecisionService service(ams, service_options(4, 1024, use_cache));
        std::vector<std::future<Decision>> futures;
        futures.reserve(stream.size());
        for (const auto& r : stream) futures.push_back(submit(service, r));
        for (auto& f : futures) {
            (use_cache ? with_cache : without_cache).push_back(f.get().permitted());
        }
    }
    EXPECT_EQ(with_cache, without_cache);
}

TEST(DecisionService, MemoOffEquivalence) {
    // The grounding memo must never change a decision: the same stream
    // with the memo on and off, decision cache disabled so every request
    // takes the miss path the memo accelerates.
    util::Rng rng(11);
    std::vector<cfg::TokenString> stream;
    for (int i = 0; i < 80; ++i) {
        stream.push_back(cfg::tokenize("do task_" + std::to_string(rng.uniform(0, 9))));
    }
    std::vector<bool> with_memo, without_memo;
    for (bool use_memo : {true, false}) {
        auto ams = make_demo_ams(10, /*context_weight=*/0);
        ServiceOptions options = service_options(4, 1024, /*use_cache=*/false);
        options.use_memo = use_memo;
        DecisionService service(ams, options);
        std::vector<std::future<Decision>> futures;
        futures.reserve(stream.size());
        for (const auto& r : stream) futures.push_back(submit(service, r));
        for (auto& f : futures) {
            (use_memo ? with_memo : without_memo).push_back(f.get().permitted());
        }
        ServiceStats stats = service.snapshot_stats();
        if (use_memo) {
            EXPECT_GT(stats.memo.hits + stats.memo.misses, 0u);
            EXPECT_GT(stats.memo.sat_hits, 0u);  // repeats served by verdict
        } else {
            EXPECT_EQ(stats.memo.hits + stats.memo.misses, 0u);
        }
    }
    EXPECT_EQ(with_memo, without_memo);
}

TEST(DecisionService, MemoEpochFollowsModelAdoption) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    ServiceOptions options = service_options(2, 1024, /*use_cache=*/false);
    options.use_memo = true;  // off by default
    DecisionService service(ams, options);
    ASSERT_NE(service.grounding_memo(), nullptr);
    EXPECT_TRUE(submit(service, cfg::tokenize("do task_0")).get().permitted());
    EXPECT_EQ(service.grounding_memo()->epoch(), ams.model_version());

    service.update_model([&] {
        std::string text = "request -> \"do\" task { :- requires(L)@2, maxloa(M), L > M. }\n";
        text += "task -> \"task_0\" { requires(5). }\n";
        text += "task -> \"task_1\" { requires(5). }\n";
        ams.representations().store(asg::AnswerSetGrammar::parse(text), "test-adoption");
    });
    // The memo epoch tracked the version bump, so entries grounded under
    // the old model cannot be served for the new one.
    EXPECT_EQ(service.grounding_memo()->epoch(), ams.model_version());
    EXPECT_FALSE(submit(service, cfg::tokenize("do task_0")).get().permitted());
    // Under the new model the request re-grounds (stale entries invalidate
    // lazily) and the fresh verdict is correct on the repeat too.
    EXPECT_FALSE(submit(service, cfg::tokenize("do task_0")).get().permitted());
}

TEST(ConcurrentSubmitters, MemoOnAgainstSharedMemo) {
    // TSan-relevant: many workers decide through one sharded memo while
    // the decision cache is off, so every request exercises probe/insert.
    auto ams = make_demo_ams(8, /*context_weight=*/0);
    ServiceOptions options = service_options(4, 1 << 14, /*use_cache=*/false);
    options.use_memo = true;  // off by default
    DecisionService service(ams, options);
    constexpr int kClients = 8;
    constexpr int kPerClient = 100;
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            util::Rng rng(static_cast<std::uint64_t>(c) + 300);
            for (int i = 0; i < kPerClient; ++i) {
                auto task = static_cast<std::size_t>(rng.uniform(0, 7));
                Decision d =
                    submit(service, cfg::tokenize("do task_" + std::to_string(task))).get();
                if (d.permitted() != demo_expected(task)) wrong.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0u);
    ServiceStats stats = service.snapshot_stats();
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients) * kPerClient);
    EXPECT_GT(stats.memo.sat_hits, 0u);
}

TEST(DecisionService, ConcurrentSubmittersAgainstOneCache) {
    auto ams = make_demo_ams(8, /*context_weight=*/0);
    DecisionService service(ams, service_options(4, 1 << 14));
    constexpr int kClients = 8;
    constexpr int kPerClient = 150;
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            util::Rng rng(static_cast<std::uint64_t>(c) + 100);
            for (int i = 0; i < kPerClient; ++i) {
                auto task = static_cast<std::size_t>(rng.uniform(0, 7));
                Decision d =
                    submit(service, cfg::tokenize("do task_" + std::to_string(task))).get();
                if (d.permitted() != demo_expected(task)) wrong.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0u);
    auto stats = service.snapshot_stats();
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients) * kPerClient);
    EXPECT_GT(stats.cache.hits, 0u);
}

// Served ≡ plain ≡ repository over the seeded random grammars of
// tests/random_asg.hpp. Each string goes through a DecisionService's
// callback twice, a miss and then a cache hit, and once through a service
// over an AMS that decides by its refreshed policy repository. All three
// must give plain membership's verdict (asg::in_language), the
// repository too: a complete one by lookup, a truncated one (a budget, or
// a form cut at max_length) by falling back to membership for what it
// does not hold.
TEST(DecisionService, ServedMatchesPlainMembershipAndTheRepository) {
    using namespace random_asg;
    framework::AmsOptions repository_options;
    repository_options.strategy = framework::DecisionStrategy::Repository;
    cfg::GenerateOptions& enumeration = repository_options.prep.language.enumeration;
    // Short enough that Earley never meets a long string of an ambiguous
    // grammar; the strings below have at most seven tokens.
    enumeration.max_length = 8;
    enumeration.max_strings = 64;
    enumeration.max_expansions = 4000;
    util::Rng rng(29);
    std::size_t cases = 0, permits = 0, denies = 0, truncated_cases = 0;
    for (int grammar_index = 0; grammar_index < 40; ++grammar_index) {
        std::string text;
        std::vector<Production> productions = random_grammar(rng, text);
        auto grammar = asg::AnswerSetGrammar::parse(text);
        std::set<std::string> strings;  // distinct, so each first submit misses
        for (int i = 0; i < 4; ++i) {
            std::string s;
            if (i % 2 == 1 || !derive(rng, productions, 0, 0, s)) s = random_string(rng);
            strings.insert(s);
        }
        for (int c = 0; c < 3; ++c) {
            std::string context_text = random_context(rng);
            auto context = asp::parse_program(context_text);
            framework::AutonomousManagedSystem plain("plain", grammar, ilp::HypothesisSpace{});
            framework::AutonomousManagedSystem repository("repository", grammar,
                                                          ilp::HypothesisSpace{}, repository_options);
            plain.pip().add_source("context", [&context] { return context; });
            repository.pip().add_source("context", [&context] { return context; });
            const bool truncated = repository.refresh_policies().truncated;
            DecisionService served(plain, service_options(1));
            DecisionService from_repository(repository, service_options(1));
            for (const std::string& s : strings) {
                cfg::TokenString tokens = cfg::tokenize(s);
                const Outcome expected =
                    asg::in_language(grammar, tokens, context) ? Outcome::Permit : Outcome::Deny;
                const std::string where = "grammar " + std::to_string(grammar_index) + " '" + s +
                                          "' under " + context_text + "\n" + text;
                ++cases;
                ++(expected == Outcome::Permit ? permits : denies);
                Decision miss = submit(served, tokens).get();
                EXPECT_FALSE(miss.cache_hit) << where;
                EXPECT_EQ(miss.outcome, expected) << where;
                Decision hit = submit(served, tokens).get();
                EXPECT_TRUE(hit.cache_hit) << where;
                EXPECT_EQ(hit.outcome, expected) << where;
                if (truncated) ++truncated_cases;
                EXPECT_EQ(submit(from_repository, tokens).get().outcome, expected)
                    << "repository (truncated " << truncated << "): " << where;
            }
        }
    }
    std::printf("served differential: %zu cases, %zu permits, %zu denies, %zu through a "
                "truncated repository\n",
                cases, permits, denies, truncated_cases);
    EXPECT_GT(permits, 0u);
    EXPECT_GT(denies, 0u);
    // Both repository paths, lookup and fallback, are exercised.
    EXPECT_GT(truncated_cases, 0u);
    EXPECT_LT(truncated_cases, cases);
}

TEST(Loadgen, ReportIsConsistentAndJsonWellFormed) {
    auto ams = make_demo_ams(6, /*context_weight=*/0);
    DecisionService service(ams, service_options(2));
    LoadgenOptions options;
    options.clients = 3;
    options.requests_per_client = 40;
    auto report = run_loadgen(service, demo_workload(6), options);
    EXPECT_EQ(report.requests, 120u);
    EXPECT_EQ(report.permitted + report.denied + report.overloaded + report.expired, 120u);
    EXPECT_GT(report.throughput_rps, 0.0);
    EXPECT_GE(report.p99_us, report.p50_us);
    EXPECT_GT(report.hit_rate, 0.0);
    auto json = report.to_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    for (const char* field : {"\"requests\":", "\"throughput_rps\":", "\"p50_us\":",
                              "\"p99_us\":", "\"hit_rate\":"}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
}

// --- flight recorder ---

TEST(FlightRecorder, WraparoundKeepsNewestWithMonotoneIds) {
    FlightRecorder ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (std::uint64_t i = 1; i <= 20; ++i) {
        FlightRecord r;
        r.id = i;
        r.total_us = i * 10;
        ring.record(r);
    }
    EXPECT_EQ(ring.total_recorded(), 20u);
    auto records = ring.snapshot();
    ASSERT_EQ(records.size(), 8u);
    // The ring retains exactly the newest 8, oldest first.
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].id, 13 + i);
        EXPECT_EQ(records[i].total_us, (13 + i) * 10);
        if (i > 0) {
            EXPECT_GT(records[i].id, records[i - 1].id);
        }
    }
}

TEST(FlightRecorder, SnapshotNeverMixesFieldsOfTwoRecords) {
    FlightRecorder ring(16);
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 2000;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    std::atomic<bool> stop{false};
    // Writers emit records whose fields are all derived from one value, so
    // any torn read surfaces as an internally inconsistent record.
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                std::uint64_t v = static_cast<std::uint64_t>(t) * kOpsPerThread + i + 1;
                FlightRecord r;
                r.id = v;
                r.queue_us = v * 2;
                r.solve_us = v * 3;
                r.total_us = v * 5;
                ring.record(r);
            }
        });
    }
    std::size_t snapshots_taken = 0;
    while (!stop.load()) {
        for (const auto& r : ring.snapshot()) {
            EXPECT_EQ(r.queue_us, r.id * 2);
            EXPECT_EQ(r.solve_us, r.id * 3);
            EXPECT_EQ(r.total_us, r.id * 5);
        }
        ++snapshots_taken;
        if (ring.total_recorded() >= static_cast<std::uint64_t>(kThreads) * kOpsPerThread) {
            stop.store(true);
        }
    }
    for (auto& w : writers) w.join();
    EXPECT_GT(snapshots_taken, 0u);
    EXPECT_EQ(ring.total_recorded(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(FlightRecorder, JsonLinesRenderOnePerRecord) {
    FlightRecorder ring(4);
    FlightRecord r;
    r.id = 9;
    r.outcome = 1;
    r.cache_hit = true;
    ring.record(r);
    std::string lines = ring.render_json_lines();
    EXPECT_NE(lines.find("\"id\":9"), std::string::npos);
    EXPECT_NE(lines.find("\"cache_hit\":true"), std::string::npos);
}

TEST(DecisionService, FlightRingSeesEveryRequest) {
    auto ams = make_demo_ams(4, /*context_weight=*/0);
    ServiceOptions options = service_options(2);
    options.flight_capacity = 64;
    DecisionService service(ams, options);
    std::vector<std::future<Decision>> futures;
    for (int i = 0; i < 20; ++i) {
        futures.push_back(submit(service, cfg::tokenize("do task_" + std::to_string(i % 4))));
    }
    std::set<std::uint64_t> decision_ids;
    for (auto& f : futures) decision_ids.insert(f.get().trace_id);
    service.drain();
    EXPECT_EQ(service.flight().total_recorded(), 20u);
    std::set<std::uint64_t> recorded_ids;
    for (const auto& r : service.flight().snapshot()) recorded_ids.insert(r.id);
    // Every decision's trace id has a flight record.
    for (auto id : decision_ids) EXPECT_TRUE(recorded_ids.count(id)) << id;
}

// --- tail-based trace capture ---

TEST(DecisionService, SampledCaptureProducesSpanTree) {
    auto ams = make_demo_ams(4, /*context_weight=*/0);
    ServiceOptions options = service_options(2, 1024, /*use_cache=*/false);
    options.use_memo = false;  // keep the full ground+solve path in every trace
    options.trace.sample_every = 1;  // capture everything
    options.trace.max_captured = 64;
    DecisionService service(ams, options);
    std::vector<std::future<Decision>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(submit(service, cfg::tokenize("do task_" + std::to_string(i % 4))));
    }
    std::set<std::uint64_t> decision_ids;
    for (auto& f : futures) decision_ids.insert(f.get().trace_id);
    service.drain();

    auto captured = service.captured_traces();
    ASSERT_EQ(captured.size(), 8u);
    for (const auto& c : captured) {
        EXPECT_EQ(c.reason, "sample");
        EXPECT_TRUE(decision_ids.count(c.trace_id())) << c.trace_id();
        // The acceptance shape: a queue-wait span and a solve span in the
        // same trace, parented under the root request span.
        const auto& spans = c.trace.spans();
        auto root = c.trace.find("srv.request");
        auto queue = c.trace.find("srv.queue_wait");
        auto solve = c.trace.find("srv.solve");
        ASSERT_NE(root, obs::TraceContext::npos);
        ASSERT_NE(queue, obs::TraceContext::npos);
        ASSERT_NE(solve, obs::TraceContext::npos);
        EXPECT_EQ(spans[root].parent, -1);
        EXPECT_EQ(spans[queue].parent, static_cast<std::int32_t>(root));
        EXPECT_EQ(spans[solve].parent, static_cast<std::int32_t>(root));
        // Cache off: the solve path reaches membership and the solver.
        EXPECT_NE(c.trace.find("asg.membership"), obs::TraceContext::npos);
        EXPECT_NE(c.trace.find("asp.solve"), obs::TraceContext::npos);
        EXPECT_GT(c.trace.total_us(), 0u);
    }
    EXPECT_EQ(service.snapshot_stats().traces_captured, 8u);

    std::string json = service.captured_traces_json();
    EXPECT_NE(json.find("srv.queue_wait"), std::string::npos);
    EXPECT_NE(json.find("srv.solve"), std::string::npos);
}

TEST(DecisionService, SlowThresholdKeepsOnlySlowRequests) {
    auto ams = make_demo_ams(4, /*context_weight=*/0);
    // Threshold far above anything the demo domain can take: tracing runs,
    // nothing is kept.
    ServiceOptions options = service_options(2);
    options.trace.slow_threshold_us = 60'000'000;
    DecisionService service(ams, options);
    for (int i = 0; i < 8; ++i) {
        submit(service, cfg::tokenize("do task_" + std::to_string(i % 4)));
    }
    service.drain();
    EXPECT_EQ(service.captured_traces().size(), 0u);
    EXPECT_EQ(service.snapshot_stats().traces_captured, 0u);

    // Threshold of 1us: every request is "slow".
    ServiceOptions eager = service_options(2);
    eager.trace.slow_threshold_us = 1;
    eager.trace.max_captured = 16;
    DecisionService eager_service(ams, eager);
    std::vector<std::future<Decision>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(submit(eager_service, cfg::tokenize("do task_" + std::to_string(i % 4))));
    }
    for (auto& f : futures) f.get();
    eager_service.drain();
    auto captured = eager_service.captured_traces();
    ASSERT_GT(captured.size(), 0u);
    for (const auto& c : captured) EXPECT_EQ(c.reason, "slow");
}

TEST(DecisionService, CapturedStoreStaysBounded) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    ServiceOptions options = service_options(2);
    options.trace.sample_every = 1;
    options.trace.max_captured = 4;
    DecisionService service(ams, options);
    for (int i = 0; i < 32; ++i) {
        submit(service, cfg::tokenize("do task_" + std::to_string(i % 2)));
    }
    service.drain();
    auto captured = service.captured_traces();
    EXPECT_EQ(captured.size(), 4u);
    // Captures are stored in completion order (not id order — workers
    // finish out of order); the bounded store keeps distinct requests.
    std::set<std::uint64_t> ids;
    for (const auto& c : captured) {
        EXPECT_GE(c.trace_id(), 1u);
        EXPECT_LE(c.trace_id(), 32u);
        ids.insert(c.trace_id());
    }
    EXPECT_EQ(ids.size(), 4u);
    EXPECT_EQ(service.snapshot_stats().traces_captured, 32u);
}

TEST(DecisionService, TracingOffAllocatesNoContexts) {
    auto ams = make_demo_ams(2, /*context_weight=*/0);
    DecisionService service(ams, service_options(2));  // trace knobs at zero
    auto decision = submit(service, cfg::tokenize("do task_0")).get();
    service.drain();
    EXPECT_GT(decision.trace_id, 0u);  // ids are assigned regardless
    EXPECT_EQ(service.captured_traces().size(), 0u);
}

TEST(DecisionService, TraceFlightAuditAndHistogramsAgreePerRequest) {
    // One Phase measurement feeds every surface: a captured trace's
    // queue-wait and solve spans, the flight record and the audit line
    // report the same microseconds, every per-request phase histogram
    // counts each request once, cache hit or miss, and the srv.request
    // histogram sums the untruncated nanoseconds the flight records
    // truncate. The second round is submitted after the first drained,
    // so every request in it is a hit answered inside submit().
    constexpr obs::PhaseId kPerRequest[] = {
        obs::PhaseId::SrvRequest, obs::PhaseId::SrvQueueWait, obs::PhaseId::SrvContext,
        obs::PhaseId::SrvSolve, obs::PhaseId::SrvCacheProbe};
    std::vector<std::uint64_t> before;
    for (obs::PhaseId id : kPerRequest) before.push_back(obs::phase_histogram(id).snapshot().count);
    const std::uint64_t request_ns_before =
        obs::phase_histogram(obs::PhaseId::SrvRequest).snapshot().sum;

    std::string audit_path = std::string(::testing::TempDir()) + "/agenp_srv_consistency.ndjson";
    std::remove(audit_path.c_str());
    constexpr std::size_t kPerRound = 16;
    constexpr std::size_t kRequests = 2 * kPerRound;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> audited;  // id -> queue, solve
    std::map<std::uint64_t, FlightRecord> flights;
    std::vector<CapturedTrace> captured;
    {
        AuditLog audit(AuditOptions{.path = audit_path});
        auto ams = make_demo_ams(4, /*context_weight=*/0);
        ServiceOptions options = service_options(2);
        options.trace.sample_every = 1;
        options.trace.max_captured = kRequests;
        options.audit = &audit;
        DecisionService service(ams, options);
        for (int round = 0; round < 2; ++round) {
            std::vector<std::future<Decision>> futures;
            for (std::size_t i = 0; i < kPerRound; ++i) {
                futures.push_back(
                    submit(service, cfg::tokenize("do task_" + std::to_string(i % 4))));
            }
            for (auto& f : futures) {
                Decision d = f.get();
                if (round == 1) {
                    EXPECT_TRUE(d.cache_hit) << d.trace_id;
                }
            }
            service.drain();
        }
        for (const FlightRecord& r : service.flight().snapshot()) flights[r.id] = r;
        captured = service.captured_traces();
    }
    std::ifstream audit_file(audit_path);
    for (std::string line; std::getline(audit_file, line);) {
        auto entry = parse_json(line);
        ASSERT_TRUE(entry.has_value()) << line;
        audited[entry->find("trace_id")->as_uint()] = {entry->find("queue_us")->as_uint(),
                                                       entry->find("solve_us")->as_uint()};
    }

    ASSERT_EQ(captured.size(), kRequests);
    ASSERT_EQ(flights.size(), kRequests);
    ASSERT_EQ(audited.size(), kRequests);
    for (const CapturedTrace& c : captured) {
        std::uint64_t id = c.trace_id();
        auto queue = c.trace.find("srv.queue_wait");
        auto solve = c.trace.find("srv.solve");
        ASSERT_NE(queue, obs::TraceContext::npos) << id;
        ASSERT_NE(solve, obs::TraceContext::npos) << id;
        std::uint64_t queue_us = c.trace.spans()[queue].duration_us();
        std::uint64_t solve_us = c.trace.spans()[solve].duration_us();
        ASSERT_EQ(flights.count(id), 1u) << id;
        EXPECT_EQ(flights[id].queue_us, queue_us) << id;
        EXPECT_EQ(flights[id].solve_us, solve_us) << id;
        EXPECT_EQ(flights[id].total_us, c.trace.total_us()) << id;
        ASSERT_EQ(audited.count(id), 1u) << id;
        EXPECT_EQ(audited[id].first, queue_us) << id;
        EXPECT_EQ(audited[id].second, solve_us) << id;
    }
    for (std::size_t i = 0; i < std::size(kPerRequest); ++i) {
        EXPECT_EQ(obs::phase_histogram(kPerRequest[i]).snapshot().count, before[i] + kRequests)
            << obs::phase_name(kPerRequest[i]);
    }
    // Each flight total_us is its request's nanoseconds truncated, so the
    // histogram's sum lies within one microsecond per request above them.
    std::uint64_t flight_total_us = 0;
    for (const auto& [id, record] : flights) flight_total_us += record.total_us;
    const std::uint64_t request_us =
        (obs::phase_histogram(obs::PhaseId::SrvRequest).snapshot().sum - request_ns_before) / 1000;
    EXPECT_GE(request_us, flight_total_us);
    EXPECT_LT(request_us, flight_total_us + kRequests);
}

// --- wire protocol ----------------------------------------------------------

TEST(Wire, ParsesDecideOpIdAndTimeout) {
    std::string error;
    auto r = parse_wire_request(R"({"id":7,"decide":"do patrol","timeout_ms":250})", &error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->decide, "do patrol");
    EXPECT_TRUE(r->has_id);
    EXPECT_EQ(r->id, 7u);
    EXPECT_EQ(r->timeout_ms, 250u);

    auto ping = parse_wire_request(R"({"op":"ping"})", &error);
    ASSERT_TRUE(ping.has_value()) << error;
    EXPECT_EQ(ping->op, "ping");
    EXPECT_FALSE(ping->has_id);

    // Unknown fields are ignored (forward compatibility).
    auto fwd = parse_wire_request(R"({"decide":"do patrol","future_field":[1,2]})", &error);
    EXPECT_TRUE(fwd.has_value()) << error;
}

TEST(Wire, RejectsMalformedRequestsWithStableMessages) {
    const std::pair<const char*, const char*> cases[] = {
        {"[1,2,3]", "line is not a JSON object"},
        {R"({"id":5,"decide":42})", "field 'decide' must be a string"},
        {R"({"decide":"do patrol","op":"ping"})", "request cannot carry both 'decide' and 'op'"},
        {R"({"op":"reboot"})", "unknown op (supported: ping)"},
        {"{}", "request needs a 'decide' or 'op' field"},
        {R"({"id":"seven","decide":"do patrol"})", "field 'id' must be a non-negative integer"},
        {R"({"decide":""})", "field 'decide' must not be empty"},
        {R"({"decide":"x","timeout_ms":-1})", "field 'timeout_ms' must be a non-negative integer"},
    };
    for (const auto& [line, want] : cases) {
        std::string error;
        std::optional<std::uint64_t> id;
        EXPECT_FALSE(parse_wire_request(line, &error, &id).has_value()) << line;
        EXPECT_EQ(error, want) << line;
    }
    // A readable id still correlates the error reply.
    std::string error;
    std::optional<std::uint64_t> id;
    EXPECT_FALSE(parse_wire_request(R"({"id":5,"decide":42})", &error, &id).has_value());
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, 5u);
}

TEST(Wire, ValidatesUtf8) {
    EXPECT_TRUE(valid_utf8("plain ascii"));
    EXPECT_TRUE(valid_utf8("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x9a\x80"));
    EXPECT_FALSE(valid_utf8("\xff\xfe"));
    EXPECT_FALSE(valid_utf8("\xc0\xaf"));          // overlong '/'
    EXPECT_FALSE(valid_utf8("\xed\xa0\x80"));      // surrogate
    EXPECT_FALSE(valid_utf8("truncated \xe2\x82"));
}

// --- AmsRouter --------------------------------------------------------------

// Factory handing each replica its own demo AMS; `miss_delay` attaches a
// PEP effector that sleeps. The PEP runs where the verdict was reached: on
// a worker after a cache miss, on the submitting thread for a hit. Tests
// that pass a delay therefore send distinct requests, so every request
// misses and each sleep holds a worker.
AmsRouter::AmsFactory demo_factory(std::size_t distinct = 6,
                                   std::chrono::milliseconds miss_delay = 0ms) {
    return [distinct, miss_delay] {
        auto ams = std::make_unique<framework::AutonomousManagedSystem>(
            make_demo_ams(distinct, /*context_weight=*/0));
        if (miss_delay.count() > 0) {
            ams->pep().set_effector([miss_delay](const cfg::TokenString&, bool) {
                std::this_thread::sleep_for(miss_delay);
            });
        }
        return ams;
    };
}

RouterOptions router_options(std::size_t replicas, std::size_t threads,
                             std::size_t queue_capacity = 1024) {
    RouterOptions options;
    options.replicas = replicas;
    options.service = service_options(threads, queue_capacity);
    return options;
}

TEST(AmsRouter, AffinityIsDeterministicAndCorrect) {
    AmsRouter router(demo_factory(), router_options(3, 1));
    ASSERT_EQ(router.replicas(), 3u);
    auto tokens = cfg::tokenize("do task_0");
    std::size_t target = router.replica_for(tokens);
    EXPECT_LT(target, 3u);
    EXPECT_EQ(router.replica_for(cfg::tokenize("do task_0")), target);

    for (int i = 0; i < 8; ++i) EXPECT_TRUE(submit(router, tokens).get().permitted());
    router.drain();
    RouterStats stats = router.snapshot_stats();
    EXPECT_EQ(stats.routed_affinity, 8u);
    EXPECT_EQ(stats.routed_fallback, 0u);
    ASSERT_EQ(stats.replicas.size(), 3u);
    EXPECT_EQ(stats.replicas[target].service.completed, 8u);
    EXPECT_EQ(stats.total.completed, 8u);
    // Repeat hits stay in the affinity replica's cache.
    EXPECT_EQ(stats.total.cache.misses, 1u);
    EXPECT_EQ(stats.total.cache.hits, 7u);
}

TEST(AmsRouter, OutcomesMatchSingleServiceAcrossReplicas) {
    AmsRouter router(demo_factory(), router_options(3, 2));
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < 6; ++i) {
            Decision d = submit(router, cfg::tokenize("do task_" + std::to_string(i))).get();
            EXPECT_EQ(d.permitted(), demo_expected(i)) << "task_" << i;
        }
    }
    router.drain();
    EXPECT_EQ(router.snapshot_stats().total.completed, 12u);
}

TEST(AmsRouter, FallbackSpillsWhenPrimarySaturated) {
    // One worker per replica, queue room for one waiter, and misses slow
    // enough that distinct requests sharing one affinity replica pile up
    // there.
    AmsRouter router(demo_factory(32, 30ms), router_options(2, 1, 1));
    std::size_t primary = router.replica_for(cfg::tokenize("do task_0"));
    std::vector<cfg::TokenString> requests;
    for (std::size_t i = 0; i < 32 && requests.size() < 8; ++i) {
        auto tokens = cfg::tokenize("do task_" + std::to_string(i));
        if (router.replica_for(tokens) == primary) requests.push_back(std::move(tokens));
    }
    ASSERT_EQ(requests.size(), 8u);
    std::vector<std::future<Decision>> futures;
    for (auto& tokens : requests) futures.push_back(submit(router, std::move(tokens)));
    for (auto& f : futures) (void)f.get();
    router.drain();
    RouterStats stats = router.snapshot_stats();
    EXPECT_GT(stats.routed_fallback, 0u);
    EXPECT_EQ(stats.routed_affinity + stats.routed_fallback, 8u);
    // Both replicas saw work: the spill really crossed the shard boundary.
    EXPECT_GT(stats.replicas[0].service.submitted, 0u);
    EXPECT_GT(stats.replicas[1].service.submitted, 0u);
}

TEST(AmsRouter, UpdateModelBroadcastsAndVersionsAgree) {
    AmsRouter router(demo_factory(), router_options(3, 1));
    EXPECT_EQ(router.model_version(), 0u);
    EXPECT_TRUE(router.snapshot_stats().versions_agree);

    std::uint64_t version = router.update_model([](framework::AutonomousManagedSystem& ams) {
        ams.representations().store(ams.model(), "router broadcast test");
    });
    EXPECT_EQ(version, 1u);
    EXPECT_EQ(router.model_version(), 1u);
    RouterStats stats = router.snapshot_stats();
    EXPECT_TRUE(stats.versions_agree);
    EXPECT_EQ(stats.model_version, 1u);
    for (const auto& replica : stats.replicas) EXPECT_EQ(replica.model_version, 1u);
    // Decisions after the update carry the new version.
    Decision d = submit(router, cfg::tokenize("do task_0")).get();
    EXPECT_EQ(d.model_version, 1u);
}

TEST(AmsRouter, RequestIdsStayUniqueAcrossReplicas) {
    AmsRouter router(demo_factory(), router_options(3, 2));
    std::vector<std::future<Decision>> futures;
    for (std::size_t i = 0; i < 30; ++i) {
        futures.push_back(submit(router, cfg::tokenize("do task_" + std::to_string(i % 6))));
    }
    for (auto& f : futures) (void)f.get();
    router.drain();
    auto records = router.flight_snapshot();
    ASSERT_EQ(records.size(), 30u);
    std::set<std::uint64_t> ids;
    for (const auto& r : records) ids.insert(r.id);
    EXPECT_EQ(ids.size(), 30u);  // offset/stride makes ids globally unique
    // flight_snapshot merges sorted by id.
    for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_LT(records[i - 1].id, records[i].id);
    }
}

TEST(DecisionCache, ShardCountRoundsUpToPowerOfTwo) {
    CacheOptions options;
    options.shards = 5;
    EXPECT_EQ(DecisionCache(options).shard_count(), 8u);
    options.shards = 1;
    EXPECT_EQ(DecisionCache(options).shard_count(), 1u);
}

// --- persistence (src/store) -----------------------------------------------

TEST(AmsRouter, RestoreStateRebuildsModelAndPoliciesOnEveryReplica) {
    store::SnapshotData data;
    {
        AmsRouter source(demo_factory(), router_options(2, 1));
        source.update_model([](framework::AutonomousManagedSystem& ams) {
            ams.representations().store(ams.model(), "adopted before crash");
            ams.policies().replace({cfg::tokenize("do task_0")}, "prep", 1);
        });
        data = source.export_state();
    }
    EXPECT_EQ(data.model_version, 1u);
    EXPECT_FALSE(data.model_text.empty());
    EXPECT_EQ(data.model_note, "adopted before crash");
    ASSERT_EQ(data.policies.size(), 1u);

    AmsRouter target(demo_factory(), router_options(2, 1));
    StateRestoreReport report = target.restore_state(data);
    EXPECT_TRUE(report.model_restored);
    EXPECT_EQ(report.model_version, 1u);
    EXPECT_EQ(report.policies_restored, 1u);
    EXPECT_TRUE(report.warning.empty()) << report.warning;

    RouterStats stats = target.snapshot_stats();
    EXPECT_EQ(stats.model_version, 1u);
    EXPECT_TRUE(stats.versions_agree);
    Decision d = submit(target, cfg::tokenize("do task_0")).get();
    EXPECT_EQ(d.model_version, 1u);
    EXPECT_TRUE(d.permitted());

    // A second export reproduces the persisted provenance verbatim.
    store::SnapshotData round2 = target.export_state();
    EXPECT_EQ(round2.model_note, "adopted before crash");
    EXPECT_EQ(round2.repo_version, 1u);
    ASSERT_EQ(round2.policies.size(), 1u);
    EXPECT_EQ(round2.policies[0].source, "prep");
}

TEST(AmsRouter, RestoreStateWithUnparseableModelWarnsAndServesInitial) {
    store::SnapshotData data;
    data.model_version = 2;
    data.model_text = "this is -> not ->-> a grammar {{{";
    AmsRouter router(demo_factory(), router_options(1, 1));
    StateRestoreReport report = router.restore_state(data);
    EXPECT_FALSE(report.model_restored);
    EXPECT_NE(report.warning.find("unparseable"), std::string::npos) << report.warning;
    // The initial demo model still decides correctly.
    EXPECT_TRUE(submit(router, cfg::tokenize("do task_0")).get().permitted());
}

// --- TCP transport ----------------------------------------------------------

TEST(Transport, RoundTripMatchesInProcessDecisions) {
    AmsRouter router(demo_factory(), router_options(1, 2));
    TcpServer server(router, TransportOptions{});
    TcpClient client("127.0.0.1", server.port());
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < 6; ++i) {
            client.send_line("{\"id\":" + std::to_string(i) + ",\"decide\":\"do task_" +
                             std::to_string(i) + "\"}");
            auto reply = client.recv_line();
            ASSERT_TRUE(reply.has_value()) << "task_" << i;
            auto json = parse_json(*reply);
            ASSERT_TRUE(json.has_value() && json->is_object()) << *reply;
            EXPECT_EQ(json->find("id")->as_uint(), i);
            EXPECT_EQ(json->find("outcome")->string, demo_expected(i) ? "permit" : "deny");
            EXPECT_EQ(json->find("cache_hit")->boolean, round == 1);
            EXPECT_NE(json->find("latency_us"), nullptr);
            EXPECT_NE(json->find("trace_id"), nullptr);
        }
    }
    server.shutdown();
    TransportStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.lines_in, 12u);
    EXPECT_EQ(stats.bad_requests, 0u);
    EXPECT_EQ(stats.active, 0u);
}

TEST(Transport, PipelinedRepliesCorrelateById) {
    AmsRouter router(demo_factory(), router_options(2, 2));
    TcpServer server(router, TransportOptions{});
    TcpClient client("127.0.0.1", server.port());
    const std::size_t n = 24;
    for (std::size_t i = 0; i < n; ++i) {
        client.send_line("{\"id\":" + std::to_string(i) + ",\"decide\":\"do task_" +
                         std::to_string(i % 6) + "\"}");
    }
    // Replies may arrive in any order; every id must come back exactly once.
    std::set<std::uint64_t> ids;
    for (std::size_t i = 0; i < n; ++i) {
        auto reply = client.recv_line();
        ASSERT_TRUE(reply.has_value()) << "reply " << i;
        auto json = parse_json(*reply);
        ASSERT_TRUE(json.has_value()) << *reply;
        const JsonValue* id = json->find("id");
        ASSERT_NE(id, nullptr) << *reply;
        EXPECT_TRUE(ids.insert(id->as_uint()).second) << "duplicate id " << id->as_uint();
    }
    EXPECT_EQ(ids.size(), n);
}

TEST(Transport, MalformedLinesGetStructuredErrorsAndConnectionSurvives) {
    AmsRouter router(demo_factory(), router_options(1, 1));
    TcpServer server(router, TransportOptions{});
    TcpClient client("127.0.0.1", server.port());

    const std::pair<const char*, const char*> cases[] = {
        {"[1,2,3]", "line is not a JSON object"},
        {"{\"op\":\"reboot\"}", "unknown op (supported: ping)"},
        {"{}", "request needs a 'decide' or 'op' field"},
        {"not json at all", "line is not a JSON object"},
        {"\xff\xfe\x01", "line is not valid UTF-8"},
    };
    for (const auto& [line, message] : cases) {
        client.send_line(line);
        auto reply = client.recv_line();
        ASSERT_TRUE(reply.has_value()) << line;
        auto json = parse_json(*reply);
        ASSERT_TRUE(json.has_value()) << *reply;
        EXPECT_EQ(json->find("error")->string, "bad_request") << *reply;
        EXPECT_EQ(json->find("message")->string, message) << *reply;
    }
    // The connection is still usable after every bad request.
    client.send_line("{\"op\":\"ping\",\"id\":99}");
    auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"ok\":true"), std::string::npos);

    server.shutdown();
    TransportStats stats = server.stats();
    EXPECT_EQ(stats.bad_requests, 5u);
    EXPECT_EQ(stats.slow_client_disconnects, 0u);
    EXPECT_EQ(stats.active, 0u);
}

TEST(Transport, OversizedLineRepliesThenDisconnects) {
    AmsRouter router(demo_factory(), router_options(1, 1));
    TransportOptions options;
    options.max_line_bytes = 128;
    TcpServer server(router, options);
    TcpClient client("127.0.0.1", server.port());
    client.send_line("{\"decide\":\"" + std::string(500, 'x') + "\"}");
    auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("line exceeds maximum length"), std::string::npos);
    // After the reply flushes the server closes: next read is EOF.
    EXPECT_FALSE(client.recv_line(std::chrono::milliseconds{5000}).has_value());
    EXPECT_TRUE(client.closed());
    server.shutdown();
    TransportStats stats = server.stats();
    EXPECT_EQ(stats.oversized_disconnects, 1u);
    EXPECT_EQ(stats.closed, stats.accepted);
    EXPECT_EQ(stats.active, 0u);  // no leaked connection slots
}

// What the next read on `fd` gets within 5 s: 0 for EOF, -errno for an
// error, -ETIMEDOUT when nothing came.
ssize_t next_read(int fd) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return -ETIMEDOUT;
    char byte;
    ssize_t n = ::recv(fd, &byte, 1, 0);
    return n < 0 ? -errno : n;
}

TEST(Transport, UnreadInputAtCloseStillEndsInEofNotReset) {
    // The oversized line ends the reading; 16 KiB more follows in the same
    // write and is never read. A close over unread input makes the kernel
    // send a reset, which over a real link can discard the reply, so the
    // server must end the connection with a FIN after the reply.
    AmsRouter router(demo_factory(), router_options(1, 1));
    TransportOptions options;
    options.max_line_bytes = 128;
    TcpServer server(router, options);
    TcpClient client("127.0.0.1", server.port());
    std::string more;
    while (more.size() < 16 * 1024) more += "{\"decide\":\"do task_0\"}\n";
    client.send("{\"decide\":\"" + std::string(500, 'x') + "\"}\n" + more);
    auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("line exceeds maximum length"), std::string::npos);
    EXPECT_EQ(next_read(client.fd()), 0) << "-ECONNRESET is " << -ECONNRESET;
    server.shutdown();
}

TEST(Transport, HalfCloseStillDeliversEveryReply) {
    AmsRouter router(demo_factory(), router_options(1, 2));
    TcpServer server(router, TransportOptions{});
    TcpClient client("127.0.0.1", server.port());
    const std::size_t n = 10;
    for (std::size_t i = 0; i < n; ++i) {
        client.send_line("{\"id\":" + std::to_string(i) + ",\"decide\":\"do task_" +
                         std::to_string(i % 6) + "\"}");
    }
    client.shutdown_write();  // half-close: no more requests
    std::size_t replies = 0;
    while (auto reply = client.recv_line()) {
        EXPECT_NE(reply->find("\"outcome\":"), std::string::npos) << *reply;
        ++replies;
    }
    EXPECT_EQ(replies, n);  // all delivered, then EOF
    server.shutdown();
    EXPECT_EQ(server.stats().active, 0u);
}

TEST(Transport, SlowClientHittingWriteBufferCapIsDisconnected) {
    AmsRouter router(demo_factory(), router_options(1, 1));
    TransportOptions options;
    options.max_write_buffer_bytes = 1;  // any reply exceeds the backlog cap
    TcpServer server(router, options);
    TcpClient client("127.0.0.1", server.port());
    client.send_line("{\"id\":1,\"decide\":\"do task_0\"}");
    // The reply cannot be buffered within the cap: the client is dropped.
    EXPECT_FALSE(client.recv_line(std::chrono::milliseconds{5000}).has_value());
    EXPECT_TRUE(client.closed());
    server.shutdown();
    TransportStats stats = server.stats();
    EXPECT_EQ(stats.slow_client_disconnects, 1u);
    EXPECT_EQ(stats.closed, stats.accepted);
    EXPECT_EQ(stats.active, 0u);  // the slot was reclaimed
}

TEST(Transport, ConnectionCapAnswersOverloadedInBand) {
    AmsRouter router(demo_factory(), router_options(1, 1));
    TransportOptions options;
    options.max_connections = 1;
    TcpServer server(router, options);
    TcpClient first("127.0.0.1", server.port());
    first.send_line("{\"op\":\"ping\"}");
    ASSERT_TRUE(first.recv_line().has_value());  // slot genuinely taken

    TcpClient second("127.0.0.1", server.port());
    auto reply = second.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"error\":\"overloaded\""), std::string::npos);
    EXPECT_NE(reply->find("too many connections"), std::string::npos);
    EXPECT_FALSE(second.recv_line(std::chrono::milliseconds{5000}).has_value());  // then EOF
    EXPECT_TRUE(second.closed());
    server.shutdown();
}

TEST(Transport, IdleConnectionsAreReaped) {
    AmsRouter router(demo_factory(), router_options(1, 1));
    TransportOptions options;
    options.idle_timeout = std::chrono::milliseconds{50};
    TcpServer server(router, options);
    TcpClient client("127.0.0.1", server.port());
    // Send nothing: the server should close us on its own.
    EXPECT_FALSE(client.recv_line(std::chrono::milliseconds{10000}).has_value());
    EXPECT_TRUE(client.closed());
    server.shutdown();
    TransportStats stats = server.stats();
    EXPECT_EQ(stats.idle_disconnects, 1u);
    EXPECT_EQ(stats.active, 0u);
}

TEST(Transport, IdleTimerNeverDropsAnInFlightReply) {
    // Every request is a distinct miss whose completion outlasts the idle
    // timeout, so each completion reaches the idle check with an aged
    // connection. The pending counter covers the decision itself; the
    // outbox must also be checked (a reply parked there after the pending
    // decrement, before the loop's next service pass, would otherwise be
    // discarded by an idle close).
    //
    // The client may itself stall past the timeout between a reply and its
    // next request; the connection is then really idle and may be closed
    // before the server reads that request. So the test checks the
    // property, not the count of idle closes: every request line the
    // server read gets exactly one reply, and a request the server never
    // read is resent on a new connection.
    AmsRouter router(demo_factory(12, 50ms), router_options(1, 1));
    TransportOptions options;
    options.idle_timeout = std::chrono::milliseconds{25};
    TcpServer server(router, options);
    auto client = std::make_unique<TcpClient>("127.0.0.1", server.port());
    std::uint64_t replies = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        const std::string id = "\"id\":" + std::to_string(i);
        std::optional<std::string> reply;
        for (int attempt = 0; attempt < 10; ++attempt) {
            const std::uint64_t lines_before = server.stats().lines_in;
            try {
                client->send_line("{" + id + ",\"decide\":\"do task_" + std::to_string(i) + "\"}");
                reply = client->recv_line(std::chrono::milliseconds{10000});
            } catch (const std::runtime_error&) {
                // Broken pipe: the server had already closed the connection.
            }
            if (reply) break;
            ASSERT_EQ(server.stats().lines_in, lines_before)
                << "reply " << i << " dropped after the server read its request";
            client = std::make_unique<TcpClient>("127.0.0.1", server.port());
        }
        ASSERT_TRUE(reply.has_value()) << "request " << i << " never read";
        EXPECT_NE(reply->find(id), std::string::npos) << *reply;
        ++replies;
    }
    server.shutdown();
    EXPECT_EQ(server.stats().lines_in, replies);
}

TEST(Transport, PingReportsReplicasAndModelVersion) {
    AmsRouter router(demo_factory(), router_options(3, 1));
    TcpServer server(router, TransportOptions{});
    TcpClient client("127.0.0.1", server.port());
    client.send_line("{\"op\":\"ping\",\"id\":1}");
    auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value());
    auto json = parse_json(*reply);
    ASSERT_TRUE(json.has_value());
    EXPECT_EQ(json->find("proto")->as_uint(), static_cast<std::uint64_t>(kProtocolVersion));
    EXPECT_EQ(json->find("replicas")->as_uint(), 3u);
    EXPECT_EQ(json->find("model_version")->as_uint(), 0u);

    router.update_model([](framework::AutonomousManagedSystem& ams) {
        ams.representations().store(ams.model(), "bump");
    });
    client.send_line("{\"op\":\"ping\"}");
    reply = client.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"model_version\":1"), std::string::npos);
    server.shutdown();
}

TEST(Transport, GracefulShutdownDrainsInFlightReplies) {
    // Slow, distinct misses so requests are genuinely in flight when
    // shutdown lands.
    AmsRouter router(demo_factory(3, 50ms), router_options(1, 1, 64));
    TcpServer server(router, TransportOptions{});
    TcpClient client("127.0.0.1", server.port());
    const std::size_t n = 3;
    for (std::size_t i = 0; i < n; ++i) {
        client.send_line("{\"id\":" + std::to_string(i) + ",\"decide\":\"do task_" +
                         std::to_string(i) + "\"}");
    }
    // Give the loop time to read and dispatch all three lines, then stop
    // the server while the worker is still deciding them.
    std::this_thread::sleep_for(30ms);
    std::thread stopper([&server] { server.shutdown(); });
    std::size_t replies = 0;
    while (auto reply = client.recv_line()) {
        EXPECT_NE(reply->find("\"id\":"), std::string::npos);
        ++replies;
    }
    stopper.join();
    EXPECT_EQ(replies, n);  // drain delivered every accepted decision
    EXPECT_EQ(server.stats().active, 0u);
}

TEST(Transport, DispatchLineSharesStdinAndTcpSemantics) {
    AmsRouter router(demo_factory(), router_options(1, 1));
    // Text mode: plain token line -> deferred outcome-name reply.
    std::promise<std::string> text_reply;
    DispatchResult r = dispatch_line(router, "do task_0", LineMode::Text, 0, {},
                                     [&](std::string reply) { text_reply.set_value(reply); });
    EXPECT_TRUE(r.deferred);
    EXPECT_EQ(text_reply.get_future().get(), "Permit");
    // Text mode still answers JSON lines with JSON (shared front door).
    std::promise<std::string> json_reply;
    r = dispatch_line(router, R"({"id":4,"decide":"do task_1"})", LineMode::Text, 0, {},
                      [&](std::string reply) { json_reply.set_value(reply); });
    EXPECT_TRUE(r.deferred);
    EXPECT_NE(json_reply.get_future().get().find("\"id\":4"), std::string::npos);
    // Json mode: a bare token line is a bad request, not a decision.
    r = dispatch_line(router, "do task_0", LineMode::Json, 0, {}, [](std::string) {});
    EXPECT_FALSE(r.deferred);
    EXPECT_TRUE(r.bad_request);
    // Control lines without a handler are rejected, not crashed.
    r = dispatch_line(router, "!stats", LineMode::Json, 0, {}, [](std::string) {});
    EXPECT_TRUE(r.bad_request);
    EXPECT_NE(r.immediate.find("control lines are not enabled"), std::string::npos);
    // Control lines with a handler get its reply verbatim.
    r = dispatch_line(
        router, "!stats", LineMode::Json, 0, [](std::string_view) { return "STATS"; },
        [](std::string) {});
    EXPECT_EQ(r.immediate, "STATS");
    EXPECT_FALSE(r.bad_request);
    router.drain();
}

}  // namespace
}  // namespace agenp::srv
