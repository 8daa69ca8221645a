// E14: serving-layer throughput and latency (DESIGN.md section 8).
//
// Closed-loop load generation against the decision service on the demo
// serving domain, sweeping worker thread counts with the decision cache on
// and off — in-process (`"transport":"inproc"`) and over a loopback TCP
// connection to the srv::Server that `agenp serve --listen` runs
// (`"transport":"tcp"`), so the wire + event-loop overhead is measured
// against the same workload. The lock-contention profiler is reset before
// each configuration, so every row carries per-lock wait statistics for
// the three serving-path hot locks (symbol.intern, srv.cache_shard,
// srv.model). Emits one machine-readable line:
//
//   BENCH_SERVE_JSON {"rows":[{"transport":..,"threads":..,"cache":..,
//                              "memo":..,"throughput_rps":..,"p50_us":..,
//                              "p95_us":..,"p99_us":..,"hit_rate":..,
//                              "locks":{...}},...],
//                     "exporter":{"baseline_rps":..,"scraped_rps":..,
//                                 "overhead_pct":..,"scrapes":..},
//                     "profiler":{"hz":..,"baseline_rps":..,"profiled_rps":..,
//                                 "overhead_pct":..,"samples":..,"dropped":..,
//                                 "stacks_nonempty":..},
//                     "restart":{"cold":{...},"warm":{...},
//                                "entries_restored":..,"warm_ge_10x_cold":..},
//                     "memo":{"off_rps":..,"on_rps":..,"speedup":..,
//                             "hits":..,"misses":..,"sat_hits":..,
//                             "gate_fallbacks":..},
//                     "cache_speedup":..,"smoke":..}
//
// The full line is also written to bench/results/BENCH_SERVE.json (repo
// root relative; `--out PATH` overrides, `--no-out` suppresses) so runs
// leave a comparable artifact behind.
//
// `cache_speedup` compares cache on vs off at the same thread count on the
// repeated-request in-process workload; the CI smoke (`--smoke`) asserts
// the line parses, the sweep ran, both transports are present, and the
// per-lock wait stats are present. The `exporter` row replays the top
// cache-on TCP configuration with the server's /metrics listener being
// scraped concurrently; the exposition path budget is <3% throughput overhead
// at a 1 s scrape interval (CI checks the row exists and scrapes ran —
// the numeric bound is advisory, shared-runner noise exceeds it).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/export/http.hpp"
#include "obs/lockprof.hpp"
#include "obs/prof.hpp"
#include "srv/loadgen.hpp"
#include "srv/server.hpp"

using namespace agenp;

namespace {

struct Row {
    const char* transport = "inproc";
    std::size_t threads = 0;
    bool cache = false;
    bool memo = true;  // grounding memo (asg/memo.hpp) on the miss path
    srv::LoadgenReport report;
    std::vector<obs::LockStatsSnapshot> locks;
    asg::MemoStats memo_stats;
};

Row run_config(std::size_t threads, bool cache, bool memo, std::size_t requests_per_client,
               std::size_t distinct) {
    auto ams = srv::make_demo_ams(distinct);
    srv::ServiceOptions options;
    options.threads = threads;
    options.use_cache = cache;
    options.use_memo = memo;
    srv::DecisionService service(ams, options);

    srv::LoadgenOptions load;
    load.clients = threads;  // closed loop: one client per worker
    load.requests_per_client = requests_per_client;
    Row row;
    row.threads = threads;
    row.cache = cache;
    row.memo = memo;
    // Attribute contention to this configuration only: the run_loadgen call
    // is the only window where the profiled locks see multi-threaded load.
    obs::locks().reset();
    row.report = srv::run_loadgen(service, srv::demo_workload(distinct), load);
    row.locks = obs::locks().snapshot();
    row.memo_stats = service.snapshot_stats().memo;
    return row;
}

// Where the servers below write their AGENP_* and final stats lines.
std::ostream quiet(nullptr);

// The server `agenp serve --listen 0` runs, on the demo domain with one
// replica.
srv::ServerOptions tcp_server_options(std::size_t threads, bool cache) {
    srv::ServerOptions options;
    options.router.service.threads = threads;
    options.router.service.use_cache = cache;
    options.port = 0;
    return options;
}

srv::AmsRouter::AmsFactory demo_factory(std::size_t distinct) {
    return [distinct] {
        return std::make_unique<framework::AutonomousManagedSystem>(srv::make_demo_ams(distinct));
    };
}

// Same workload through the full serving stack: loopback TCP into the
// server's event loop. The latency rows include the wire round trip and
// the loop's read/dispatch/write path.
Row run_config_tcp(std::size_t threads, bool cache, std::size_t requests_per_client,
                   std::size_t distinct) {
    srv::Server server(demo_factory(distinct), tcp_server_options(threads, cache), quiet);

    srv::LoadgenOptions load;
    load.clients = threads;
    load.requests_per_client = requests_per_client;
    Row row;
    row.transport = "tcp";
    row.threads = threads;
    row.cache = cache;
    obs::locks().reset();
    row.report = srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct),
                                      load);
    row.locks = obs::locks().snapshot();
    return row;
}

// Exporter overhead: the same loopback-TCP workload with the server's
// metrics listener on and a scraper pulling the full Prometheus
// exposition every `scrape_interval`. Compared against an unscraped
// baseline at the same configuration.
struct ExporterRow {
    double baseline_rps = 0;
    double scraped_rps = 0;
    double overhead_pct = 0;
    std::size_t scrapes = 0;
};

ExporterRow run_exporter_overhead(std::size_t threads, std::size_t requests_per_client,
                                  std::size_t distinct,
                                  std::chrono::milliseconds scrape_interval) {
    srv::ServerOptions options = tcp_server_options(threads, /*cache=*/true);
    options.metrics_port = 0;
    srv::Server server(demo_factory(distinct), options, quiet);

    srv::LoadgenOptions load;
    load.clients = threads;
    load.requests_per_client = requests_per_client;

    ExporterRow row;
    // Warm the decision cache first so the baseline and scraped runs see
    // the same hit rate — otherwise the comparison measures cache warm-up,
    // not exporter cost.
    srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct), load);
    // Baseline: listener bound but never scraped.
    row.baseline_rps =
        srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct), load)
            .throughput_rps;

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> scrapes{0};
    std::thread scraper([&] {
        while (!stop.load(std::memory_order_acquire)) {
            if (obs::http_get("127.0.0.1", server.metrics_port(), "/metrics").has_value()) {
                scrapes.fetch_add(1, std::memory_order_relaxed);
            }
            std::this_thread::sleep_for(scrape_interval);
        }
    });
    row.scraped_rps =
        srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct), load)
            .throughput_rps;
    stop.store(true, std::memory_order_release);
    scraper.join();
    row.scrapes = scrapes.load();
    row.overhead_pct = row.baseline_rps > 0
                           ? (row.baseline_rps - row.scraped_rps) / row.baseline_rps * 100.0
                           : 0;
    return row;
}

// Sampling-profiler overhead: the same warm-cache loopback-TCP workload
// with the SIGPROF profiler armed at `hz`, against an unprofiled baseline.
// The budget is <5% throughput cost at 99 Hz; like the exporter budget it
// is advisory in CI (shared-runner noise exceeds it), but the row proves
// the profiler samples real serving work without stalling it.
struct ProfilerRow {
    std::size_t hz = 0;
    double baseline_rps = 0;
    double profiled_rps = 0;
    double overhead_pct = 0;
    std::size_t samples = 0;
    std::size_t dropped = 0;
    bool stacks_nonempty = false;
};

ProfilerRow run_profiler_overhead(std::size_t threads, std::size_t requests_per_client,
                                  std::size_t distinct, std::size_t hz) {
    srv::Server server(demo_factory(distinct), tcp_server_options(threads, /*cache=*/true),
                       quiet);

    srv::LoadgenOptions load;
    load.clients = threads;
    load.requests_per_client = requests_per_client;

    ProfilerRow row;
    row.hz = hz;
    // Warm the cache so both runs measure steady-state serving, not solves.
    srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct), load);
    row.baseline_rps =
        srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct), load)
            .throughput_rps;

    obs::ProfilerOptions prof_options;
    prof_options.hz = hz;
    auto& profiler = obs::CpuProfiler::instance();
    if (profiler.start(prof_options)) {
        row.profiled_rps =
            srv::run_loadgen_tcp("127.0.0.1", server.port(), srv::demo_workload(distinct), load)
                .throughput_rps;
        obs::ProfileReport report = profiler.stop();
        row.samples = report.samples;
        row.dropped = report.dropped;
        row.stacks_nonempty = !report.stacks.empty();
    }
    row.overhead_pct = row.baseline_rps > 0
                           ? (row.baseline_rps - row.profiled_rps) / row.baseline_rps * 100.0
                           : 0;
    return row;
}

// Cold vs warm restart: how much of the first post-restart traffic window
// is served from a decision cache restored via `--state-dir` (src/store).
// The "first-minute window" is made deterministic — one sequential pass
// over every distinct demo request, the worst case for a cold cache (all
// misses, each paying a full membership solve) and the best case for a
// restored one — so the hit-rate comparison is exact rather than a race
// against the wall clock. A steady-state run follows; its p95 is the
// latency floor both sides converge to, and time_to_steady_ms measures
// how long each side took to get there from its first request.
struct RestartSide {
    double window_ms = 0;          // duration of the first-pass window
    double window_hit_rate = 0;    // cache hit rate inside that window
    double steady_p95_us = 0;      // p95 once the cache is warm
    double time_to_steady_ms = 0;  // first request -> end of steady run
};

struct RestartRow {
    RestartSide cold;
    RestartSide warm;
    std::size_t entries_restored = 0;
    bool warm_ge_10x_cold = false;
};

RestartSide measure_restart_side(srv::AmsRouter& router,
                                 const std::vector<cfg::TokenString>& workload,
                                 std::size_t steady_passes) {
    RestartSide side;
    auto ms_between = [](auto from, auto to) {
        return std::chrono::duration<double, std::milli>(to - from).count();
    };
    auto start = std::chrono::steady_clock::now();
    std::size_t hits = 0;
    for (const auto& request : workload) {
        if (router.submit(request, {}).get().cache_hit) ++hits;
    }
    side.window_ms = ms_between(start, std::chrono::steady_clock::now());
    side.window_hit_rate =
        workload.empty() ? 0 : static_cast<double>(hits) / static_cast<double>(workload.size());

    std::vector<double> latencies;
    latencies.reserve(steady_passes * workload.size());
    for (std::size_t pass = 0; pass < steady_passes; ++pass) {
        for (const auto& request : workload) {
            latencies.push_back(
                static_cast<double>(router.submit(request, {}).get().latency_us));
        }
    }
    side.time_to_steady_ms = ms_between(start, std::chrono::steady_clock::now());
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        side.steady_p95_us =
            latencies[std::min(latencies.size() - 1, latencies.size() * 95 / 100)];
    }
    return side;
}

RestartRow run_restart(std::size_t distinct, std::size_t steady_passes) {
    RestartRow row;
    char dir_template[] = "/tmp/agenp_bench_store.XXXXXX";
    char* dir = ::mkdtemp(dir_template);
    if (dir == nullptr) {
        std::fprintf(stderr, "restart bench: mkdtemp failed, skipping\n");
        return row;
    }
    const std::string state_dir = dir;

    srv::ServerOptions options;
    options.router.service.threads = 2;
    const auto workload = srv::demo_workload(distinct);

    {
        // Cold restart: same binary, no persisted state.
        srv::Server server(demo_factory(distinct), options, quiet);
        row.cold = measure_restart_side(server.router(), workload, steady_passes);
    }
    options.state_dir = state_dir;
    {
        // First life with `--state-dir`: take traffic until the cache
        // holds every distinct request; the drain snapshots it.
        srv::Server server(demo_factory(distinct), options, quiet);
        for (const auto& request : workload) server.router().submit(request, {}).get();
    }
    {
        // Warm restart: the server restores the snapshot on start.
        srv::Server server(demo_factory(distinct), options, quiet);
        row.entries_restored = server.router().snapshot_stats().total.cache.entries;
        row.warm = measure_restart_side(server.router(), workload, steady_passes);
    }

    row.warm_ge_10x_cold = row.warm.window_hit_rate > 0 &&
                           row.warm.window_hit_rate >= 10.0 * row.cold.window_hit_rate;
    std::remove((state_dir + "/snapshot.agenp").c_str());
    std::remove((state_dir + "/wal.agenp").c_str());
    ::rmdir(state_dir.c_str());
    return row;
}

// The serving-path hot locks the ISSUE asks bench_serve to report on.
constexpr const char* kHotLocks[] = {"symbol.intern", "srv.cache_shard", "srv.model"};

const obs::LockStatsSnapshot* find_lock(const Row& row, std::string_view name) {
    for (const auto& snap : row.locks) {
        if (snap.name == name) return &snap;
    }
    return nullptr;
}

std::string locks_json(const Row& row) {
    std::string out = "{";
    bool first = true;
    for (const char* name : kHotLocks) {
        const obs::LockStatsSnapshot* snap = find_lock(row, name);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\":{\"acquisitions\":%llu,\"contentions\":%llu,"
                      "\"wait_us_total\":%llu,\"wait_us_p99\":%.1f}",
                      first ? "" : ",", name,
                      static_cast<unsigned long long>(snap ? snap->acquisitions : 0),
                      static_cast<unsigned long long>(snap ? snap->contentions : 0),
                      static_cast<unsigned long long>(snap ? snap->wait_us.sum : 0),
                      snap ? snap->wait_us.quantile(0.99) : 0.0);
        out += buf;
        first = false;
    }
    out += "}";
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    // Benchmarks measure the production lock fast path; the debug-build
    // lock-order checker adds a thread-local scan per ranked acquisition
    // (it is already off under NDEBUG, i.e. in RelWithDebInfo builds).
    obs::set_lock_order_checking(false);
    bool smoke = false;
#ifdef AGENP_SOURCE_DIR
    std::string out_path = AGENP_SOURCE_DIR "/bench/results/BENCH_SERVE.json";
#else
    std::string out_path;
#endif
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") smoke = true;
        if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
        if (arg == "--no-out") out_path.clear();
    }

    const std::size_t distinct = 8;
    const std::size_t requests_per_client = smoke ? 50 : 200;
    std::vector<std::size_t> thread_counts = smoke ? std::vector<std::size_t>{2}
                                                   : std::vector<std::size_t>{1, 2, 4, 8};

    std::printf("serving benchmark: %zu distinct requests, %zu per client, closed loop\n",
                distinct, requests_per_client);
    std::printf("%8s %8s %6s %5s %14s %10s %10s %9s\n", "transp", "threads", "cache", "memo",
                "throughput", "p50_us", "p99_us", "hit_rate");

    auto print_row = [](const Row& row) {
        std::printf("%8s %8zu %6s %5s %12.1f/s %10.1f %10.1f %9.3f\n", row.transport, row.threads,
                    row.cache ? "on" : "off", row.memo ? "on" : "off", row.report.throughput_rps,
                    row.report.p50_us, row.report.p99_us, row.report.hit_rate);
    };

    std::vector<Row> rows;
    for (bool cache : {false, true}) {
        for (std::size_t threads : thread_counts) {
            Row row = run_config(threads, cache, /*memo=*/true, requests_per_client, distinct);
            print_row(row);
            rows.push_back(std::move(row));
        }
    }
    // Loopback-TCP rows: same sweep through the wire + event loop. One
    // cache-on and one cache-off row per thread count is enough to place
    // the transport overhead against the in-process rows above.
    for (bool cache : {false, true}) {
        for (std::size_t threads : thread_counts) {
            Row row = run_config_tcp(threads, cache, requests_per_client, distinct);
            print_row(row);
            rows.push_back(std::move(row));
        }
    }

    // Where do threads stall? Contention on the serving-path hot locks,
    // per configuration (the cache-off rows are the interesting ones: with
    // no decision cache every request interns symbols and hits the model
    // lock, so these rows show which lock limits scaling).
    std::printf("\nlock contention (per config):\n");
    std::printf("%8s %8s %6s  %-16s %12s %12s %12s %10s\n", "transp", "threads", "cache", "lock",
                "acquires", "contended", "wait_us", "p99_us");
    for (const auto& row : rows) {
        for (const char* name : kHotLocks) {
            const obs::LockStatsSnapshot* snap = find_lock(row, name);
            if (!snap || snap->acquisitions == 0) continue;
            std::printf("%8s %8zu %6s  %-16s %12llu %12llu %12llu %10.1f\n", row.transport,
                        row.threads, row.cache ? "on" : "off", name,
                        static_cast<unsigned long long>(snap->acquisitions),
                        static_cast<unsigned long long>(snap->contentions),
                        static_cast<unsigned long long>(snap->wait_us.sum),
                        snap->wait_us.quantile(0.99));
        }
    }

    // Cache speedup at the highest common thread count (in-process rows,
    // so the figure isolates the cache rather than the wire).
    double on_rps = 0, off_rps = 0;
    std::size_t top = thread_counts.back();
    for (const auto& row : rows) {
        if (row.threads != top || std::string_view(row.transport) != "inproc") continue;
        (row.cache ? on_rps : off_rps) = row.report.throughput_rps;
    }
    double speedup = off_rps > 0 ? on_rps / off_rps : 0;
    std::printf("cache speedup at %zu threads: %.1fx\n", top, speedup);

    // Grounding-memo speedup on the pure miss path: cache OFF so every
    // request grounds and solves, memo off vs on, back to back at the top
    // thread count so run-to-run noise hits both sides equally. This is
    // the headline figure for the memoized G[PT] grounding + arena work
    // (docs/PERFORMANCE.md): memo-off pays the full instantiate + ground +
    // solve per request; memo-on recalls grounded fragments and decisive
    // verdicts per (parse tree, context, model version).
    Row memo_off = run_config(top, /*cache=*/false, /*memo=*/false, requests_per_client, distinct);
    print_row(memo_off);
    Row memo_on = run_config(top, /*cache=*/false, /*memo=*/true, requests_per_client, distinct);
    print_row(memo_on);
    double memo_off_rps = memo_off.report.throughput_rps;
    double memo_on_rps = memo_on.report.throughput_rps;
    double memo_speedup = memo_off_rps > 0 ? memo_on_rps / memo_off_rps : 0;
    std::printf("memo speedup at %zu threads (cache off): %.1fx (%.1f/s -> %.1f/s,"
                " %llu frag hits, %llu verdict hits)\n",
                top, memo_speedup, memo_off_rps, memo_on_rps,
                static_cast<unsigned long long>(memo_on.memo_stats.hits),
                static_cast<unsigned long long>(memo_on.memo_stats.sat_hits));
    const asg::MemoStats ms = memo_on.memo_stats;
    rows.push_back(std::move(memo_off));
    rows.push_back(std::move(memo_on));

    // Exporter overhead at the top thread count, cache on. Smoke runs are
    // far shorter than the production 1 s scrape interval, so scrape more
    // often there to make sure the path is actually exercised.
    ExporterRow exporter = run_exporter_overhead(
        top, requests_per_client, distinct,
        smoke ? std::chrono::milliseconds(10) : std::chrono::milliseconds(1000));
    std::printf("exporter overhead at %zu threads: %.1f/s -> %.1f/s (%.1f%%, %zu scrapes,"
                " budget <3%% at 1s interval)\n",
                top, exporter.baseline_rps, exporter.scraped_rps, exporter.overhead_pct,
                exporter.scrapes);

    // Sampling-profiler overhead at the top thread count, cache on, 99 Hz
    // (the conventional always-on rate; advisory budget <5%).
    ProfilerRow profiler = run_profiler_overhead(top, requests_per_client, distinct, 99);
    std::printf("profiler overhead at %zu threads, %zu Hz: %.1f/s -> %.1f/s (%.1f%%,"
                " %zu samples, %zu dropped, budget <5%%)\n",
                top, profiler.hz, profiler.baseline_rps, profiler.profiled_rps,
                profiler.overhead_pct, profiler.samples, profiler.dropped);

    // Warm-restart value: first-window hit rate cold vs restored from a
    // `--state-dir` snapshot (src/store). The acceptance bound is warm >=
    // 10x cold — trivially met on the deterministic window, where cold is
    // exactly 0 and warm should be 1.0 when every entry restored.
    RestartRow restart = run_restart(distinct, smoke ? 3 : 10);
    std::printf("restart: cold first-window hit_rate %.3f (%.1f ms), warm %.3f (%.1f ms),"
                " %zu entries restored\n",
                restart.cold.window_hit_rate, restart.cold.window_ms,
                restart.warm.window_hit_rate, restart.warm.window_ms,
                restart.entries_restored);
    std::printf("restart: time-to-steady %.1f ms cold vs %.1f ms warm, steady p95 %.1f/%.1f us,"
                " warm>=10x cold: %s\n",
                restart.cold.time_to_steady_ms, restart.warm.time_to_steady_ms,
                restart.cold.steady_p95_us, restart.warm.steady_p95_us,
                restart.warm_ge_10x_cold ? "yes" : "NO");

    std::string json = "{\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& row = rows[i];
        char buf[384];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"transport\":\"%s\",\"threads\":%zu,\"cache\":%s,\"memo\":%s,"
                      "\"throughput_rps\":%.1f,\"p50_us\":%.1f,"
                      "\"p95_us\":%.1f,\"p99_us\":%.1f,\"hit_rate\":%.3f,\"locks\":",
                      i == 0 ? "" : ",", row.transport, row.threads, row.cache ? "true" : "false",
                      row.memo ? "true" : "false", row.report.throughput_rps, row.report.p50_us,
                      row.report.p95_us, row.report.p99_us, row.report.hit_rate);
        json += buf;
        json += locks_json(row);
        json += "}";
    }
    auto restart_side_json = [](const RestartSide& side) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "{\"window_ms\":%.1f,\"hit_rate\":%.3f,\"steady_p95_us\":%.1f,"
                      "\"time_to_steady_ms\":%.1f}",
                      side.window_ms, side.window_hit_rate, side.steady_p95_us,
                      side.time_to_steady_ms);
        return std::string(buf);
    };
    char tail[1024];
    std::snprintf(tail, sizeof(tail),
                  "],\"exporter\":{\"baseline_rps\":%.1f,\"scraped_rps\":%.1f,"
                  "\"overhead_pct\":%.1f,\"scrapes\":%zu},"
                  "\"profiler\":{\"hz\":%zu,\"baseline_rps\":%.1f,\"profiled_rps\":%.1f,"
                  "\"overhead_pct\":%.1f,\"samples\":%zu,\"dropped\":%zu,"
                  "\"stacks_nonempty\":%s},"
                  "\"restart\":{\"cold\":%s,\"warm\":%s,\"entries_restored\":%zu,"
                  "\"warm_ge_10x_cold\":%s},"
                  "\"memo\":{\"off_rps\":%.1f,\"on_rps\":%.1f,\"speedup\":%.1f,"
                  "\"hits\":%llu,\"misses\":%llu,\"sat_hits\":%llu,\"gate_fallbacks\":%llu},"
                  "\"cache_speedup\":%.1f,\"smoke\":%s}",
                  exporter.baseline_rps, exporter.scraped_rps, exporter.overhead_pct,
                  exporter.scrapes, profiler.hz, profiler.baseline_rps, profiler.profiled_rps,
                  profiler.overhead_pct, profiler.samples, profiler.dropped,
                  profiler.stacks_nonempty ? "true" : "false",
                  restart_side_json(restart.cold).c_str(),
                  restart_side_json(restart.warm).c_str(), restart.entries_restored,
                  restart.warm_ge_10x_cold ? "true" : "false", memo_off_rps, memo_on_rps,
                  memo_speedup, static_cast<unsigned long long>(ms.hits),
                  static_cast<unsigned long long>(ms.misses),
                  static_cast<unsigned long long>(ms.sat_hits),
                  static_cast<unsigned long long>(ms.gate_fallbacks), speedup,
                  smoke ? "true" : "false");
    json += tail;
    std::printf("BENCH_SERVE_JSON %s\n", json.c_str());

    // Persist the full result line for trend tracking (bench/results/ in
    // the repo, uploaded as a CI artifact). `--out PATH` overrides,
    // `--no-out` suppresses.
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (out) {
            out << json << "\n";
            std::printf("results written to %s\n", out_path.c_str());
        } else {
            std::fprintf(stderr, "could not write %s (skipping)\n", out_path.c_str());
        }
    }
    return 0;
}
