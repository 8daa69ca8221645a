// Closed-loop load generator for the decision service (DESIGN.md section
// 8), plus the built-in demo serving domain used by `agenp loadgen`.
//
// Closed loop: each client thread submits one request, waits for its
// decision, then issues the next — so offered load adapts to service
// capacity and the latency numbers are honest end-to-end figures (queue
// wait included) rather than coordinated-omission artifacts of a fixed
// schedule the service can't keep up with.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "srv/service.hpp"

namespace agenp::srv {

struct LoadgenOptions {
    std::size_t clients = 4;              // concurrent closed-loop clients
    std::size_t requests_per_client = 250;
    std::uint64_t seed = 42;              // workload draw, per-client split
};

struct LoadgenReport {
    std::size_t requests = 0;
    std::size_t permitted = 0;
    std::size_t denied = 0;
    std::size_t overloaded = 0;
    std::size_t expired = 0;
    double seconds = 0;
    double throughput_rps = 0;
    // Latency quantiles come from an obs::Histogram the clients observe
    // into concurrently (bit-width buckets, interpolated quantiles), so
    // the collection path is lock-free and allocation-free.
    double mean_us = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double hit_rate = 0;  // over this run only (stats delta)
    // Requests sent without a usable reply: TCP timeouts, unparseable or
    // `internal` error replies and dropped connections; in-process,
    // Outcome::Error decisions.
    std::size_t dropped = 0;

    // Fills mean/p50/p95/p99 from a latency histogram snapshot — the one
    // quantile path shared by the in-process and TCP loops, and the same
    // estimator the server-side summaries use (Histogram::Snapshot::
    // quantile), so client- and server-reported percentiles agree.
    void fill_latency(const obs::Histogram::Snapshot& latency);

    // One-line JSON object with every field above.
    [[nodiscard]] std::string to_json() const;
    [[nodiscard]] std::string render_text() const;
};

// Drives `service` from `options.clients` threads, each drawing uniformly
// at random from `workload`.
LoadgenReport run_loadgen(DecisionService& service, const std::vector<cfg::TokenString>& workload,
                          const LoadgenOptions& options = {});

// Same closed loop over TCP (`agenp loadgen --connect`): each client
// thread opens one connection to an `agenp serve --listen` server and
// sends `{"id":N,"decide":...}` lines in lockstep, so latency is honest
// client-observed round-trip time. Outcomes and cache hits are read from
// the replies; replies that never arrive count as `dropped`.
LoadgenReport run_loadgen_tcp(const std::string& host, std::uint16_t port,
                              const std::vector<cfg::TokenString>& workload,
                              const LoadgenOptions& options = {});

// The demo serving domain: `request -> "do" task_i` for i in
// [0, distinct_tasks), where task_i requires clearance (i % 5) + 1 and the
// PIP reports a fixed maxloa(3) — so ~3/5 of the workload is permitted and
// every decision needs a real membership solve on a cache miss.
//
// `context_weight` sets how heavy that solve is: the PIP adds load(1..w)
// facts and the root annotation joins them (stress(X,Y) :- load(X),
// load(Y)), so each miss grounds O(w^2) rules — standing in for the fat
// context programs of a production deployment. The default makes a miss
// one to two orders of magnitude dearer than a cache hit.
inline constexpr std::size_t kDemoContextWeight = 24;

asg::AnswerSetGrammar demo_grammar(std::size_t distinct_tasks,
                                   std::size_t context_weight = kDemoContextWeight);
framework::AutonomousManagedSystem make_demo_ams(std::size_t distinct_tasks,
                                                 std::size_t context_weight = kDemoContextWeight);
std::vector<cfg::TokenString> demo_workload(std::size_t distinct_tasks);

}  // namespace agenp::srv
