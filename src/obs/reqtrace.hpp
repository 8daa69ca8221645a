// Request-scoped tracing: one span tree per traced request (or per CLI
// command under --trace-out).
//
// A TraceContext is a small span buffer created at submit time and
// carried with the request through queue wait -> cache probe -> PDP ->
// ASG membership -> solver. Every span carries its PhaseId and a parent
// index, so the exported tree breaks a request's latency into phases
// (queue wait vs. solve time) that a latency histogram flattens away.
//
// Propagation: the request owns its TraceContext; deeper layers reach it
// through a thread-local set by TraceContextScope for the duration of the
// evaluation, so their signatures stay trace-agnostic. obs::Phase
// (phase.hpp) opens and closes the spans. A TraceContext is single-owner:
// at any moment at most one thread appends spans (enforced by the serving
// layer's queue handoff), so it needs no internal locking.
//
// Cost: when the serving layer decides not to trace a request no context
// is installed, and a Phase touches no trace at all.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/phase.hpp"

namespace agenp::obs {

struct RequestSpan {
    PhaseId phase = PhaseId::SrvRequest;
    std::uint64_t start_ns = 0;     // monotonic_ns() at entry
    std::uint64_t duration_ns = 0;  // 0 while the span is still open
    std::uint64_t child_ns = 0;     // summed durations of closed direct children
    std::int32_t parent = -1;       // index into TraceContext::spans(); -1 = top level

    [[nodiscard]] std::uint64_t duration_us() const { return duration_ns / 1000; }
    // Time not spent in a child span.
    [[nodiscard]] std::uint64_t self_ns() const {
        return duration_ns > child_ns ? duration_ns - child_ns : 0;
    }
};

class TraceContext {
public:
    explicit TraceContext(std::uint64_t trace_id) : id_(trace_id) {}

    [[nodiscard]] std::uint64_t trace_id() const { return id_; }

    // Transport connection id the request arrived on; 0 = not
    // connection-bound. Emitted into every exported event's args.
    void set_client(std::uint64_t client) { client_ = client; }
    [[nodiscard]] std::uint64_t client() const { return client_; }

    // Opens a span nested under the innermost open span; returns its index.
    std::size_t begin_span(PhaseId phase, std::uint64_t start_ns);
    // Closes span `index` at `end_ns`, together with any span opened
    // after it and left open.
    void end_span(std::size_t index, std::uint64_t end_ns);

    [[nodiscard]] const std::vector<RequestSpan>& spans() const { return spans_; }

    // Index of the first span of the phase with this name, or npos.
    [[nodiscard]] std::size_t find(std::string_view name) const;
    static constexpr std::size_t npos = ~std::size_t{0};

    // Duration of the first span (a request's root), or 0 when empty.
    [[nodiscard]] std::uint64_t total_us() const {
        return spans_.empty() ? 0 : spans_.front().duration_us();
    }

    // Appends this trace's spans as Chrome trace events ("ph":"X") onto
    // `out`; every event carries tid = trace id (one lane per request) and
    // args.trace_id / args.parent for scripted consumers.
    void append_chrome_events(std::string& out, bool& first) const;

    // Standalone Chrome trace-event JSON for this one trace.
    [[nodiscard]] std::string chrome_trace_json() const;

    // Flat profile: one line per phase with call count, total time and
    // self time (total minus child spans), sorted by total descending.
    [[nodiscard]] std::string flat_profile() const;

private:
    std::uint64_t id_ = 0;
    std::uint64_t client_ = 0;
    std::vector<RequestSpan> spans_;
    std::vector<std::size_t> open_;  // stack of open span indices
};

// The trace context installed on this thread, or null.
TraceContext* current_trace();

// Installs `ctx` (may be null) as the thread's current trace context for
// the scope's lifetime; restores the previous one on exit.
class TraceContextScope {
public:
    explicit TraceContextScope(TraceContext* ctx);
    ~TraceContextScope();
    TraceContextScope(const TraceContextScope&) = delete;
    TraceContextScope& operator=(const TraceContextScope&) = delete;

private:
    TraceContext* prev_;
};

// Merges several requests' span trees into one Chrome trace-event JSON
// document (one tid lane per request).
std::string chrome_trace_json(const std::vector<const TraceContext*>& traces);

}  // namespace agenp::obs
