#include "obs/reqtrace.hpp"

#include <algorithm>
#include <array>

namespace agenp::obs {

namespace {

thread_local TraceContext* t_current_trace = nullptr;

std::string pad_left(const std::string& s, std::size_t width) {
    return std::string(s.size() < width ? width - s.size() : 0, ' ') + s;
}

}  // namespace

std::size_t TraceContext::begin_span(PhaseId phase, std::uint64_t start_ns) {
    RequestSpan span;
    span.phase = phase;
    span.start_ns = start_ns;
    span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    spans_.push_back(span);
    std::size_t index = spans_.size() - 1;
    open_.push_back(index);
    return index;
}

void TraceContext::end_span(std::size_t index, std::uint64_t end_ns) {
    if (index >= spans_.size()) return;
    RequestSpan& span = spans_[index];
    span.duration_ns = end_ns >= span.start_ns ? end_ns - span.start_ns : 0;
    if (span.parent >= 0) {
        spans_[static_cast<std::size_t>(span.parent)].child_ns += span.duration_ns;
    }
    // Pop the open stack down to (and including) this span; spans are
    // expected to close innermost-first, but a missed end_span must not
    // leave the stack pointing at a closed span.
    while (!open_.empty()) {
        std::size_t top = open_.back();
        open_.pop_back();
        if (top == index) break;
    }
}

std::size_t TraceContext::find(std::string_view name) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (phase_name(spans_[i].phase) == name) return i;
    }
    return npos;
}

void TraceContext::append_chrome_events(std::string& out, bool& first) const {
    for (const auto& span : spans_) {
        if (!first) out += ",";
        out += "{\"name\":\"" + std::string(phase_name(span.phase)) +
               "\",\"cat\":\"request\",\"ph\":\"X\"";
        out += ",\"ts\":" + std::to_string(span.start_ns / 1000);
        out += ",\"dur\":" + std::to_string(span.duration_us());
        out += ",\"pid\":1,\"tid\":" + std::to_string(id_);
        out += ",\"args\":{\"trace_id\":" + std::to_string(id_) +
               ",\"parent\":" + std::to_string(span.parent);
        if (client_ != 0) out += ",\"client\":" + std::to_string(client_);
        out += "}}";
        first = false;
    }
}

std::string TraceContext::chrome_trace_json() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    append_chrome_events(out, first);
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

std::string TraceContext::flat_profile() const {
    struct Row {
        PhaseId phase = PhaseId::SrvRequest;
        std::uint64_t calls = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
    };
    std::array<Row, kPhaseCount> by_phase{};
    for (const auto& span : spans_) {
        Row& row = by_phase[phase_index(span.phase)];
        row.phase = span.phase;
        ++row.calls;
        row.total_ns += span.duration_ns;
        row.self_ns += span.self_ns();
    }
    std::vector<Row> rows;
    for (const Row& row : by_phase) {
        if (row.calls > 0) rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.total_ns > b.total_ns; });
    std::size_t width = 5;
    for (const Row& row : rows) width = std::max(width, phase_name(row.phase).size());
    std::string out = "phase" + std::string(width - 5 + 2, ' ') + "calls     total_us      self_us\n";
    for (const Row& row : rows) {
        std::string_view name = phase_name(row.phase);
        out += std::string(name) + std::string(width - name.size() + 2, ' ') +
               pad_left(std::to_string(row.calls), 5) +
               pad_left(std::to_string(row.total_ns / 1000), 13) +
               pad_left(std::to_string(row.self_ns / 1000), 13) + "\n";
    }
    return out;
}

TraceContext* current_trace() { return t_current_trace; }

TraceContextScope::TraceContextScope(TraceContext* ctx) : prev_(t_current_trace) {
    t_current_trace = ctx;
}

TraceContextScope::~TraceContextScope() { t_current_trace = prev_; }

std::string chrome_trace_json(const std::vector<const TraceContext*>& traces) {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const TraceContext* trace : traces) {
        if (trace != nullptr) trace->append_chrome_events(out, first);
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

}  // namespace agenp::obs
