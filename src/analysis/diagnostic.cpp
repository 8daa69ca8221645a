#include "analysis/diagnostic.hpp"

#include "obs/metrics.hpp"

namespace agenp::analysis {

const char* severity_name(Severity severity) {
    switch (severity) {
        case Severity::Info: return "info";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "unknown";
}

std::string Location::to_string() const {
    std::string out;
    if (production >= 0) out += "production " + std::to_string(production);
    if (rule >= 0) {
        if (!out.empty()) out += ", ";
        out += "rule " + std::to_string(rule);
    }
    return out;
}

std::string Diagnostic::to_string() const {
    std::string out = std::string(severity_name(severity)) + "[" + code + "]";
    auto where = location.to_string();
    if (!where.empty()) out += " " + where;
    out += ": " + message;
    if (!location.context.empty()) out += " (in: " + location.context + ")";
    if (!hint.empty()) out += " hint: " + hint;
    return out;
}

std::string Diagnostic::to_json() const {
    std::string out = "{";
    out += "\"code\":\"" + obs::json_escape(code) + "\"";
    out += ",\"severity\":\"" + std::string(severity_name(severity)) + "\"";
    out += ",\"message\":\"" + obs::json_escape(message) + "\"";
    out += ",\"rule\":" + std::to_string(location.rule);
    out += ",\"production\":" + std::to_string(location.production);
    if (!location.context.empty()) out += ",\"context\":\"" + obs::json_escape(location.context) + "\"";
    if (!hint.empty()) out += ",\"hint\":\"" + obs::json_escape(hint) + "\"";
    out += "}";
    return out;
}

void DiagnosticSink::report(Diagnostic diagnostic) {
    diagnostics_.push_back(std::move(diagnostic));
}

std::size_t DiagnosticSink::count(Severity severity) const {
    std::size_t n = 0;
    for (const auto& d : diagnostics_) {
        if (d.severity == severity) ++n;
    }
    return n;
}

bool DiagnosticSink::fails(bool strict) const {
    for (const auto& d : diagnostics_) {
        if (d.severity == Severity::Error) return true;
        if (strict && d.severity == Severity::Warning) return true;
    }
    return false;
}

const Diagnostic* DiagnosticSink::find(const std::string& code) const {
    for (const auto& d : diagnostics_) {
        if (d.code == code) return &d;
    }
    return nullptr;
}

const Diagnostic* DiagnosticSink::find_severity(Severity severity) const {
    for (const auto& d : diagnostics_) {
        if (d.severity == severity) return &d;
    }
    return nullptr;
}

std::string DiagnosticSink::render_text() const {
    std::string out;
    for (const auto& d : diagnostics_) out += d.to_string() + "\n";
    out += std::to_string(count(Severity::Error)) + " error(s), " +
           std::to_string(count(Severity::Warning)) + " warning(s), " +
           std::to_string(count(Severity::Info)) + " info(s)\n";
    return out;
}

std::string DiagnosticSink::render_json() const {
    std::string out = "{";
    out += "\"errors\":" + std::to_string(count(Severity::Error));
    out += ",\"warnings\":" + std::to_string(count(Severity::Warning));
    out += ",\"infos\":" + std::to_string(count(Severity::Info));
    out += ",\"diagnostics\":[";
    bool first = true;
    for (const auto& d : diagnostics_) {
        if (!first) out += ",";
        out += d.to_json();
        first = false;
    }
    out += "]}";
    return out;
}

}  // namespace agenp::analysis
