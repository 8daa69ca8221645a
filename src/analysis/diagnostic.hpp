// Structured diagnostics for the static policy analyzer (DESIGN.md §9).
//
// A Diagnostic is one finding of a lint pass: a stable code, a severity, a
// human-readable message, an optional fix hint, and a location (rule index,
// and for ASG passes the production index). The DiagnosticSink accumulates
// findings and renders them as text (one line per finding, compiler style)
// or JSON (for `agenp lint --json` and the CI gate).
//
// The code catalogue lives in the `codes` namespace below; every code is
// documented in DESIGN.md §9. Codes are stable identifiers: tests, the CI
// gate and the PAdaP adoption gate key off them, so never reuse one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace agenp::analysis {

enum class Severity { Info, Warning, Error };

[[nodiscard]] const char* severity_name(Severity severity);

// Stable diagnostic codes. ASPxxx codes fire on ASP programs (standalone or
// inside ASG annotations); ASGxxx codes fire on the grammar structure.
namespace codes {
inline constexpr const char* kUnsafeVariable = "ASP001";     // error
inline constexpr const char* kUndefinedPredicate = "ASP002"; // warning
inline constexpr const char* kUnusedPredicate = "ASP003";    // info
inline constexpr const char* kArityMismatch = "ASP004";      // error
inline constexpr const char* kNotStratified = "ASP005";      // warning
inline constexpr const char* kUnsatConstraint = "ASP006";    // error
inline constexpr const char* kGroundingBlowup = "ASP007";    // warning
inline constexpr const char* kVacuousRule = "ASP008";        // info
inline constexpr const char* kUnreachableProduction = "ASG001";  // warning
inline constexpr const char* kNonproductiveProduction = "ASG002";  // warning
inline constexpr const char* kEmptyLanguage = "ASG003";          // error
inline constexpr const char* kAnnotationOnTerminal = "ASG004";   // warning
}  // namespace codes

struct Location {
    int rule = -1;        // rule index within its program, -1 when unknown
    int production = -1;  // ASG production index, -1 for standalone programs
    // Pretty-printed source construct (the rule or production header) so a
    // finding is actionable without the original file offsets.
    std::string context;

    [[nodiscard]] std::string to_string() const;
};

struct Diagnostic {
    std::string code;  // one of analysis::codes
    Severity severity = Severity::Warning;
    std::string message;
    std::string hint;  // optional fix hint; empty when none applies
    Location location;

    // "error[ASP001] production 0, rule 2: message (in: ...) hint: ..."
    [[nodiscard]] std::string to_string() const;
    [[nodiscard]] std::string to_json() const;
};

class DiagnosticSink {
public:
    void report(Diagnostic diagnostic);

    [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
    [[nodiscard]] bool empty() const { return diagnostics_.empty(); }
    [[nodiscard]] std::size_t size() const { return diagnostics_.size(); }
    [[nodiscard]] std::size_t count(Severity severity) const;
    [[nodiscard]] bool has_errors() const { return count(Severity::Error) > 0; }

    // True when any finding reaches the gating severity (Error, or Warning
    // when `strict`). The lint CLI's exit code and the PAdaP adoption gate
    // both go through this.
    [[nodiscard]] bool fails(bool strict = false) const;

    // First diagnostic with the given code, or nullptr.
    [[nodiscard]] const Diagnostic* find(const std::string& code) const;
    // First diagnostic at the given severity, or nullptr.
    [[nodiscard]] const Diagnostic* find_severity(Severity severity) const;

    // One line per diagnostic plus a trailing summary line.
    [[nodiscard]] std::string render_text() const;
    // {"errors":N,"warnings":N,"infos":N,"diagnostics":[...]}
    [[nodiscard]] std::string render_json() const;

private:
    std::vector<Diagnostic> diagnostics_;
};

}  // namespace agenp::analysis
