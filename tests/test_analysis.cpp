#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "asp/parser.hpp"
#include "obs/metrics.hpp"

namespace agenp::analysis {
namespace {

using asp::parse_program;

LintOptions with_externals(std::initializer_list<const char*> names) {
    LintOptions options;
    for (const char* n : names) options.external_predicates.emplace_back(util::Symbol(n));
    return options;
}

// --- program passes --------------------------------------------------------

TEST(LintProgram, FlagsUnsafeVariableWithRuleAndName) {
    auto sink = lint_program(parse_program(R"(
        q(1).
        r(Y) :- q(Y), not s(Z).
    )"));
    const auto* d = sink.find(codes::kUnsafeVariable);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->location.rule, 1);
    EXPECT_EQ(d->location.production, -1);
    EXPECT_NE(d->message.find("Z"), std::string::npos);
    EXPECT_NE(d->location.context.find("r(Y)"), std::string::npos);
    EXPECT_TRUE(sink.has_errors());
    EXPECT_TRUE(sink.fails());
}

TEST(LintProgram, FlagsUndefinedPredicateAsWarningUnlessExternal) {
    const char* text = "p(X) :- q(X).";
    auto sink = lint_program(parse_program(text));
    const auto* d = sink.find(codes::kUndefinedPredicate);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("q"), std::string::npos);
    EXPECT_FALSE(sink.fails());       // warnings do not gate by default
    EXPECT_TRUE(sink.fails(true));    // --strict promotes them

    auto relaxed = lint_program(parse_program(text), with_externals({"q", "p"}));
    EXPECT_EQ(relaxed.find(codes::kUndefinedPredicate), nullptr);
}

TEST(LintProgram, FlagsUnusedPredicateAsInfo) {
    auto sink = lint_program(parse_program("p(1). q(X) :- p(X)."));
    const auto* d = sink.find(codes::kUnusedPredicate);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Info);
    EXPECT_NE(d->message.find("q"), std::string::npos);

    LintOptions options;
    options.check_unused = false;
    EXPECT_EQ(lint_program(parse_program("p(1)."), options).find(codes::kUnusedPredicate),
              nullptr);
}

TEST(LintProgram, FlagsArityMismatch) {
    auto sink = lint_program(parse_program(R"(
        t(1, 2).
        t(1).
    )"));
    const auto* d = sink.find(codes::kArityMismatch);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("t"), std::string::npos);
    EXPECT_NE(d->message.find("1, 2"), std::string::npos);
    EXPECT_EQ(d->location.rule, 1);  // where the second arity first appeared
}

TEST(LintProgram, FlagsNegationCycle) {
    auto sink = lint_program(parse_program("u :- not u."));
    const auto* d = sink.find(codes::kNotStratified);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("{u}"), std::string::npos);
}

TEST(LintProgram, FlagsTriviallyUnsatConstraint) {
    auto sink = lint_program(parse_program("q(1). :- q(1)."));
    const auto* d = sink.find(codes::kUnsatConstraint);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->location.rule, 1);

    // An empty body is vacuously true, so the constraint always fires.
    EXPECT_NE(lint_program(parse_program(":- 1 < 2.")).find(codes::kUnsatConstraint), nullptr);

    // Negation makes the body context-dependent: not flagged.
    EXPECT_EQ(lint_program(parse_program("q(1). :- q(1), not r."))
                  .find(codes::kUnsatConstraint),
              nullptr);
    // Non-fact positive body: not flagged.
    EXPECT_EQ(lint_program(parse_program("q(X) :- p(X). :- q(1).")).find(codes::kUnsatConstraint),
              nullptr);
}

TEST(LintProgram, FlagsVacuousRules) {
    auto ground_false = lint_program(parse_program("p :- q, 1 > 2. q."));
    const auto* d = ground_false.find(codes::kVacuousRule);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Info);
    EXPECT_NE(d->message.find("1 > 2"), std::string::npos);

    auto complementary = lint_program(parse_program("p :- q, not q. q."));
    EXPECT_NE(complementary.find(codes::kVacuousRule), nullptr);
}

TEST(LintProgram, EstimatesGroundingBlowup) {
    // 4 constants x 3 variables -> 64 candidate instantiations > limit 50.
    LintOptions options;
    options.grounding_estimate_limit = 50;
    auto sink = lint_program(parse_program(R"(
        n(1). n(2). n(3). n(4).
        big(X, Y, Z) :- n(X), n(Y), n(Z).
        ok :- big(1, 2, 3).
    )"),
                             options);
    const auto* d = sink.find(codes::kGroundingBlowup);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->location.rule, 4);

    options.check_grounding = false;
    EXPECT_EQ(lint_program(parse_program("n(1). n(2). p(X, Y, Z) :- n(X), n(Y), n(Z)."), options)
                  .find(codes::kGroundingBlowup),
              nullptr);
}

TEST(LintProgram, CleanProgramProducesNoFindings) {
    auto sink = lint_program(parse_program(R"(
        edge(a, b).
        edge(b, c).
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- edge(X, Y), path(Y, Z).
        reach :- path(a, c).
        :- not reach.
    )"));
    EXPECT_TRUE(sink.empty()) << sink.render_text();
}

// --- ASG passes ------------------------------------------------------------

TEST(LintAsg, FlagsUnreachableProduction) {
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "a"
        orphan -> "b"
    )");
    auto sink = lint_asg(g);
    const auto* d = sink.find(codes::kUnreachableProduction);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->location.production, 1);
    EXPECT_NE(d->message.find("orphan"), std::string::npos);
}

TEST(LintAsg, FlagsNonproductiveProductionAndEmptyLanguage) {
    // `loop` never bottoms out, and the start symbol depends on it.
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "go" loop
        loop -> "again" loop
    )");
    auto sink = lint_asg(g);
    const auto* dead = sink.find(codes::kNonproductiveProduction);
    ASSERT_NE(dead, nullptr);
    EXPECT_EQ(dead->severity, Severity::Warning);
    const auto* empty = sink.find(codes::kEmptyLanguage);
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->severity, Severity::Error);
    EXPECT_TRUE(sink.fails());

    // A base case fixes both.
    auto fixed = asg::AnswerSetGrammar::parse(R"(
        s -> "go" loop
        loop -> "again" loop
        loop -> "stop"
    )");
    auto clean = lint_asg(fixed);
    EXPECT_EQ(clean.find(codes::kNonproductiveProduction), nullptr);
    EXPECT_EQ(clean.find(codes::kEmptyLanguage), nullptr);
}

TEST(LintAsg, FlagsAnnotationOnTerminalChild) {
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "a" t { p :- q@1. }
        t -> "b" { q. }
    )");
    auto sink = lint_asg(g);
    const auto* d = sink.find(codes::kAnnotationOnTerminal);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->location.production, 0);
}

TEST(LintAsg, ResolvesDefinitionsAcrossNamespaces) {
    // requires/1 is defined by the task productions and consumed by the
    // request production through @2: no undefined/unused findings.
    auto g = asg::AnswerSetGrammar::parse(R"(
        request -> "do" task {
            :- requires(L)@2, maxloa(M), L > M.
        }
        task -> "patrol" { requires(2). }
        task -> "strike" { requires(4). }
    )");
    auto sink = lint_asg(g, with_externals({"maxloa"}));
    EXPECT_TRUE(sink.empty()) << sink.render_text();

    // Without the external declaration, maxloa is an undefined-predicate
    // warning in the request namespace — never an error.
    auto bare = lint_asg(g);
    const auto* d = bare.find(codes::kUndefinedPredicate);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("maxloa"), std::string::npos);
    EXPECT_NE(d->message.find("request"), std::string::npos);
    EXPECT_FALSE(bare.has_errors());
}

TEST(LintAsg, SameNameDifferentNamespacesIsNotAnArityClash) {
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "x" a b { ok :- tag(V)@2, tag(V, V)@3. }
        a -> "p" { tag(1). }
        b -> "q" { tag(2, 2). }
    )");
    auto sink = lint_asg(g, with_externals({"ok"}));
    EXPECT_EQ(sink.find(codes::kArityMismatch), nullptr) << sink.render_text();
}

TEST(LintAsg, FlagsArityMismatchWithinOneNamespace) {
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { p(1). p(2, 3). }
    )");
    auto sink = lint_asg(g);
    const auto* d = sink.find(codes::kArityMismatch);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->location.production, 0);
}

TEST(LintAsg, FlagsNegationCycleInsideAnnotation) {
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { p :- not q. q :- not p. ok :- p. }
    )");
    auto sink = lint_asg(g, with_externals({"ok", "q"}));
    const auto* d = sink.find(codes::kNotStratified);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("s::p"), std::string::npos);
}

TEST(LintAsg, FlagsUnsafeRuleWithProductionLocation) {
    auto g = asg::AnswerSetGrammar::parse(R"(
        s -> "a" t
        t -> "b" { bad(X) :- ok. ok. }
    )");
    auto sink = lint_asg(g, with_externals({"bad"}));
    const auto* d = sink.find(codes::kUnsafeVariable);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->location.production, 1);
    EXPECT_EQ(d->location.rule, 0);
    EXPECT_NE(d->message.find("X"), std::string::npos);
}

// --- renderers -------------------------------------------------------------

TEST(DiagnosticSink, RendersTextAndJson) {
    auto sink = lint_program(parse_program("t(1). t(1, 2). u(X) :- t(X)."));
    auto text = sink.render_text();
    EXPECT_NE(text.find("error[ASP004]"), std::string::npos);
    EXPECT_NE(text.find("error(s)"), std::string::npos);

    auto json = sink.render_json();
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"ASP004\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
}

TEST(DiagnosticSink, JsonEscapesControlCharacters) {
    EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(DiagnosticSink, CountsAndSeverityLookup) {
    DiagnosticSink sink;
    Diagnostic err;
    err.code = codes::kUnsafeVariable;
    err.severity = Severity::Error;
    err.message = "boom";
    sink.report(err);
    Diagnostic warn;
    warn.code = codes::kNotStratified;
    warn.severity = Severity::Warning;
    sink.report(warn);
    EXPECT_EQ(sink.count(Severity::Error), 1u);
    EXPECT_EQ(sink.count(Severity::Warning), 1u);
    EXPECT_EQ(sink.count(Severity::Info), 0u);
    ASSERT_NE(sink.find_severity(Severity::Error), nullptr);
    EXPECT_EQ(sink.find_severity(Severity::Error)->message, "boom");
    EXPECT_EQ(sink.find_severity(Severity::Info), nullptr);
}

}  // namespace
}  // namespace agenp::analysis
