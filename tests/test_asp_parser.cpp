#include <gtest/gtest.h>

#include "asp/parser.hpp"

namespace agenp::asp {
namespace {

TEST(Parser, ParsesFact) {
    Program p = parse_program("p(a, 1).");
    ASSERT_EQ(p.size(), 1u);
    EXPECT_TRUE(p.rules()[0].is_fact());
    EXPECT_EQ(p.rules()[0].head->to_string(), "p(a,1)");
}

TEST(Parser, ParsesZeroArityFact) {
    Program p = parse_program("rain.");
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p.rules()[0].head->predicate.str(), "rain");
    EXPECT_TRUE(p.rules()[0].head->args.empty());
}

TEST(Parser, ParsesNormalRule) {
    Rule r = parse_rule("q(X) :- p(X, Y), not r(X).");
    ASSERT_TRUE(r.head.has_value());
    EXPECT_EQ(r.head->to_string(), "q(X)");
    ASSERT_EQ(r.body.size(), 2u);
    EXPECT_TRUE(r.body[0].positive);
    EXPECT_FALSE(r.body[1].positive);
    EXPECT_EQ(r.body[1].atom.to_string(), "r(X)");
}

TEST(Parser, ParsesConstraint) {
    Rule r = parse_rule(":- p(X), q(X).");
    EXPECT_TRUE(r.is_constraint());
    EXPECT_EQ(r.body.size(), 2u);
}

TEST(Parser, ParsesComparisons) {
    Rule r = parse_rule("q(X) :- p(X), X >= 3, X != 7.");
    ASSERT_EQ(r.builtins.size(), 2u);
    EXPECT_EQ(r.builtins[0].op, Comparison::Op::Ge);
    EXPECT_EQ(r.builtins[1].op, Comparison::Op::Ne);
}

TEST(Parser, ParsesArithmeticWithPrecedence) {
    Rule r = parse_rule("q(Z) :- p(X), Z = X + 2 * 3.");
    ASSERT_EQ(r.builtins.size(), 1u);
    // + is the outermost functor: X + (2*3)
    EXPECT_EQ(r.builtins[0].rhs.to_string(), "(X + (2 * 3))");
}

TEST(Parser, ParsesParenthesizedArithmetic) {
    Rule r = parse_rule("q(Z) :- p(X), Z = (X + 2) * 3.");
    EXPECT_EQ(r.builtins[0].rhs.to_string(), "((X + 2) * 3)");
}

TEST(Parser, ParsesNegativeIntegers) {
    Atom a = parse_atom("p(-4)");
    EXPECT_EQ(a.args[0].int_value(), -4);
}

TEST(Parser, ParsesAnnotatedAtom) {
    Atom a = parse_atom("holds(route)@2");
    EXPECT_EQ(a.annotation, 2);
    EXPECT_EQ(a.predicate.str(), "holds");
}

TEST(Parser, ParsesAnnotationInRuleBody) {
    Rule r = parse_rule(":- allowed@1, not granted(X)@2, p(X).");
    EXPECT_EQ(r.body[0].atom.annotation, 1);
    EXPECT_EQ(r.body[1].atom.annotation, 2);
    EXPECT_EQ(r.body[2].atom.annotation, kUnannotated);
}

TEST(Parser, ParsesCompoundTerms) {
    Atom a = parse_atom("edge(pair(a, b), 3)");
    ASSERT_EQ(a.args.size(), 2u);
    EXPECT_EQ(a.args[0].to_string(), "pair(a,b)");
}

TEST(Parser, ParsesQuotedConstants) {
    Atom a = parse_atom("role(\"senior admin\")");
    EXPECT_EQ(a.args[0].symbol().str(), "senior admin");
}

TEST(Parser, SkipsCommentsAndWhitespace) {
    Program p = parse_program(R"(
        % a comment
        p.  % trailing comment
        q :- p.
    )");
    EXPECT_EQ(p.size(), 2u);
}

TEST(Parser, MultiRuleProgramRoundTrips) {
    std::string text = "p(a).\nq(X) :- p(X), not r(X).\n:- q(b).\n";
    Program p = parse_program(text);
    EXPECT_EQ(p.to_string(), text);
}

TEST(Parser, ExpandsIntervalFacts) {
    Program p = parse_program("n(1..4).");
    EXPECT_EQ(p.size(), 4u);
    EXPECT_EQ(p.rules()[0].head->to_string(), "n(1)");
    EXPECT_EQ(p.rules()[3].head->to_string(), "n(4)");
}

TEST(Parser, ExpandsIntervalCartesianProduct) {
    Program p = parse_program("cell(1..2, 1..3).");
    EXPECT_EQ(p.size(), 6u);
}

TEST(Parser, IntervalKeepsOtherArguments) {
    Program p = parse_program("loa(car, 0..2).");
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p.rules()[1].head->to_string(), "loa(car,1)");
}

TEST(Parser, SingletonIntervalIsOneFact) {
    Program p = parse_program("n(3..3).");
    EXPECT_EQ(p.size(), 1u);
}

TEST(Parser, RejectsIntervalOutsideFacts) {
    EXPECT_THROW(parse_program("q :- n(1..3)."), ParseError);
    EXPECT_THROW(parse_program("n(1..3) :- p."), ParseError);
    EXPECT_THROW(parse_program("p(f(1..3))."), ParseError);
}

TEST(Parser, RejectsBackwardsInterval) {
    EXPECT_THROW(parse_program("n(5..2)."), ParseError);
}

TEST(Parser, RejectsIntervalsPastTheFactCap) {
    EXPECT_EQ(parse_program("n(1..1024, 1..4).").size(), 4096u);
    EXPECT_EQ(parse_program("n(9223372036854775806..9223372036854775807).").size(), 2u);
    // Each of these would have expanded past any memory, or forever.
    EXPECT_THROW(parse_program("n(1..1048577)."), ParseError);
    EXPECT_THROW(parse_program("n(1..1024, 0..1024)."), ParseError);
    EXPECT_THROW(parse_program("n(1..9223372036854775807)."), ParseError);
}

TEST(Parser, OutOfRangeIntegerIsAParseErrorWithItsLine) {
    EXPECT_EQ(parse_program("p(9223372036854775807).").rules()[0].head->to_string(),
              "p(9223372036854775807)");
    try {
        (void)parse_program("a.\nb.\np(99999999999999999999).");
        FAIL() << "parsed an integer past int64";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
}

TEST(Parser, ErrorsOnUnterminatedRule) {
    EXPECT_THROW(parse_program("p(a)"), ParseError);
}

TEST(Parser, ErrorsOnBadToken) {
    EXPECT_THROW(parse_program("p($)."), ParseError);
}

TEST(Parser, ErrorsOnDanglingComma) {
    EXPECT_THROW(parse_program("q :- p, ."), ParseError);
}

TEST(Parser, ErrorsOnVariableHead) {
    EXPECT_THROW(parse_rule("X :- p."), ParseError);
}

TEST(Parser, ErrorsOnBadAnnotation) {
    EXPECT_THROW(parse_atom("p@0"), ParseError);
    EXPECT_THROW(parse_atom("p@x"), ParseError);
    EXPECT_THROW(parse_atom("p@4294967297"), ParseError);  // not annotation 1
}

TEST(Parser, ParsesTermDirectly) {
    Term t = parse_term("f(X, g(1), -2)");
    EXPECT_EQ(t.to_string(), "f(X,g(1),-2)");
}

}  // namespace
}  // namespace agenp::asp
