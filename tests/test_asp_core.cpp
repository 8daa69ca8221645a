#include <gtest/gtest.h>

#include "asp/program.hpp"
#include "asp/substitution.hpp"

namespace agenp::asp {
namespace {

TEST(Term, GroundnessAndVariables) {
    Term t = Term::compound(Symbol("f"), {Term::variable("X"), Term::integer(3)});
    EXPECT_FALSE(t.is_ground());
    std::vector<Symbol> vars;
    t.collect_variables(vars);
    ASSERT_EQ(vars.size(), 1u);
    EXPECT_EQ(vars[0].str(), "X");
    EXPECT_TRUE(Term::compound(Symbol("f"), {Term::integer(1)}).is_ground());
}

TEST(Term, ToStringRoundTrips) {
    Term t = Term::compound(Symbol("f"), {Term::constant("a"), Term::integer(-2)});
    EXPECT_EQ(t.to_string(), "f(a,-2)");
}

TEST(Term, EqualityAndHash) {
    Term a = Term::compound(Symbol("g"), {Term::constant("c")});
    Term b = Term::compound(Symbol("g"), {Term::constant("c")});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a, Term::constant("g"));
}

TEST(Term, TotalOrderIsConsistent) {
    Term i = Term::integer(1);
    Term c = Term::constant("a");
    EXPECT_TRUE((i < c) != (c < i));
    EXPECT_FALSE(i < i);
}

TEST(Atom, ToStringWithAnnotation) {
    Atom a(Symbol("holds"), {Term::integer(1)}, 2);
    EXPECT_EQ(a.to_string(), "holds(1)@2");
    Atom plain(Symbol("p"), {});
    EXPECT_EQ(plain.to_string(), "p");
}

TEST(Atom, AnnotationDistinguishesAtoms) {
    Atom a(Symbol("a"), {}, 1);
    Atom b(Symbol("a"), {}, 2);
    Atom c(Symbol("a"), {});
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
}

TEST(Comparison, IntegerComparisons) {
    Comparison c(Comparison::Op::Le, Term::integer(3), Term::integer(5));
    EXPECT_EQ(c.evaluate(), std::optional<bool>(true));
    Comparison d(Comparison::Op::Gt, Term::integer(3), Term::integer(5));
    EXPECT_EQ(d.evaluate(), std::optional<bool>(false));
}

TEST(Comparison, ArithmeticEvaluation) {
    // 2*3+1 = 7
    Term lhs = Term::compound(Symbol("+"),
                              {Term::compound(Symbol("*"), {Term::integer(2), Term::integer(3)}),
                               Term::integer(1)});
    Comparison c(Comparison::Op::Eq, lhs, Term::integer(7));
    EXPECT_EQ(c.evaluate(), std::optional<bool>(true));
}

TEST(Comparison, DivisionByZeroIsUndefined) {
    Term lhs = Term::compound(Symbol("/"), {Term::integer(4), Term::integer(0)});
    Comparison c(Comparison::Op::Eq, lhs, Term::integer(1));
    EXPECT_EQ(c.evaluate(), std::nullopt);
}

TEST(Comparison, NonGroundIsUndefined) {
    Comparison c(Comparison::Op::Lt, Term::variable("X"), Term::integer(1));
    EXPECT_EQ(c.evaluate(), std::nullopt);
}

TEST(Comparison, SymbolicEqualityIsStructural) {
    Comparison c(Comparison::Op::Eq, Term::constant("a"), Term::constant("a"));
    EXPECT_EQ(c.evaluate(), std::optional<bool>(true));
    Comparison d(Comparison::Op::Ne, Term::constant("a"), Term::constant("b"));
    EXPECT_EQ(d.evaluate(), std::optional<bool>(true));
}

TEST(Rule, SafetyRequiresPositiveBinding) {
    // p(X) :- not q(X).  — unsafe
    Rule r = Rule::normal(Atom(Symbol("p"), {Term::variable("X")}),
                          {Literal::neg(Atom(Symbol("q"), {Term::variable("X")}))});
    EXPECT_FALSE(r.is_safe());
    // p(X) :- q(X), not r(X).  — safe
    Rule s = Rule::normal(Atom(Symbol("p"), {Term::variable("X")}),
                          {Literal::pos(Atom(Symbol("q"), {Term::variable("X")})),
                           Literal::neg(Atom(Symbol("r"), {Term::variable("X")}))});
    EXPECT_TRUE(s.is_safe());
}

TEST(Rule, EqualityBinderMakesVariableSafe) {
    // p(X) :- X = 3.
    Rule r = Rule::normal(Atom(Symbol("p"), {Term::variable("X")}), {},
                          {Comparison(Comparison::Op::Eq, Term::variable("X"), Term::integer(3))});
    EXPECT_TRUE(r.is_safe());
}

TEST(Rule, ChainedBindersAreSafe) {
    // p(Y) :- X = 2, Y = X + 1.
    Rule r = Rule::normal(
        Atom(Symbol("p"), {Term::variable("Y")}), {},
        {Comparison(Comparison::Op::Eq, Term::variable("X"), Term::integer(2)),
         Comparison(Comparison::Op::Eq, Term::variable("Y"),
                    Term::compound(Symbol("+"), {Term::variable("X"), Term::integer(1)}))});
    EXPECT_TRUE(r.is_safe());
}

TEST(Rule, ConstraintPrinting) {
    Rule r = Rule::constraint({Literal::pos(Atom(Symbol("p"), {})), Literal::neg(Atom(Symbol("q"), {}))});
    EXPECT_EQ(r.to_string(), ":- p, not q.");
}

TEST(Rule, SizeCountsHeadAndBody) {
    Rule r = Rule::normal(Atom(Symbol("p"), {}), {Literal::pos(Atom(Symbol("q"), {}))},
                          {Comparison(Comparison::Op::Lt, Term::integer(1), Term::integer(2))});
    EXPECT_EQ(r.size(), 3);
    EXPECT_EQ(Rule::constraint({Literal::pos(Atom(Symbol("q"), {}))}).size(), 1);
}

TEST(Subst, MatchBindsVariables) {
    Subst s;
    Atom pattern(Symbol("p"), {Term::variable("X"), Term::variable("X")});
    Atom good(Symbol("p"), {Term::integer(1), Term::integer(1)});
    Atom bad(Symbol("p"), {Term::integer(1), Term::integer(2)});
    EXPECT_TRUE(match_atom(pattern, good, s));
    Subst s2;
    EXPECT_FALSE(match_atom(pattern, bad, s2));
}

TEST(Subst, ApplySubstitutesRecursively) {
    Subst s;
    s.bind(Symbol("X"), Term::integer(5));
    Term t = Term::compound(Symbol("f"), {Term::variable("X"), Term::variable("Y")});
    Term applied = apply_subst(t, s);
    EXPECT_EQ(applied.to_string(), "f(5,Y)");
}

TEST(Subst, TruncateRollsBack) {
    Subst s;
    s.bind(Symbol("X"), Term::integer(1));
    auto mark = s.size();
    s.bind(Symbol("Y"), Term::integer(2));
    s.truncate(mark);
    EXPECT_EQ(s.lookup(Symbol("Y")), nullptr);
    EXPECT_NE(s.lookup(Symbol("X")), nullptr);
}

TEST(Program, AppendConcatenates) {
    Program a, b;
    a.add_fact(Atom(Symbol("p"), {}));
    b.add_fact(Atom(Symbol("q"), {}));
    a.append(b);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_TRUE(a.is_ground());
}

TEST(Program, MoveAppendTakesStorageIntoAnEmptyProgram) {
    Program a, b, out;
    a.add_fact(Atom(Symbol("p"), {}));
    a.add_fact(Atom(Symbol("q"), {}));
    b.add_fact(Atom(Symbol("r"), {}));
    const Rule* storage = a.rules().data();
    out.append(std::move(a));
    EXPECT_EQ(out.rules().data(), storage);  // the vector itself, not a copy
    out.append(std::move(b));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out.rules()[0].head->predicate, Symbol("p"));
    EXPECT_EQ(out.rules()[2].head->predicate, Symbol("r"));
}

}  // namespace
}  // namespace agenp::asp
