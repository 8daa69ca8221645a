#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "cfg/earley.hpp"
#include "cfg/generate.hpp"
#include "cfg/grammar.hpp"
#include "random_asg.hpp"
#include "util/rng.hpp"

namespace agenp::cfg {
namespace {

const char* kPolicyGrammar = R"(
    rule    -> action subject
    action  -> "permit" | "deny"
    subject -> "admin" | "user" | "guest"
)";

TEST(Grammar, ParsesProductionsAndStart) {
    auto g = Grammar::parse(kPolicyGrammar);
    EXPECT_EQ(g.start().str(), "rule");
    EXPECT_EQ(g.productions().size(), 6u);
    EXPECT_EQ(g.productions_for(Symbol("action")).size(), 2u);
}

TEST(Grammar, RejectsUndefinedNonterminal) {
    EXPECT_THROW(Grammar::parse("a -> b"), GrammarError);
}

TEST(Grammar, RejectsMissingArrow) {
    EXPECT_THROW(Grammar::parse("a \"x\""), GrammarError);
}

TEST(Grammar, ParsesEpsilonAlternative) {
    auto g = Grammar::parse(R"(
        s -> "x" tail
        tail -> "y" tail | epsilon
    )");
    auto nullable = g.nullable_nonterminals();
    ASSERT_EQ(nullable.size(), 1u);
    EXPECT_EQ(nullable[0].str(), "tail");
}

TEST(Grammar, NullableSetFollowsAddProductionOrder) {
    // `a -> b` arrives before `b` is known to be nullable; adding
    // `b -> epsilon` must make both nullable.
    Grammar g;
    g.set_start(Symbol("a"));
    g.add_production({Symbol("a"), {GSym::nonterm("b")}});
    EXPECT_TRUE(g.nullable_nonterminals().empty());
    EXPECT_FALSE(recognizes(g, {}));
    g.add_production({Symbol("b"), {}});
    EXPECT_TRUE(g.is_nullable(Symbol("a")));
    EXPECT_TRUE(g.is_nullable(Symbol("b")));
    EXPECT_EQ(g.nullable_nonterminals().size(), 2u);
    EXPECT_TRUE(recognizes(g, {}));
    auto trees = parse_trees(g, {});
    ASSERT_EQ(trees.size(), 1u);
    EXPECT_EQ(trees[0].to_string(), "(a (b))");
}

TEST(Grammar, TerminalsMayContainSpaces) {
    auto g = Grammar::parse("s -> \"hello world\"");
    EXPECT_TRUE(recognizes(g, {Symbol("hello world")}));
}

TEST(Grammar, TokenizeRoundTrips) {
    auto tokens = tokenize("permit  admin read");
    EXPECT_EQ(tokens.size(), 3u);
    EXPECT_EQ(detokenize(tokens), "permit admin read");
}

TEST(Grammar, ConcurrentReadersOfAnUnqueriedGrammar) {
    // Built with add_production and never queried, so the first reads of
    // its production index happen on several threads at once (a shared
    // model served by a worker pool). Run under TSan in CI.
    Grammar g;
    g.set_start(Symbol("rule"));
    g.add_production({Symbol("rule"), {GSym::nonterm("action"), GSym::nonterm("subject")}});
    g.add_production({Symbol("action"), {GSym::term("permit")}});
    g.add_production({Symbol("action"), {GSym::term("deny")}});
    g.add_production({Symbol("subject"), {GSym::term("admin")}});
    g.add_production({Symbol("subject"), {GSym::term("user")}});
    // Symbols and tokens are interned up front: interning locks, and a lock
    // shared by the readers would order their first reads.
    const Symbol action("action");
    const TokenString sentence = tokenize("deny user");
    std::atomic<bool> go{false};
    std::atomic<int> parsed{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 50; ++i) {
                if (g.productions_for(action).size() != 2) return;
                if (parse_trees(g, sentence).size() != 1) return;
                parsed.fetch_add(1);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_EQ(parsed.load(), 4 * 50);
}

TEST(Earley, RecognizesSimpleSentences) {
    auto g = Grammar::parse(kPolicyGrammar);
    EXPECT_TRUE(recognizes(g, tokenize("permit admin")));
    EXPECT_TRUE(recognizes(g, tokenize("deny guest")));
    EXPECT_FALSE(recognizes(g, tokenize("permit")));
    EXPECT_FALSE(recognizes(g, tokenize("admin permit")));
    EXPECT_FALSE(recognizes(g, tokenize("permit admin admin")));
}

TEST(Earley, RejectsUnknownTokens) {
    auto g = Grammar::parse(kPolicyGrammar);
    EXPECT_FALSE(recognizes(g, tokenize("permit root")));
}

TEST(Earley, EmptyStringOnlyWhenNullable) {
    auto g = Grammar::parse("s -> \"x\" | epsilon");
    EXPECT_TRUE(recognizes(g, {}));
    auto g2 = Grammar::parse("s -> \"x\"");
    EXPECT_FALSE(recognizes(g2, {}));
}

TEST(Earley, HandlesRecursion) {
    auto g = Grammar::parse(R"(
        list -> "item" list | "item"
    )");
    EXPECT_TRUE(recognizes(g, tokenize("item item item item")));
    EXPECT_FALSE(recognizes(g, tokenize("")));
}

TEST(Earley, HandlesNestedNullables) {
    auto g = Grammar::parse(R"(
        s -> a b "end"
        a -> "x" | epsilon
        b -> a a
    )");
    EXPECT_TRUE(recognizes(g, tokenize("end")));
    EXPECT_TRUE(recognizes(g, tokenize("x x x end")));
    EXPECT_FALSE(recognizes(g, tokenize("x x x x end")));
}

TEST(Earley, EmptyCompletionWhileItsChartListGrows) {
    // Completing `n -> epsilon` at position 0 advances the twenty
    // `y -> n "ti"` items that `s -> y` predicted after `n` was predicted,
    // appending them to the position-0 list the completion is scanning
    // (past a capacity doubling: ASan reports the old scan's
    // use-after-free).
    std::string text = "s -> n \"x\" | y\nn -> epsilon\ny ->";
    for (int i = 0; i < 20; ++i) text += (i ? " | n \"t" : " n \"t") + std::to_string(i) + "\"";
    auto g = Grammar::parse(text);
    for (int i = 0; i < 20; ++i) {
        auto trees = parse_trees(g, tokenize("t" + std::to_string(i)));
        ASSERT_EQ(trees.size(), 1u) << i;
        EXPECT_EQ(trees[0].to_string(), "(s (y (n) t" + std::to_string(i) + "))");
    }
    EXPECT_TRUE(recognizes(g, tokenize("x")));
}

TEST(Earley, ParseTreeStructure) {
    auto g = Grammar::parse(kPolicyGrammar);
    auto trees = parse_trees(g, tokenize("permit admin"));
    ASSERT_EQ(trees.size(), 1u);
    const auto& t = trees[0];
    EXPECT_EQ(t.sym.name.str(), "rule");
    ASSERT_EQ(t.children.size(), 2u);
    EXPECT_EQ(t.children[0].sym.name.str(), "action");
    EXPECT_EQ(t.children[0].children[0].sym.name.str(), "permit");
    EXPECT_EQ(detokenize(t.yield()), "permit admin");
}

TEST(Earley, AmbiguousGrammarYieldsMultipleTrees) {
    // Two ways to derive "x x x": left- or right-heavy split.
    auto g = Grammar::parse(R"(
        s -> s s | "x"
    )");
    auto trees = parse_trees(g, tokenize("x x x"));
    EXPECT_EQ(trees.size(), 2u);
    std::set<std::string> shapes;
    for (const auto& t : trees) shapes.insert(t.to_string());
    EXPECT_EQ(shapes.size(), 2u);  // distinct structures
    for (const auto& t : trees) EXPECT_EQ(detokenize(t.yield()), "x x x");
}

TEST(Earley, MaxTreesCapsEnumeration) {
    auto g = Grammar::parse("s -> s s | \"x\"");
    auto trees = parse_trees(g, tokenize("x x x x x x"), {.max_trees = 3});
    EXPECT_EQ(trees.size(), 3u);
}

TEST(Earley, DeepRecursionParses) {
    auto g = Grammar::parse("list -> \"item\" list | \"item\"");
    TokenString tokens(50, Symbol("item"));
    auto trees = parse_trees(g, tokens, {.max_trees = 1});
    ASSERT_EQ(trees.size(), 1u);
    EXPECT_EQ(trees[0].yield().size(), 50u);
}

// Every node is a leaf or spells its production: same lhs, and one child
// per right-hand-side symbol with that symbol.
void expect_spells_production(const Grammar& g, const ParseNode& node, const std::string& where) {
    if (node.is_leaf()) return;
    ASSERT_GE(node.production, 0) << where;
    const Production& p = g.production(node.production);
    EXPECT_EQ(node.sym, GSym::nonterm(p.lhs)) << where;
    ASSERT_EQ(node.children.size(), p.rhs.size()) << where;
    for (std::size_t i = 0; i < p.rhs.size(); ++i) {
        EXPECT_EQ(node.children[i].sym, p.rhs[i]) << where;
        expect_spells_production(g, node.children[i], where);
    }
}

// Property sweep over the seeded random grammars of tests/random_asg.hpp
// (recursive, epsilon and ambiguous productions), on derived strings and on
// random ones.
TEST(Earley, RandomGrammarsYieldDistinctTreesThatSpellTheirInput) {
    util::Rng rng(24);
    std::size_t parsed = 0, rejected = 0, ambiguous = 0;
    for (int grammar_index = 0; grammar_index < 150; ++grammar_index) {
        std::string text;
        auto productions = random_asg::random_grammar(rng, text);
        Grammar g;
        g.set_start(Symbol(random_asg::symbol(0)));
        for (const auto& production : productions) {
            Production p{Symbol(random_asg::symbol(static_cast<int>(production.lhs))), {}};
            for (int sym : production.body) {
                p.rhs.push_back(sym < 0 ? GSym::term(random_asg::kTerminals[-1 - sym])
                                        : GSym::nonterm(random_asg::symbol(sym)));
            }
            g.add_production(std::move(p));
        }
        for (int i = 0; i < 8; ++i) {
            std::string s;
            if (i % 2 == 1 || !random_asg::derive(rng, productions, 0, 0, s)) s = random_asg::random_string(rng);
            TokenString tokens = tokenize(s);
            std::string where = "grammar " + std::to_string(grammar_index) + " '" + s + "'\n" + g.to_string();
            auto trees = parse_trees(g, tokens);
            EXPECT_EQ(recognizes(g, tokens), !trees.empty()) << where;
            (trees.empty() ? rejected : parsed) += 1;
            ambiguous += trees.size() > 1;
            // Distinct as production structures: two epsilon productions of
            // one nonterminal print alike.
            std::set<std::vector<int>> distinct;
            for (const auto& tree : trees) {
                EXPECT_EQ(tree.yield(), tokens) << where;
                expect_spells_production(g, tree, where);
                std::vector<int> shape;
                subtree_shape(tree, shape);
                distinct.insert(shape);
            }
            EXPECT_EQ(distinct.size(), trees.size()) << where;
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(ambiguous, 0u);
    std::printf("earley: %zu strings parsed (%zu ambiguous), %zu rejected\n", parsed, ambiguous, rejected);
}

TEST(Generate, EnumeratesFiniteLanguageExactly) {
    auto g = Grammar::parse(kPolicyGrammar);
    auto result = generate_strings(g);
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.strings.size(), 6u);
    std::set<std::string> sentences;
    for (const auto& s : result.strings) sentences.insert(detokenize(s));
    EXPECT_TRUE(sentences.contains("permit admin"));
    EXPECT_TRUE(sentences.contains("deny guest"));
}

TEST(Generate, TruncatesInfiniteLanguages) {
    auto g = Grammar::parse("list -> \"item\" list | \"item\"");
    auto result = generate_strings(g, {.max_strings = 10, .max_length = 64});
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.strings.size(), 10u);
    // Shortest-first: the first sentence is the single item.
    EXPECT_EQ(detokenize(result.strings[0]), "item");
}

TEST(Generate, RespectsMaxLength) {
    auto g = Grammar::parse("list -> \"item\" list | \"item\"");
    auto result = generate_strings(g, {.max_strings = 1000, .max_length = 5});
    EXPECT_LE(result.strings.size(), 5u);
    for (const auto& s : result.strings) EXPECT_LE(s.size(), 5u);
    // The language goes on past the cut: the list says it is incomplete.
    EXPECT_TRUE(result.truncated);
}

TEST(Generate, EveryGeneratedStringIsRecognized) {
    auto g = Grammar::parse(R"(
        s -> "a" s "b" | epsilon
    )");
    auto result = generate_strings(g, {.max_strings = 8, .max_length = 16});
    for (const auto& s : result.strings) {
        EXPECT_TRUE(recognizes(g, s)) << detokenize(s);
    }
}

// Property: generation and recognition agree on a grammar family with
// parameterized alphabet size.
class GenerateRecognizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GenerateRecognizeSweep, Agreement) {
    int k = GetParam();
    std::string text = "s -> item item\nitem ->";
    for (int i = 0; i < k; ++i) {
        text += std::string(i ? " | " : " ") + "\"w" + std::to_string(i) + "\"";
    }
    auto g = Grammar::parse(text);
    auto result = generate_strings(g);
    EXPECT_EQ(result.strings.size(), static_cast<std::size_t>(k) * k);
    for (const auto& s : result.strings) EXPECT_TRUE(recognizes(g, s));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GenerateRecognizeSweep, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace agenp::cfg
