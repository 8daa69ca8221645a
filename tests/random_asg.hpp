// Seeded random answer set grammars for the differential tests: small
// grammars over the terminals a/b/c whose annotations exercise child atoms,
// arithmetic, comparisons, constraints and even negation loops, plus random
// derivations and contexts to go with them. Every draw comes from one
// util::Rng, so a seed names one sequence of grammars.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace agenp::random_asg {

inline constexpr const char* kTerminals[] = {"a", "b", "c"};

struct Production {
    std::size_t lhs = 0;
    std::vector<int> body;  // nonterminal index, or -1 - t for terminal t
};

// A production symbol as grammar text: a quoted terminal or a nonterminal.
inline std::string symbol(int sym) {
    if (sym < 0) return std::string("\"") + kTerminals[-1 - sym] + "\"";
    return sym == 0 ? "s" : "n" + std::to_string(sym);
}

// One production's annotation: facts, rules reading child atoms (`p(X)@i`)
// with arithmetic and comparison builtins, constraints (some on the
// context's r/1) and an even negation loop; `annotated_head` adds a head
// deriving into a child's namespace, which the memo's gate must refuse.
inline std::string random_annotation(util::Rng& rng, const Production& production,
                                     bool annotated_head) {
    std::vector<std::size_t> kids;  // 1-based positions of nonterminal children
    for (std::size_t i = 0; i < production.body.size(); ++i) {
        if (production.body[i] >= 0) kids.push_back(i + 1);
    }
    auto k = [&] { return std::to_string(rng.uniform(0, 3)); };
    auto kid = [&] { return std::to_string(rng.choice(kids)); };
    std::string out;
    for (std::int64_t r = rng.uniform(1, 4); r > 0; --r) {
        switch (rng.uniform(0, kids.empty() ? 3 : 9)) {
            case 0: out += "p(" + k() + "). "; break;
            case 1: out += "q(" + k() + "). "; break;
            case 2: out += ":- p(X), q(X). "; break;
            case 3: out += "t :- not u. u :- not t. :- t, q(" + k() + "). "; break;
            case 4: out += "p(X) :- p(X)@" + kid() + ". "; break;
            case 5: out += "p(N) :- p(M)@" + kid() + ", N = M + 1. "; break;
            case 6: out += "q(X) :- p(X)@" + kid() + ", X > " + k() + ". "; break;
            case 7: out += ":- p(X)@" + kid() + ", r(X). "; break;
            case 8: out += ":- q(X)@" + kid() + ", q(Y)@" + kid() + ", X != Y. "; break;
            default: out += "ok :- q(X)@" + kid() + ". :- not ok, p(" + k() + "). "; break;
        }
    }
    if (annotated_head && !kids.empty()) out += "q(" + k() + ")@" + kid() + ". ";
    return out;
}

// "s" plus up to three more nonterminals over a/b/c, each with one to three
// productions of up to three symbols: recursive, epsilon and ambiguous
// productions all occur. One grammar in five gets annotated heads.
inline std::vector<Production> random_grammar(util::Rng& rng, std::string& text) {
    std::int64_t nonterminals = rng.uniform(1, 4);
    bool annotated_heads = rng.bernoulli(0.2);
    std::vector<Production> productions;
    for (std::int64_t lhs = 0; lhs < nonterminals; ++lhs) {
        for (std::int64_t alt = rng.uniform(1, 3); alt > 0; --alt) {
            Production production{static_cast<std::size_t>(lhs), {}};
            for (std::int64_t n = rng.uniform(0, 3); n > 0; --n) {
                std::int64_t sym = rng.bernoulli(0.5) ? -1 - rng.uniform(0, 2)
                                                      : rng.uniform(0, nonterminals - 1);
                production.body.push_back(static_cast<int>(sym));
            }
            text += symbol(static_cast<int>(lhs)) + " ->";
            if (production.body.empty()) text += " epsilon";
            for (int sym : production.body) text += " " + symbol(sym);
            text += " { " + random_annotation(rng, production, annotated_heads) + "}\n";
            productions.push_back(std::move(production));
        }
    }
    return productions;
}

// Appends a random derivation of `nt` to `out`; false when it ran too deep
// or past six tokens (Earley over a long string of a highly ambiguous
// grammar costs seconds and tests nothing more).
inline bool derive(util::Rng& rng, const std::vector<Production>& productions, std::size_t nt,
                   int depth, std::string& out) {
    if (depth > 6 || std::count(out.begin(), out.end(), ' ') > 6) return false;
    std::vector<const Production*> options;
    for (const auto& production : productions) {
        if (production.lhs == nt) options.push_back(&production);
    }
    for (int sym : rng.choice(options)->body) {
        if (sym < 0) {
            out += std::string(kTerminals[-1 - sym]) + " ";
        } else if (!derive(rng, productions, static_cast<std::size_t>(sym), depth + 1, out)) {
            return false;
        }
    }
    return true;
}

// A string of up to four random terminals: mostly outside the language.
inline std::string random_string(util::Rng& rng) {
    std::string out;
    for (std::int64_t n = rng.uniform(0, 4); n > 0; --n) {
        out += std::string(kTerminals[rng.uniform(0, 2)]) + " ";
    }
    return out;
}

inline std::string random_context(util::Rng& rng) {
    std::string out;
    for (int k = 0; k <= 3; ++k) {
        if (rng.bernoulli(0.4)) out += "r(" + std::to_string(k) + "). ";
    }
    if (rng.bernoulli(0.3)) out += "p(" + std::to_string(rng.uniform(0, 3)) + "). ";
    if (rng.bernoulli(0.3)) out += "q(X) :- r(X). ";
    return out;
}

// A context for the relevant-context differential (asg::relevant_context).
// Besides facts of the predicates the grammars read (p, q, r, and y, which
// only an added rule reads) it draws facts no grammar reads (z, w), chains from them into read predicates
// (`r(X) :- z(X).`), constraints over unread predicates, even and odd
// negation loops, and @1 atoms in bodies and heads. It draws apart from
// random_context, so the memo and learner tests keep their sequences.
inline std::string random_slice_context(util::Rng& rng) {
    auto k = [&] { return std::to_string(rng.uniform(0, 3)); };
    std::string out;
    for (std::int64_t n = rng.uniform(1, 7); n > 0; --n) {
        switch (rng.uniform(0, 14)) {
            case 0: out += "r(" + k() + "). "; break;
            case 1: {
                std::string x = k();
                out += "p(" + x + "). y(" + x + "). r(" + x + "). ";
                break;
            }
            case 2: out += "q(" + k() + "). q(" + k() + "). "; break;
            case 3: out += "z(" + k() + "). "; break;
            case 4: out += "w(" + k() + ", " + k() + "). "; break;
            case 5: out += "r(X) :- z(X). "; break;
            case 6: out += "z(X) :- w(X, Y). q(X) :- z(X), w(Y, X). "; break;
            case 7: out += ":- z(" + k() + "). "; break;
            case 8: out += ":- z(X), w(X, " + k() + "). "; break;
            case 9: out += "e(1) :- not e(2). e(2) :- not e(1). r(X) :- e(X). "; break;
            case 10: out += "o :- not o, z(" + k() + "). "; break;
            case 11: out += "r(X)@1 :- z(X). "; break;
            case 12: out += "q(X) :- w(X, X)@1. "; break;
            case 13: out += "z(" + k() + ")@1. "; break;
            default: out += "v(X) :- z(X), not w(X, X). "; break;
        }
    }
    return out;
}

}  // namespace agenp::random_asg
